// Table II + Table III: prototype configuration and hardware resource cost
// of systems without and with ld.ro when synthesized on the FPGA model.
//
// The delta between the variants is produced structurally (gate-level TLB
// check datapaths + decode delta mapped onto 6-input LUTs); the untouched
// remainder of the core/system uses the paper's published baselines as a
// calibrated constant. The paper's claims come from
// campaign::Figure::kTableIII; the bench exits 1 when one fails.
#include <cmath>
#include <cstdio>
#include <utility>

#include "bench/bench_util.h"
#include "hw/tlb_datapath.h"

using namespace roload;

int main() {
  constexpr campaign::Figure kFigure = campaign::Figure::kTableIII;
  std::printf("Table II: prototype configuration\n");
  std::printf("  ISA            RV64IMAC + ROLoad extension (M/S/U modes)\n");
  std::printf("  Caches         32 KiB 8-way L1I$, 32 KiB 8-way L1D$\n");
  std::printf("  TLBs           32-entry I-TLB, 32-entry D-TLB\n");
  std::printf("  PTE key field  bits [63:54] (10 bits, 1024 keys)\n");
  std::printf("  Synthesis      F_target = 125.00 MHz (Kintex-7 model)\n\n");

  const hw::TableIII table = hw::ComputeTableIII();
  std::printf("Table III: hardware resource cost\n\n");
  std::printf("%-14s | %7s %9s | %7s %9s | %7s %9s | %7s %9s | %10s %8s\n",
              "", "coreLUT", "%", "coreFF", "%", "sysLUT", "%", "sysFF", "%",
              "slack(ns)", "Fmax");
  const auto& a = table.without_ldro;
  const auto& b = table.with_ldro;
  std::printf("%-14s | %7u %9s | %7u %9s | %7u %9s | %7u %9s | %10.3f %8.2f\n",
              "without ld.ro", a.core_luts, "-", a.core_ffs, "-",
              a.system_luts, "-", a.system_ffs, "-", a.worst_slack_ns,
              a.fmax_mhz);
  std::printf("%-14s | %7u %+8.4f%% | %7u %+8.4f%% | %7u %+8.4f%% | %7u "
              "%+8.4f%% | %10.3f %8.2f\n",
              "with ld.ro", b.core_luts, table.core_lut_increase_percent,
              b.core_ffs, table.core_ff_increase_percent, b.system_luts,
              table.system_lut_increase_percent, b.system_ffs,
              table.system_ff_increase_percent, b.worst_slack_ns,
              b.fmax_mhz);
  // The paper's row: its with-ld.ro counts are its baselines raised by
  // its increases.
  const campaign::FigureValues paper = campaign::PaperValues(kFigure);
  std::printf("%-14s", "paper");
  for (const auto& [base, key] :
       {std::pair{hw::kPaperCoreLuts, "paper.core_lut_pct"},
        {hw::kPaperCoreFfs, "paper.core_ff_pct"},
        {hw::kPaperSystemLuts, "paper.system_lut_pct"},
        {hw::kPaperSystemFfs, "paper.system_ff_pct"}}) {
    const double pct = campaign::ValueOf(paper, key);
    std::printf(" | %7ld %+8.4f%%", std::lround(base * (1 + pct / 100)), pct);
  }
  std::printf(" | %10.3f %8.2f\n",
              campaign::ValueOf(paper, "paper.with.slack_ns"),
              campaign::ValueOf(paper, "paper.with.fmax_mhz"));
  std::printf("\n");

  trace::TelemetrySession session("table3_hw_cost");
  const bool claims_hold =
      bench::GateClaims(kFigure, campaign::TableIIIValues(table), &session);
  bench::WriteBenchJson(session);
  return claims_hold ? 0 : 1;
}
