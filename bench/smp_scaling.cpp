// SMP scaling of the RPC dispatch server (ROADMAP north star: "heavy
// traffic from millions of users"). Two claims, both gated:
//
//  1. Reproducibility: two fresh 1-hart machines running the same build
//     agree exactly — same cycles, same instructions, same end-of-run
//     counter snapshot, name for name — on the very build the scaling
//     rows use. (tests/test_golden.cpp pins the values themselves.)
//
//  2. Throughput scales: the strided request loop (hart h serves
//     requests h, h+N, h+2N, ...) finishes in fewer cycles on 2 harts
//     than on 1, with cycles measured as the max over harts — the
//     parallel wall-clock. The bench fails if 2 harts do not beat 1.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "campaign/spec.h"
#include "core/toolchain.h"
#include "support/strings.h"

using namespace roload;

namespace {

// Full-snapshot comparison; on mismatch, names the first divergent
// metric so the differential failure is actionable.
bool BitIdentical(const core::RunMetrics& a, const core::RunMetrics& b,
                  std::string* why) {
  if (a.cycles != b.cycles) {
    *why = StrFormat("cycles %llu vs %llu",
                     static_cast<unsigned long long>(a.cycles),
                     static_cast<unsigned long long>(b.cycles));
    return false;
  }
  if (a.instructions != b.instructions) {
    *why = StrFormat("instructions %llu vs %llu",
                     static_cast<unsigned long long>(a.instructions),
                     static_cast<unsigned long long>(b.instructions));
    return false;
  }
  if (a.exit_code != b.exit_code) {
    *why = "exit_code";
    return false;
  }
  if (a.peak_mem_kib != b.peak_mem_kib) {
    *why = "peak_mem_kib";
    return false;
  }
  if (a.counters != b.counters) {
    const std::size_t n =
        std::min(a.counters.size(), b.counters.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (a.counters[i] != b.counters[i]) {
        *why = StrFormat(
            "counter %s: %llu vs %s: %llu",
            a.counters[i].first.c_str(),
            static_cast<unsigned long long>(a.counters[i].second),
            b.counters[i].first.c_str(),
            static_cast<unsigned long long>(b.counters[i].second));
        return false;
      }
    }
    *why = "counter snapshot sizes differ";
    return false;
  }
  return true;
}

}  // namespace

int main() {
  const double scale = bench::BenchScale();
  trace::TelemetrySession session("smp_scaling");
  session.Record("scale", scale);

  const std::uint64_t requests = std::max<std::uint64_t>(
      200, static_cast<std::uint64_t>(2000 * scale));
  const workloads::WorkloadSpec rpc = workloads::RpcServerWorkload(requests);
  session.Record("requests", requests);

  std::printf("SMP scaling: RPC dispatch server across harts "
              "(scale=%.2f, %llu requests)\n\n",
              scale, static_cast<unsigned long long>(requests));

  // --- Gate 1: two fresh 1-hart machines, bit for bit. ---
  std::printf("bit-identity gate (two fresh --harts 1 machines):\n");
  bool identical = true;
  for (core::Defense defense :
       {core::Defense::kNone, core::Defense::kVCall}) {
    core::BuildOptions options;
    options.defense = defense;
    auto build = core::Build(workloads::Generate(rpc), options);
    if (!build.ok()) {
      std::fprintf(stderr, "bench: build failed: %s\n",
                   build.status().ToString().c_str());
      return 1;
    }
    auto first = core::RunBuild(*build, core::SystemVariant::kFullRoload);
    auto second = core::RunBuild(*build, core::SystemVariant::kFullRoload);
    if (!first.ok() || !second.ok()) {
      std::fprintf(stderr, "bench: run failed\n");
      return 1;
    }
    std::string why;
    const bool same = BitIdentical(*first, *second, &why);
    identical = identical && same;
    std::printf("  %-8s %s%s\n", core::DefenseName(defense).data(),
                same ? "identical" : "DIVERGED: ", same ? "" : why.c_str());
    session.Record(std::string("bit_identity.") +
                       std::string(core::DefenseName(defense)),
                   static_cast<std::uint64_t>(same));
  }

  // --- Gate 2: the scaling grid, through the campaign runner with
  // harts as the innermost axis. ---
  campaign::CampaignSpec grid;
  grid.name = "smp_scaling";
  grid.workloads = {rpc};
  grid.configs = {campaign::ForDefense(core::Defense::kNone),
                  campaign::ForDefense(core::Defense::kVCall)};
  grid.harts = {1, 2, 4};
  const campaign::CampaignResult result =
      campaign::Run(grid, {.jobs = bench::BenchJobs()});
  if (bench::ReportFaults(result)) return 1;

  auto metrics = [&](core::Defense defense,
                     unsigned harts) -> const core::RunMetrics& {
    std::string name = std::string("rpc_server/") +
                       std::string(core::DefenseName(defense)) + "/full";
    if (harts != 1) name += "/h" + std::to_string(harts);
    const campaign::RunOutcome* outcome = result.Find(name);
    if (outcome == nullptr || !outcome->ok()) {
      std::fprintf(stderr, "bench: no clean run %s\n", name.c_str());
      std::exit(1);
    }
    return outcome->metrics;
  };

  std::printf("\n%-6s | %14s %8s | %14s %8s | %8s\n", "harts",
              "none cycles", "speedup", "VCall cycles", "speedup",
              "VCall%");
  bench::PrintRule(72);
  const double base_none = static_cast<double>(
      metrics(core::Defense::kNone, 1).cycles);
  const double base_vcall = static_cast<double>(
      metrics(core::Defense::kVCall, 1).cycles);
  for (unsigned harts : grid.harts) {
    const auto& none = metrics(core::Defense::kNone, harts);
    const auto& vcall = metrics(core::Defense::kVCall, harts);
    const double speed_none =
        base_none / static_cast<double>(none.cycles);
    const double speed_vcall =
        base_vcall / static_cast<double>(vcall.cycles);
    const double overhead = core::OverheadPercent(
        static_cast<double>(none.cycles),
        static_cast<double>(vcall.cycles));
    std::printf("%-6u | %14llu %7.2fx | %14llu %7.2fx | %8.3f\n", harts,
                static_cast<unsigned long long>(none.cycles), speed_none,
                static_cast<unsigned long long>(vcall.cycles), speed_vcall,
                overhead);
    const std::string prefix = "h" + std::to_string(harts);
    session.Record(prefix + ".none.cycles", none.cycles);
    session.Record(prefix + ".VCall.cycles", vcall.cycles);
    session.Record(prefix + ".none.speedup", speed_none);
    session.Record(prefix + ".VCall.speedup", speed_vcall);
    session.Record(prefix + ".vcall_overhead_pct", overhead);
    session.Record(prefix + ".instructions", none.instructions);
    session.Record(prefix + ".roload_loads", vcall.roload_loads);
  }
  bench::PrintRule(72);

  // The scaling gate the acceptance criteria name: >= 2 harts must beat
  // the serial run on the parallel wall-clock (max-over-harts cycles).
  const bool scales =
      metrics(core::Defense::kNone, 2).cycles <
          metrics(core::Defense::kNone, 1).cycles &&
      metrics(core::Defense::kVCall, 2).cycles <
          metrics(core::Defense::kVCall, 1).cycles;
  std::printf("\n  1-hart machine bit-identical to System  %s\n",
              identical ? "yes" : "NO");
  std::printf("  2 harts beat 1 (wall-clock cycles)      %s\n",
              scales ? "yes" : "NO");
  session.Record("bit_identity.ok", static_cast<std::uint64_t>(identical));
  session.Record("scales.ok", static_cast<std::uint64_t>(scales));

  bench::WriteBenchJson(session);
  return (identical && scales) ? 0 : 1;
}
