// Figure 4: relative runtime overheads of ICall (ROLoad type-based
// forward-edge CFI) and its ported software competitor (label-based CFI)
// on the full SPEC CINT2006 suite.
//
// Paper result: ICall averages almost zero; CFI averages 9.073%. Expected
// shape: ICall under ~1% everywhere; CFI an order of magnitude above it,
// highest on the indirect-call-heavy benchmarks.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "campaign/spec.h"

using namespace roload;

int main() {
  const double scale = bench::BenchScale();
  const bool profile = bench::BenchProfileEnabled();

  campaign::CampaignSpec grid;
  grid.name = "fig4_icall_runtime";
  grid.workloads = workloads::SpecCint2006Suite(scale);
  grid.configs = {campaign::ForDefense(core::Defense::kNone),
                  campaign::ForDefense(core::Defense::kICall),
                  campaign::ForDefense(core::Defense::kClassicCfi)};
  grid.profile = profile;
  const campaign::CampaignResult result =
      campaign::Run(grid, {.jobs = bench::BenchJobs()});
  if (bench::ReportFaults(result)) return 1;

  std::printf("Figure 4: ICall vs CFI runtime overheads (scale=%.2f%s)\n\n",
              scale, profile ? ", profiled" : "");
  std::printf("%-24s | %12s | %8s %8s\n", "benchmark", "base cycles",
              "ICall%", "CFI%");
  bench::PrintRule(64);

  trace::TelemetrySession session("fig4_icall_runtime");
  result.FillSession(&session);
  session.Record("scale", scale);
  double time_icall = 0, time_cfi = 0;
  int count = 0;
  for (const auto& spec : grid.workloads) {
    const auto& base = bench::MustMetrics(result, spec.name, "none");
    const auto& icall = bench::MustMetrics(result, spec.name, "ICall");
    const auto& cfi = bench::MustMetrics(result, spec.name, "CFI");
    const double t_ic = core::OverheadPercent(
        static_cast<double>(base.cycles), static_cast<double>(icall.cycles));
    const double t_cfi = core::OverheadPercent(
        static_cast<double>(base.cycles), static_cast<double>(cfi.cycles));
    std::printf("%-24s | %12llu | %8.3f %8.3f\n", spec.name.c_str(),
                static_cast<unsigned long long>(base.cycles), t_ic, t_cfi);
    session.Record(spec.name + ".base_cycles", base.cycles);
    session.Record(spec.name + ".icall_time_pct", t_ic);
    session.Record(spec.name + ".cfi_time_pct", t_cfi);
    session.Record(spec.name + ".icall_roload_loads", icall.roload_loads);
    session.Record(spec.name + ".icall_key_checks",
                   icall.Counter("tlb.d.key_check"));
    if (profile) {
      bench::RecordProfileDelta(&session, spec.name + ".icall", base, icall);
      bench::RecordProfileDelta(&session, spec.name + ".cfi", base, cfi);
    }
    time_icall += t_ic;
    time_cfi += t_cfi;
    ++count;
  }
  bench::PrintRule(64);
  std::printf("%-24s | %12s | %8.3f %8.3f\n", "average", "",
              time_icall / count, time_cfi / count);
  std::printf("%-24s | %12s | %8s %8.3f\n", "paper (DAC'21)", "", "~0",
              9.073);
  session.Record("average.icall_time_pct", time_icall / count);
  session.Record("average.cfi_time_pct", time_cfi / count);
  session.Record("paper.cfi_time_pct", 9.073);

  // Under load: ICall vs classic CFI on the RPC dispatch server,
  // requests spread across 1/2/4 harts. Every request walks
  // an indirect-call middleware table, so the fnptr-dispatch density is
  // far above the batch SPEC rows — the CFI gap widens while ICall stays
  // near zero.
  campaign::CampaignSpec load;
  load.name = "fig4_icall_underload";
  load.workloads = {workloads::RpcServerWorkload(std::max<std::uint64_t>(
      200, static_cast<std::uint64_t>(1200 * scale)))};
  load.configs = grid.configs;
  load.harts = {1, 2, 4};
  const campaign::CampaignResult under =
      campaign::Run(load, {.jobs = bench::BenchJobs()});
  if (bench::ReportFaults(under)) return 1;

  std::printf("\nUnder load: RPC dispatch server, requests spread across "
              "harts\n\n");
  std::printf("%-24s | %12s | %8s %8s\n", "rpc_server", "base cycles",
              "ICall%", "CFI%");
  bench::PrintRule(64);
  for (unsigned harts : load.harts) {
    const std::string suffix =
        harts == 1 ? "" : "/h" + std::to_string(harts);
    auto must = [&](const char* cfg) -> const core::RunMetrics& {
      const std::string name =
          std::string("rpc_server/") + cfg + "/full" + suffix;
      const campaign::RunOutcome* outcome = under.Find(name);
      if (outcome == nullptr || !outcome->ok()) {
        std::fprintf(stderr, "bench: no clean run %s\n", name.c_str());
        std::exit(1);
      }
      return outcome->metrics;
    };
    const auto& base = must("none");
    const auto& icall = must("ICall");
    const auto& cfi = must("CFI");
    const double t_ic = core::OverheadPercent(
        static_cast<double>(base.cycles), static_cast<double>(icall.cycles));
    const double t_cfi = core::OverheadPercent(
        static_cast<double>(base.cycles), static_cast<double>(cfi.cycles));
    const std::string row = "harts=" + std::to_string(harts);
    std::printf("%-24s | %12llu | %8.3f %8.3f\n", row.c_str(),
                static_cast<unsigned long long>(base.cycles), t_ic, t_cfi);
    session.Record("underload.h" + std::to_string(harts) + ".base_cycles",
                   base.cycles);
    session.Record("underload.h" + std::to_string(harts) +
                       ".icall_time_pct", t_ic);
    session.Record("underload.h" + std::to_string(harts) +
                       ".cfi_time_pct", t_cfi);
  }

  bench::WriteBenchJson(session);
  return 0;
}
