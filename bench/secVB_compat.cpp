// Section V-B: overall performance / backward compatibility. Unmodified
// (unhardened) SPEC binaries run on the three system variants: the
// baseline system, the processor-modified system, and the
// processor-and-kernel-modified system. The grid, the overheads and the
// paper's claims come from campaign::Figure::kSecVB, among them that every
// run's result is the same on all three systems; the bench exits 1 when a
// claim fails.
#include <cstdio>

#include "bench/bench_util.h"

using namespace roload;

int main() {
  const double scale = campaign::ScaleFromEnv(0.3);
  constexpr campaign::Figure kFigure = campaign::Figure::kSecVB;

  const campaign::CampaignSpec grid = campaign::FigureGrid(kFigure, scale);
  const campaign::CampaignResult result =
      campaign::Run(grid, {.jobs = campaign::JobsFromEnv()});
  if (bench::ReportFaults(result)) return 1;
  const campaign::FigureValues values = campaign::FigureValuesOf(result);

  std::printf("Section V-B: system compatibility and overhead "
              "(scale=%.2f)\n\n", scale);
  std::printf("%-24s | %12s | %10s %10s | %10s %10s\n", "benchmark",
              "base cycles", "proc t%", "proc+k t%", "proc m%",
              "proc+k m%");
  bench::PrintRule(92);

  trace::TelemetrySession session(grid.name);
  result.FillSession(&session);
  session.Record("scale", scale);
  for (const auto& spec : grid.workloads) {
    const auto& base = result.MetricsOf(spec.name, "none",
                                        core::SystemVariant::kBaseline);
    std::printf("%-24s | %12llu | %10.4f %10.4f | %10.4f %10.4f\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(base.cycles),
                campaign::ValueOf(values, spec.name + ".proc_time_pct"),
                campaign::ValueOf(values, spec.name + ".full_time_pct"),
                campaign::ValueOf(values, spec.name + ".proc_mem_pct"),
                campaign::ValueOf(values, spec.name + ".full_mem_pct"));
    session.Record(spec.name + ".base_cycles", base.cycles);
  }
  bench::PrintRule(92);
  std::printf("All benchmarks finished successfully on all three systems "
              "(backward compatible).\n");
  std::printf("Worst runtime overhead: %.4f%%, worst memory overhead: "
              "%.4f%% (paper: ~0%% for both).\n",
              campaign::ValueOf(values, "worst_time_pct"),
              campaign::ValueOf(values, "worst_mem_pct"));
  const bool claims_hold = bench::GateClaims(kFigure, values, &session);
  session.Record("backward_compatible", claims_hold ? "yes" : "no");
  bench::WriteBenchJson(session);
  return claims_hold ? 0 : 1;
}
