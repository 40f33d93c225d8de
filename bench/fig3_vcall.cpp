// Figure 3: relative runtime and memory overheads of VCall (ROLoad-based
// virtual-call protection) and its competitor VTint, on the three
// C++ benchmarks of SPEC CINT2006. The grid, the overheads and the paper's
// claims come from campaign::Figure::kFig3; the bench exits 1 when a claim
// fails.
#include <cstdio>

#include "bench/bench_util.h"

using namespace roload;

int main() {
  const double scale = campaign::ScaleFromEnv(0.5);
  const bool profile = campaign::ProfileFromEnv();
  constexpr campaign::Figure kFigure = campaign::Figure::kFig3;

  campaign::CampaignSpec grid = campaign::FigureGrid(kFigure, scale);
  grid.profile = profile;
  const campaign::CampaignResult result =
      campaign::Run(grid, {.jobs = campaign::JobsFromEnv()});
  if (bench::ReportFaults(result)) return 1;
  const campaign::FigureValues values = campaign::FigureValuesOf(result);
  const campaign::FigureValues paper = campaign::PaperValues(kFigure);

  std::printf("Figure 3: VCall vs VTint on the C++ benchmarks "
              "(scale=%.2f%s)\n\n", scale, profile ? ", profiled" : "");
  std::printf("%-24s | %12s | %8s %8s | %9s %9s\n", "benchmark",
              "base cycles", "VCall%", "VTint%", "VCall m%", "VTint m%");
  bench::PrintRule();

  trace::TelemetrySession session(grid.name);
  result.FillSession(&session);
  session.Record("scale", scale);
  for (const auto& spec : grid.workloads) {
    const auto& base = result.MetricsOf(spec.name, "none");
    const auto& vcall = result.MetricsOf(spec.name, "VCall");
    std::printf("%-24s | %12llu | %8.3f %8.3f | %9.4f %9.4f\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(base.cycles),
                campaign::ValueOf(values, spec.name + ".vcall_time_pct"),
                campaign::ValueOf(values, spec.name + ".vtint_time_pct"),
                campaign::ValueOf(values, spec.name + ".vcall_mem_pct"),
                campaign::ValueOf(values, spec.name + ".vtint_mem_pct"));
    session.Record(spec.name + ".base_cycles", base.cycles);
    session.Record(spec.name + ".vcall_roload_loads", vcall.roload_loads);
    session.Record(spec.name + ".vcall_key_checks",
                   vcall.Counter("tlb.d.key_check"));
    if (profile) {
      bench::RecordProfileDelta(&session, spec.name + ".vcall", base, vcall);
      bench::RecordProfileDelta(&session, spec.name + ".vtint", base,
                                result.MetricsOf(spec.name, "VTint"));
    }
  }
  bench::PrintRule();
  std::printf("%-24s | %12s | %8.3f %8.3f | %9.4f %9.4f\n", "average", "",
              campaign::ValueOf(values, "average.vcall_time_pct"),
              campaign::ValueOf(values, "average.vtint_time_pct"),
              campaign::ValueOf(values, "average.vcall_mem_pct"),
              campaign::ValueOf(values, "average.vtint_mem_pct"));
  std::printf("%-24s | %12s | %8.3f %8.3f | %9.4f %9.4f\n",
              "paper (DAC'21)", "",
              campaign::ValueOf(paper, "paper.vcall_time_pct"),
              campaign::ValueOf(paper, "paper.vtint_time_pct"),
              campaign::ValueOf(paper, "paper.vcall_mem_pct"),
              campaign::ValueOf(paper, "paper.vtint_mem_pct"));
  const bool claims_hold = bench::GateClaims(kFigure, values, &session);

  if (!bench::RunUnderLoad(grid, scale, &session)) return 1;
  bench::WriteBenchJson(session);
  return claims_hold ? 0 : 1;
}
