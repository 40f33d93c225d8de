// Figures 4 and 5: relative runtime (Fig. 4) and memory (Fig. 5) overheads
// of ICall (ROLoad type-based forward-edge CFI) and its ported software
// competitor (label-based CFI) on the full SPEC CINT2006 suite. Both
// figures read the same grid (campaign::Figure::kFig4/kFig5), which runs
// once; the bench exits 1 when a claim of either fails.
#include <cstdio>

#include "bench/bench_util.h"

using namespace roload;

int main() {
  const double scale = campaign::ScaleFromEnv(0.5);
  const bool profile = campaign::ProfileFromEnv();
  using campaign::Figure;

  campaign::CampaignSpec grid = campaign::FigureGrid(Figure::kFig4, scale);
  grid.profile = profile;
  const campaign::CampaignResult result =
      campaign::Run(grid, {.jobs = campaign::JobsFromEnv()});
  if (bench::ReportFaults(result)) return 1;
  const campaign::FigureValues values = campaign::FigureValuesOf(result);
  const campaign::FigureValues paper = campaign::PaperValues(Figure::kFig4);
  const campaign::FigureValues paper_memory =
      campaign::PaperValues(Figure::kFig5);

  std::printf("Figure 4: ICall vs CFI runtime overheads (scale=%.2f%s)\n\n",
              scale, profile ? ", profiled" : "");
  std::printf("%-24s | %12s | %8s %8s\n", "benchmark", "base cycles",
              "ICall%", "CFI%");
  bench::PrintRule(64);

  trace::TelemetrySession session(grid.name);
  result.FillSession(&session);
  session.Record("scale", scale);
  for (const auto& spec : grid.workloads) {
    const auto& base = result.MetricsOf(spec.name, "none");
    const auto& icall = result.MetricsOf(spec.name, "ICall");
    std::printf("%-24s | %12llu | %8.3f %8.3f\n", spec.name.c_str(),
                static_cast<unsigned long long>(base.cycles),
                campaign::ValueOf(values, spec.name + ".icall_time_pct"),
                campaign::ValueOf(values, spec.name + ".cfi_time_pct"));
    session.Record(spec.name + ".base_cycles", base.cycles);
    session.Record(spec.name + ".icall_roload_loads", icall.roload_loads);
    session.Record(spec.name + ".icall_key_checks",
                   icall.Counter("tlb.d.key_check"));
    if (profile) {
      bench::RecordProfileDelta(&session, spec.name + ".icall", base, icall);
      bench::RecordProfileDelta(&session, spec.name + ".cfi", base,
                                result.MetricsOf(spec.name, "CFI"));
    }
  }
  bench::PrintRule(64);
  std::printf("%-24s | %12s | %8.3f %8.3f\n", "average", "",
              campaign::ValueOf(values, "average.icall_time_pct"),
              campaign::ValueOf(values, "average.cfi_time_pct"));
  // The paper gives ICall's average only as "almost zero".
  std::printf("%-24s | %12s | %8s %8.3f\n", "paper (DAC'21)", "", "~0",
              campaign::ValueOf(paper, "paper.cfi_time_pct"));
  bool claims_hold = bench::GateClaims(Figure::kFig4, values, &session);

  if (!bench::RunUnderLoad(grid, scale, &session)) return 1;

  std::printf("\nFigure 5: ICall vs CFI memory overheads (scale=%.2f)\n\n",
              scale);
  std::printf("%-24s | %12s | %9s %9s\n", "benchmark", "base KiB",
              "ICall m%", "CFI m%");
  bench::PrintRule(64);
  for (const auto& spec : grid.workloads) {
    const auto& base = result.MetricsOf(spec.name, "none");
    std::printf("%-24s | %12llu | %9.4f %9.4f\n", spec.name.c_str(),
                static_cast<unsigned long long>(base.peak_mem_kib),
                campaign::ValueOf(values, spec.name + ".icall_mem_pct"),
                campaign::ValueOf(values, spec.name + ".cfi_mem_pct"));
    session.Record(spec.name + ".base_kib", base.peak_mem_kib);
    session.Record(spec.name + ".icall_image_bytes",
                   result.MetricsOf(spec.name, "ICall").image_bytes);
  }
  bench::PrintRule(64);
  std::printf("%-24s | %12s | %9.4f %9.4f\n", "average", "",
              campaign::ValueOf(values, "average.icall_mem_pct"),
              campaign::ValueOf(values, "average.cfi_mem_pct"));
  std::printf("%-24s | %12s | %9.4f %9.4f\n", "paper (DAC'21)", "",
              campaign::ValueOf(paper_memory, "paper.icall_mem_pct"),
              campaign::ValueOf(paper_memory, "paper.cfi_mem_pct"));
  claims_hold &= bench::GateClaims(Figure::kFig5, values, &session);

  bench::WriteBenchJson(session);
  return claims_hold ? 0 : 1;
}
