// Ablation 1 (DESIGN.md §5): vtable key granularity. The paper notes that
// ICall's *unified* vtable key has better TLB/cache locality than VCall's
// per-class keys. This sweep varies the number of vtable key groups used
// by VCall from 1 (unified) up to per-hierarchy and reports the runtime
// overhead and the extra keyed pages. Expected shape: fewer key groups ->
// lower overhead and fewer pages, at the price of a coarser allowlist
// (cross-hierarchy reuse inside a shared key group is not blocked).
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "campaign/spec.h"

using namespace roload;

namespace {

constexpr unsigned kKeyGroups[] = {1u, 2u, 4u, 16u, 64u};

std::string GroupLabel(unsigned groups) {
  return "VCall/g" + std::to_string(groups);
}

}  // namespace

int main() {
  const double scale = campaign::ScaleFromEnv(0.5);

  campaign::CampaignSpec grid;
  grid.name = "ablation_keys";
  grid.workloads = workloads::SpecCppSubset(scale);
  grid.configs = {campaign::ForDefense(core::Defense::kNone)};
  for (unsigned groups : kKeyGroups) {
    campaign::RunConfig config;
    config.label = GroupLabel(groups);
    config.build.defense = core::Defense::kVCall;
    config.build.vcall.key_groups = groups;
    grid.configs.push_back(config);
  }
  const campaign::CampaignResult result =
      campaign::Run(grid, {.jobs = campaign::JobsFromEnv()});
  if (bench::ReportFaults(result)) return 1;

  std::printf("Ablation: VCall key groups vs overhead (scale=%.2f)\n\n",
              scale);
  std::printf("%-24s | %10s | %8s | %9s | %10s\n", "benchmark",
              "key groups", "time%", "mem%", "ld.ro runs");
  bench::PrintRule(76);

  const campaign::FigureValues values = campaign::FigureValuesOf(result);
  for (const auto& spec : grid.workloads) {
    const auto& base = result.MetricsOf(spec.name, "none");
    for (unsigned groups : kKeyGroups) {
      const auto& metrics = result.MetricsOf(spec.name, GroupLabel(groups));
      if (metrics.exit_code != base.exit_code) {
        std::fprintf(stderr, "hardened run failed/diverged\n");
        return 1;
      }
      const std::string key = spec.name + ".vcall/g" + std::to_string(groups);
      std::printf("%-24s | %10u | %8.3f | %9.4f | %10llu\n",
                  spec.name.c_str(), groups,
                  campaign::ValueOf(values, key + "_time_pct"),
                  campaign::ValueOf(values, key + "_mem_pct"),
                  static_cast<unsigned long long>(metrics.roload_loads));
    }
    bench::PrintRule(76);
  }
  return 0;
}
