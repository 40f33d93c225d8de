// Ablation 2 (DESIGN.md §5): the cost of dropping the offset immediate.
// ld.ro-family instructions carry the key where a regular load carries its
// address offset, so loads with a folded offset need one extra addi
// (Section III-C). This bench counts the inserted addi instructions and
// also measures the c.ld.ro compressed-encoding code-size optimization.
// Both columns are build-only campaign runs: nothing executes, the grid
// only carries the codegen statistics.
#include <cstdio>

#include "bench/bench_util.h"
#include "campaign/spec.h"

using namespace roload;

int main() {
  const double scale = campaign::ScaleFromEnv(0.5);

  campaign::CampaignSpec grid;
  grid.name = "ablation_addi";
  grid.workloads = workloads::SpecCppSubset(scale);
  campaign::RunConfig wide;
  wide.label = "VCall";
  wide.build.defense = core::Defense::kVCall;
  wide.build_only = true;
  campaign::RunConfig narrow = wide;
  narrow.label = "VCall/cld";
  narrow.build.codegen.use_compressed_roload = true;
  narrow.build.vcall.key_groups = 16;  // keys must fit 5 bits for c.ld.ro
  grid.configs = {wide, narrow};
  const campaign::CampaignResult result =
      campaign::Run(grid, {.jobs = campaign::JobsFromEnv()});
  if (bench::ReportFaults(result)) return 1;

  std::printf("Ablation: ld.ro offset-drop cost and c.ld.ro size win "
              "(scale=%.2f)\n\n", scale);
  std::printf("%-24s | %8s | %10s | %12s | %12s\n", "benchmark", "ld.ro",
              "extra addi", "code bytes", "code w/ c.ld.ro");
  bench::PrintRule(84);

  for (const auto& spec : grid.workloads) {
    const campaign::RunOutcome* wide_out =
        result.Find(spec.name, "VCall");
    const campaign::RunOutcome* narrow_out =
        result.Find(spec.name, "VCall/cld");
    if (wide_out == nullptr || narrow_out == nullptr) {
      std::fprintf(stderr, "missing build for %s\n", spec.name.c_str());
      return 1;
    }
    std::printf("%-24s | %8llu | %10llu | %12llu | %12llu\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(
                    wide_out->build.roload_instructions),
                static_cast<unsigned long long>(
                    wide_out->build.extra_addi_for_roload),
                static_cast<unsigned long long>(wide_out->build.code_bytes),
                static_cast<unsigned long long>(
                    narrow_out->build.code_bytes));
  }
  std::printf("\n(c.ld.ro halves each eligible ld.ro from 4 to 2 bytes; its "
              "5-bit key field requires <= 32 key groups.)\n");
  return 0;
}
