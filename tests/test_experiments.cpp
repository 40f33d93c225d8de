// Reproduction-guard integration tests: the paper's shape claims
// (campaign/figures.h) must hold on a reduced-scale run of each figure's
// own grid. If a change to the simulator, passes, or workloads breaks a
// *shape* the paper reports, these tests catch it before the bench
// binaries do. The claim table and the figure tables are checked against
// the figure routine without simulating.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/figures.h"
#include "core/toolchain.h"
#include "hw/tlb_datapath.h"
#include "tests/guest_util.h"
#include "workloads/spec_like.h"

namespace roload {
namespace {

using campaign::Figure;

constexpr double kScale = 0.1;
constexpr Figure kFigures[] = {Figure::kFig3, Figure::kFig4, Figure::kFig5,
                               Figure::kSecVB, Figure::kTableIII};

// Fails the test once per claim of `figure` that `values` breaks, counting
// only claims whose key contains `part`.
void ExpectClaimsHold(Figure figure, const campaign::FigureValues& values,
                      std::string_view part = {}) {
  for (const campaign::Claim* claim : campaign::FailedClaims(figure, values)) {
    if (claim->key.find(part) == std::string_view::npos) continue;
    ADD_FAILURE() << campaign::DescribeClaim(*claim, values);
  }
}

// `figure`'s own grid at kScale, through the figure routine.
campaign::FigureValues RunFigure(Figure figure) {
  return campaign::FigureValuesOf(
      campaign::Run(campaign::FigureGrid(figure, kScale)));
}

TEST(PaperShapeTest, Fig3VCallIsNegligibleAndBeatsVTint) {
  ExpectClaimsHold(Figure::kFig3, RunFigure(Figure::kFig3), "_time_");
}

TEST(PaperShapeTest, Fig3MemoryOrderingVTintAboveVCall) {
  ExpectClaimsHold(Figure::kFig3, RunFigure(Figure::kFig3), "_mem_");
}

TEST(PaperShapeTest, Fig4ICallFarCheaperThanClassicCfi) {
  ExpectClaimsHold(Figure::kFig4, RunFigure(Figure::kFig4));
}

TEST(PaperShapeTest, Fig5MemoryOrderingICallAboveCfi) {
  ExpectClaimsHold(Figure::kFig5, RunFigure(Figure::kFig5));
}

TEST(PaperShapeTest, SectionVBExactlyZeroOverhead) {
  ExpectClaimsHold(Figure::kSecVB, RunFigure(Figure::kSecVB));
}

TEST(PaperShapeTest, TableIIIWithinPaperBound) {
  ExpectClaimsHold(Figure::kTableIII,
                   campaign::TableIIIValues(hw::ComputeTableIII()), "_pct");
}

// A clean result of `figure`'s grid cut to two workloads, without
// simulating. Each config takes its own cycles and peak KiB (config c of
// workload w: 1000 + 500w + 20c cycles, 4096 + 1024w + c KiB); the systems
// of a §V-B grid run alike, and `exit_codes` sets each run's exit code in
// grid order. A profiled run spends its extra 20c cycles in "compute" and
// moves 5c from "icache_miss" to "roload_load".
campaign::CampaignResult SyntheticResult(
    Figure figure, bool profile, std::vector<std::int64_t> exit_codes = {}) {
  campaign::CampaignSpec grid = campaign::FigureGrid(figure, kScale);
  grid.workloads.resize(2);
  grid.profile = profile;
  const std::size_t systems = grid.variants.size();
  const std::size_t configs = grid.configs.size();
  std::vector<campaign::RunOutcome> outcomes;
  for (const campaign::RunSpec& run : campaign::Expand(grid)) {
    const std::size_t i = outcomes.size();
    const std::uint64_t w = i / (configs * systems);
    const std::uint64_t c = i / systems % configs;
    campaign::RunOutcome outcome;
    outcome.name = run.name;
    outcome.index = i;
    core::RunMetrics& metrics = outcome.metrics;
    metrics.completed = true;
    metrics.cycles = 1000 + 500 * w + 20 * c;
    metrics.peak_mem_kib = 4096 + 1024 * w + c;
    if (i < exit_codes.size()) metrics.exit_code = exit_codes[i];
    if (profile) {
      metrics.profile = {{"compute", metrics.cycles - 100},
                         {"roload_load", 5 * c},
                         {"icache_miss", 60 - 5 * c},
                         {"dcache_miss", 40},
                         {"itlb_walk", 0},
                         {"dtlb_walk", 0},
                         {"trap", 0},
                         {"syscall", 0}};
    }
    outcomes.push_back(std::move(outcome));
  }
  return campaign::CampaignResult(grid, std::move(outcomes), 1);
}

// Every claim reads keys its figure emits, so a renamed key fails here
// instead of passing silently. Grid figures run on a synthetic clean
// result, so nothing is simulated.
TEST(ClaimTableTest, EveryClaimReadsAKeyItsFigureEmits) {
  for (Figure figure : kFigures) {
    const campaign::FigureValues values =
        figure == Figure::kTableIII
            ? campaign::TableIIIValues(hw::ComputeTableIII())
            : campaign::FigureValuesOf(SyntheticResult(figure, false));
    EXPECT_FALSE(campaign::ClaimsOf(figure).empty());
    for (const campaign::Claim* claim : campaign::ClaimsOf(figure)) {
      for (std::string_view key : {claim->key, claim->other}) {
        EXPECT_TRUE(key.empty() || !std::isnan(campaign::ValueOf(values, key)))
            << claim->id << " reads " << key;
      }
    }
  }
}

TEST(ClaimTableTest, ViolationNamesExactlyThatClaim) {
  using Ids = std::vector<std::string_view>;
  auto failed = [](Figure figure, const campaign::FigureValues& values) {
    Ids ids;
    for (const campaign::Claim* claim :
         campaign::FailedClaims(figure, values)) {
      ids.push_back(claim->id);
    }
    return ids;
  };
  EXPECT_EQ(failed(Figure::kFig5, {{"average.icall_mem_pct", 0.19},
                                   {"average.cfi_mem_pct", 0.07}}),
            Ids{});
  EXPECT_EQ(failed(Figure::kFig5, {{"average.icall_mem_pct", 0.19},
                                   {"average.cfi_mem_pct", 0.25}}),
            Ids{"fig5.icall_mem_above_cfi"});
  EXPECT_EQ(failed(Figure::kFig4, {{"average.icall_time_pct", 1.99},
                                   {"average.cfi_time_pct", 7.9}}),
            Ids{"fig4.icall_time_quarter_of_cfi"});
  // CFI below ICall also breaks CFI's own floor.
  EXPECT_EQ(failed(Figure::kFig4, {{"average.icall_time_pct", 0.7},
                                   {"average.cfi_time_pct", 0.5}}),
            (Ids{"fig4.cfi_time_real", "fig4.icall_time_quarter_of_cfi"}));
  EXPECT_EQ(failed(Figure::kSecVB, {{"worst_time_pct", 0.0},
                                    {"worst_mem_pct", 0.001},
                                    {"worst_instructions_pct", 0.0},
                                    {"exit_mismatches", 0.0}}),
            Ids{"secVB.mem_zero"});
  campaign::FigureValues table3 =
      campaign::TableIIIValues(hw::ComputeTableIII());
  table3[4].second = 3.4;  // worst_pct over the bound
  EXPECT_EQ(failed(Figure::kTableIII, table3),
            Ids{"table3.increases_below_bound"});
  // A value that was never recorded breaks every claim that reads it.
  EXPECT_EQ(failed(Figure::kFig3, {}).size(),
            campaign::ClaimsOf(Figure::kFig3).size());
}

// The four tables SyntheticResult renders: Fig. 3 profiled, Figs 4 and 5
// from one grid, §V-B with every claim holding.
constexpr std::string_view kFig3Table =
    R"(Figure 3: VCall vs VTint on the C++ benchmarks (scale=0.50, profiled)

benchmark                |  base cycles |   VCall%   VTint% |  VCall m%  VTint m%
----------------------------------------------------------------------------------------------------
471.omnetpp_like         |         1000 |    2.000    4.000 |    0.0244    0.0488
    471.omnetpp_like.vcall Δcycles%: compute +2.000 roload_load +0.500 icache_miss -0.500
    471.omnetpp_like.vtint Δcycles%: compute +4.000 roload_load +1.000 icache_miss -1.000
473.astar_like           |         1500 |    1.333    2.667 |    0.0195    0.0391
    473.astar_like.vcall Δcycles%: compute +1.333 roload_load +0.333 icache_miss -0.333
    473.astar_like.vtint Δcycles%: compute +2.667 roload_load +0.667 icache_miss -0.667
----------------------------------------------------------------------------------------------------
average                  |              |    1.667    3.333 |    0.0220    0.0439
paper (DAC'21)           |              |    0.303    2.750 |    0.0347    0.0644
)";
constexpr std::string_view kFig4Table =
    R"(Figure 4: ICall vs CFI runtime overheads (scale=0.50)

benchmark                |  base cycles |   ICall%     CFI%
----------------------------------------------------------------
401.bzip2_like           |         1000 |    2.000    4.000
403.gcc_like             |         1500 |    1.333    2.667
----------------------------------------------------------------
average                  |              |    1.667    3.333
paper (DAC'21)           |              |       ~0    9.073
)";
constexpr std::string_view kFig5Table =
    R"(Figure 5: ICall vs CFI memory overheads (scale=0.50)

benchmark                |     base KiB |  ICall m%    CFI m%
----------------------------------------------------------------
401.bzip2_like           |         4096 |    0.0244    0.0488
403.gcc_like             |         5120 |    0.0195    0.0391
----------------------------------------------------------------
average                  |              |    0.0220    0.0439
paper (DAC'21)           |              |    0.0859    0.0500
)";
constexpr std::string_view kSecVBTable =
    R"(Section V-B: system compatibility and overhead (scale=0.30)

benchmark                |  base cycles |    proc t%  proc+k t% |    proc m%  proc+k m%
--------------------------------------------------------------------------------------------
401.bzip2_like           |         1000 |     0.0000     0.0000 |     0.0000     0.0000
403.gcc_like             |         1500 |     0.0000     0.0000 |     0.0000     0.0000
--------------------------------------------------------------------------------------------
All benchmarks finished successfully on all three systems (backward compatible).
Worst runtime overhead: 0.0000%, worst memory overhead: 0.0000% (paper: ~0% for both).
)";

// Every grid figure's table, rendered from its declaration: a renamed
// value column would print "nan" here instead of passing silently. §V-B
// declares backward compatibility only when every claim holds, so one
// modified-system run that exits differently drops that line.
TEST(FigureTableTest, RendersEachDeclaredTable) {
  const campaign::CampaignResult fig3 = SyntheticResult(Figure::kFig3, true);
  const campaign::CampaignResult fig4 = SyntheticResult(Figure::kFig4, false);
  const campaign::CampaignResult secvb =
      SyntheticResult(Figure::kSecVB, false);
  const std::pair<std::string, std::string_view> tables[] = {
      {campaign::FigureTable(Figure::kFig3, fig3, 0.5), kFig3Table},
      {campaign::FigureTable(Figure::kFig4, fig4, 0.5), kFig4Table},
      {campaign::FigureTable(Figure::kFig5, fig4, 0.5), kFig5Table},
      {campaign::FigureTable(Figure::kSecVB, secvb, 0.3), kSecVBTable},
  };
  for (const auto& [table, golden] : tables) {
    EXPECT_EQ(table, golden);
    EXPECT_EQ(table.find("nan"), std::string::npos) << table;
  }
  const std::string broken = campaign::FigureTable(
      Figure::kSecVB, SyntheticResult(Figure::kSecVB, false, {0, 1}), 0.3);
  EXPECT_EQ(broken.find("All benchmarks finished"), std::string::npos);
  EXPECT_NE(broken.find("Worst runtime overhead"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end compressed-encoding build: a whole C++ benchmark hardened
// with c.ld.ro (5-bit keys) still computes the baseline checksum, with a
// smaller code section than the wide build.
TEST(CompressedEndToEnd, BenchmarkRunsAndShrinksCode) {
  auto suite = workloads::SpecCppSubset(0.03);
  const ir::Module module = workloads::Generate(suite[0]);

  core::BuildOptions base_options;
  auto base = core::CompileAndRun(module, base_options,
                                  core::SystemVariant::kFullRoload);
  ASSERT_TRUE(base.ok());

  core::BuildOptions wide;
  wide.defense = core::Defense::kVCall;
  wide.vcall.key_groups = 16;  // keys fit the 5-bit compressed field
  auto wide_build = core::Build(module, wide);
  ASSERT_TRUE(wide_build.ok());

  core::BuildOptions compressed = wide;
  compressed.codegen.use_compressed_roload = true;
  auto compressed_build = core::Build(module, compressed);
  ASSERT_TRUE(compressed_build.ok());
  EXPECT_LE(compressed_build->code_bytes, wide_build->code_bytes);

  auto metrics = core::CompileAndRun(module, compressed,
                                     core::SystemVariant::kFullRoload);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_TRUE(metrics->completed);
  EXPECT_EQ(metrics->exit_code, base->exit_code);
  EXPECT_GT(metrics->roload_loads, 0u);
}

// Compressed parcels make 4-byte instructions straddle page boundaries;
// the fetch path must translate both halves.
TEST(CompressedEndToEnd, FetchAcrossPageBoundary) {
  // Pad .text so a 4-byte instruction starts 2 bytes before a page end.
  std::string source = ".section .text\n_start:\n";
  // 2045 c.ld.ro? Simpler: 1023 4-byte nops + one c.ld.ro leaves pc at
  // 4094; the following 4-byte li straddles the boundary.
  for (int i = 0; i < 1023; ++i) source += "  nop\n";
  source += "  c.ld.ro a0, (s1), 7\n";  // 2 bytes @4092... adjust below
  source += "  li a0, 51\n  li a7, 93\n  ecall\n";
  source += ".section .rodata.key.7\nlist: .quad 1\n";
  // Prepare s1 before reaching the c.ld.ro: patch the start.
  source.replace(source.find("_start:\n") + 8, 0, "  la s1, list\n");
  // The la adds 8 bytes; drop two nops to restore the straddle.
  source.replace(source.find("  nop\n"), 12, "");
  const auto run = testing::RunGuest(source);
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kExited)
      << isa::TrapCauseName(run.result.trap_cause);
  EXPECT_EQ(run.result.exit_code, 51);
}

}  // namespace
}  // namespace roload
