// Reproduction-guard integration tests: the paper's shape claims
// (campaign/figures.h) must hold on a reduced-scale run of each figure's
// own grid. If a change to the simulator, passes, or workloads breaks a
// *shape* the paper reports, these tests catch it before the bench
// binaries do. The claim table itself is checked against its figure
// routine without simulating.
#include <gtest/gtest.h>

#include <cmath>
#include <string_view>
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

// Every claim reads keys its figure emits, so a renamed key fails here
// instead of passing silently. Grid figures run on a synthetic clean result
// (every run identical), so nothing is simulated.
TEST(ClaimTableTest, EveryClaimReadsAKeyItsFigureEmits) {
  for (Figure figure : kFigures) {
    campaign::FigureValues values =
        campaign::TableIIIValues(hw::ComputeTableIII());
    if (figure != Figure::kTableIII) {
      const campaign::CampaignSpec grid = campaign::FigureGrid(figure, kScale);
      std::vector<campaign::RunOutcome> outcomes;
      for (const campaign::RunSpec& run : campaign::Expand(grid)) {
        campaign::RunOutcome outcome;
        outcome.name = run.name;
        outcome.metrics.completed = true;
        outcomes.push_back(std::move(outcome));
      }
      values = campaign::FigureValuesOf(
          campaign::CampaignResult(grid, std::move(outcomes), 1));
    }
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
