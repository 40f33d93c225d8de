// Workload-generator tests: determinism, structural expectations per
// benchmark class, suite composition, and cross-variant result stability.
#include <gtest/gtest.h>

#include "campaign/figures.h"
#include "core/toolchain.h"
#include "ir/ir.h"
#include "workloads/spec_like.h"

namespace roload::workloads {
namespace {

TEST(SuiteTest, ElevenBenchmarksThreeCpp) {
  const auto suite = SpecCint2006Suite(1.0);
  EXPECT_EQ(suite.size(), 11u);  // SPEC CINT2006 minus 400.perlbench
  unsigned cpp = 0;
  for (const auto& spec : suite) {
    if (spec.is_cpp) ++cpp;
  }
  EXPECT_EQ(cpp, 3u);
  EXPECT_EQ(SpecCppSubset(1.0).size(), 3u);
}

TEST(SuiteTest, ScaleAdjustsIterationsOnly) {
  const auto full = SpecCint2006Suite(1.0);
  const auto small = SpecCint2006Suite(0.1);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_LT(small[i].iterations, full[i].iterations);
    EXPECT_EQ(small[i].name, full[i].name);
    EXPECT_EQ(small[i].data_kib, full[i].data_kib);
  }
  // Scale never drops below the minimum trip count.
  for (const auto& spec : SpecCint2006Suite(1e-9)) {
    EXPECT_GE(spec.iterations, 64u);
  }
}

TEST(GeneratorTest, DeterministicInSeed) {
  const auto suite = SpecCint2006Suite(0.05);
  const ir::Module a = Generate(suite[1]);
  const ir::Module b = Generate(suite[1]);
  EXPECT_EQ(ir::Print(a), ir::Print(b));
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  auto suite = SpecCint2006Suite(0.05);
  auto spec = suite[1];
  const ir::Module a = Generate(spec);
  spec.seed += 1;
  const ir::Module b = Generate(spec);
  EXPECT_NE(ir::Print(a), ir::Print(b));
}

TEST(GeneratorTest, AllSuiteModulesVerify) {
  for (const auto& spec : SpecCint2006Suite(0.02)) {
    const ir::Module module = Generate(spec);
    EXPECT_TRUE(ir::Verify(module).ok()) << spec.name;
    EXPECT_NE(module.FindFunction("main"), nullptr);
    EXPECT_NE(module.FindFunction("kernel_step"), nullptr);
  }
}

TEST(GeneratorTest, CppBenchmarksHaveDispatchStructure) {
  for (const auto& spec : SpecCppSubset(0.02)) {
    const ir::Module module = Generate(spec);
    unsigned vtables = 0;
    for (const auto& global : module.globals) {
      if (global.trait == ir::GlobalTrait::kVTable) ++vtables;
    }
    EXPECT_EQ(vtables, spec.hierarchies * spec.classes_per_hierarchy)
        << spec.name;
    // Virtual-dispatch loads must be present and discoverable.
    unsigned vtable_loads = 0, icalls = 0, vcall_sites = 0;
    for (const auto& fn : module.functions) {
      for (const auto& block : fn.blocks) {
        for (const auto& instr : block.instrs) {
          if (instr.kind == ir::InstrKind::kLoad &&
              instr.trait == ir::Trait::kVTableEntryLoad) {
            ++vtable_loads;
          }
          if (instr.kind == ir::InstrKind::kICall) {
            ++icalls;
            if (instr.is_vcall) ++vcall_sites;
          }
        }
      }
    }
    EXPECT_GT(vtable_loads, 0u) << spec.name;
    EXPECT_EQ(vtable_loads, vcall_sites) << spec.name;
    EXPECT_GT(icalls, vcall_sites) << spec.name
                                   << " (needs plain icalls too)";
  }
}

TEST(GeneratorTest, CStyleBenchmarksHaveNoVtables) {
  for (const auto& spec : SpecCint2006Suite(0.02)) {
    if (spec.is_cpp) continue;
    const ir::Module module = Generate(spec);
    for (const auto& global : module.globals) {
      EXPECT_NE(global.trait, ir::GlobalTrait::kVTable) << spec.name;
    }
  }
}

TEST(GeneratorTest, WorkingSetMatchesSpec) {
  auto suite = SpecCint2006Suite(0.02);
  const ir::Module module = Generate(suite[0]);
  bool found = false;
  for (const auto& global : module.globals) {
    if (global.name == "data") {
      EXPECT_EQ(global.zero_bytes, suite[0].data_kib * 1024);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// Cross-variant stability: an unhardened benchmark computes the same
// result on all three system variants (Section V-B backward
// compatibility), in identical cycles, instructions and peak memory
// because the baseline core differs only in its decoder. One workload of
// the §V-B grid, held to the §V-B claims.
TEST(CompatTest, IdenticalResultsAndCyclesAcrossVariants) {
  campaign::CampaignSpec grid =
      campaign::FigureGrid(campaign::Figure::kSecVB, 0.02);
  grid.workloads = {grid.workloads[3]};
  const campaign::CampaignResult result = campaign::Run(grid, {.jobs = 1});
  ASSERT_TRUE(result.all_ok());
  const campaign::FigureValues values = campaign::FigureValuesOf(result);
  for (const campaign::Claim* claim :
       campaign::FailedClaims(campaign::Figure::kSecVB, values)) {
    ADD_FAILURE() << campaign::DescribeClaim(*claim, values);
  }
}

TEST(MetricsTest, HardenedBuildsReportRoLoadActivity) {
  auto suite = SpecCppSubset(0.02);
  const ir::Module module = Generate(suite[0]);
  core::BuildOptions vcall;
  vcall.defense = core::Defense::kVCall;
  auto metrics =
      core::CompileAndRun(module, vcall, core::SystemVariant::kFullRoload);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics->roload_loads, 0u);
  core::BuildOptions none;
  auto base =
      core::CompileAndRun(module, none, core::SystemVariant::kFullRoload);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->roload_loads, 0u);
}

TEST(OverheadTest, HelperMath) {
  EXPECT_DOUBLE_EQ(core::OverheadPercent(100, 103), 3.0);
  EXPECT_DOUBLE_EQ(core::OverheadPercent(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(core::OverheadPercent(0, 50), 0.0);
  EXPECT_LT(core::OverheadPercent(100, 99), 0.0);
}

}  // namespace
}  // namespace roload::workloads
