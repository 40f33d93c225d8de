// Security-harness tests: the full attack/defense outcome matrix of
// Section V-C2 as executable assertions, plus the Section V-D residual
// surface and the fault-attribution details.
#include <gtest/gtest.h>

#include "sec/attack.h"

namespace roload::sec {
namespace {

struct MatrixCase {
  AttackKind attack;
  core::Defense defense;
  AttackOutcome expected;
};

class SecurityMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(SecurityMatrixTest, OutcomeMatchesPaperClaim) {
  auto result = RunAttackSmp(GetParam().attack, GetParam().defense);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, GetParam().expected)
      << AttackKindName(GetParam().attack) << " vs "
      << core::DefenseName(GetParam().defense);
}

INSTANTIATE_TEST_SUITE_P(
    PaperClaims, SecurityMatrixTest,
    ::testing::Values(
        // Undefended: both hijack primitives work.
        MatrixCase{AttackKind::kVtableInjection, core::Defense::kNone,
                   AttackOutcome::kHijacked},
        MatrixCase{AttackKind::kFnPtrCorruptToEvil, core::Defense::kNone,
                   AttackOutcome::kHijacked},
        // VCall (Section IV-A): blocks injection AND cross-hierarchy reuse.
        MatrixCase{AttackKind::kVtableInjection, core::Defense::kVCall,
                   AttackOutcome::kBlocked},
        MatrixCase{AttackKind::kVtableReuseCrossHierarchy,
                   core::Defense::kVCall, AttackOutcome::kBlocked},
        // VTint blocks injection but not reuse (VCall strictly stronger).
        MatrixCase{AttackKind::kVtableInjection, core::Defense::kVTint,
                   AttackOutcome::kBlocked},
        MatrixCase{AttackKind::kVtableReuseCrossHierarchy,
                   core::Defense::kVTint, AttackOutcome::kDiverted},
        // VCall/VTint do not cover plain function pointers.
        MatrixCase{AttackKind::kFnPtrCorruptToEvil, core::Defense::kVCall,
                   AttackOutcome::kHijacked},
        MatrixCase{AttackKind::kFnPtrCorruptToEvil, core::Defense::kVTint,
                   AttackOutcome::kHijacked},
        // ICall (Section IV-B): blocks raw-address hijack; unified vtable
        // key admits cross-hierarchy vtable reuse; same-type GFPT reuse is
        // the designed residual surface (Section V-D).
        MatrixCase{AttackKind::kVtableInjection, core::Defense::kICall,
                   AttackOutcome::kBlocked},
        MatrixCase{AttackKind::kFnPtrCorruptToEvil, core::Defense::kICall,
                   AttackOutcome::kBlocked},
        MatrixCase{AttackKind::kVtableReuseCrossHierarchy,
                   core::Defense::kICall, AttackOutcome::kDiverted},
        MatrixCase{AttackKind::kFnPtrReuseSameType, core::Defense::kICall,
                   AttackOutcome::kDiverted},
        // Classic label CFI: blocks wrong-type targets, allows same-type.
        MatrixCase{AttackKind::kVtableInjection, core::Defense::kClassicCfi,
                   AttackOutcome::kBlocked},
        MatrixCase{AttackKind::kFnPtrCorruptToEvil,
                   core::Defense::kClassicCfi, AttackOutcome::kBlocked},
        MatrixCase{AttackKind::kFnPtrReuseSameType,
                   core::Defense::kClassicCfi, AttackOutcome::kDiverted}),
    [](const auto& info) {
      std::string name =
          std::string(AttackKindName(info.param.attack)) + "_vs_" +
          std::string(core::DefenseName(info.param.defense));
      std::string out;
      for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) out += c;
      }
      return out;
    });

TEST(AttackDetailTest, RoLoadBlocksAreAttributedByTheKernel) {
  auto result =
      RunAttackSmp(AttackKind::kVtableInjection, core::Defense::kVCall);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, AttackOutcome::kBlocked);
  EXPECT_TRUE(result->roload_violation)
      << "the roload-aware kernel must classify the fault";
  EXPECT_EQ(result->signal, 11);
}

TEST(AttackDetailTest, CfiBlocksAreAbortsNotFaults) {
  auto result = RunAttackSmp(AttackKind::kFnPtrCorruptToEvil,
                             core::Defense::kClassicCfi);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, AttackOutcome::kBlocked);
  EXPECT_FALSE(result->roload_violation);
}

TEST(AttackDetailTest, VictimRunsCleanlyUnderEveryDefense) {
  // Sanity for the harness itself: without an attack the victim exits
  // normally under all defenses (checked internally by RunAttackSmp, which
  // errors out otherwise — exercise one defense per family here).
  for (core::Defense defense :
       {core::Defense::kNone, core::Defense::kVCall, core::Defense::kVTint,
        core::Defense::kICall, core::Defense::kClassicCfi}) {
    auto result = RunAttackSmp(AttackKind::kFnPtrReuseSameType, defense);
    EXPECT_TRUE(result.ok()) << core::DefenseName(defense) << ": "
                             << result.status().ToString();
  }
}

TEST(VictimModuleTest, HasTheExpectedAttackSurface) {
  ir::Module module = MakeVictimModule();
  EXPECT_TRUE(ir::Verify(module).ok());
  // Two hierarchies (reuse target), the evil function, the reuse pair.
  EXPECT_NE(module.FindGlobal("vt_A0"), nullptr);
  EXPECT_NE(module.FindGlobal("vt_B0"), nullptr);
  EXPECT_NE(module.FindFunction("evil"), nullptr);
  EXPECT_NE(module.FindFunction("cb_first"), nullptr);
  EXPECT_NE(module.FindFunction("cb_second"), nullptr);
  // cb_first/cb_second share a type; evil has its own.
  const auto* first = module.FindFunction("cb_first");
  const auto* second = module.FindFunction("cb_second");
  const auto* evil = module.FindFunction("evil");
  EXPECT_EQ(first->type_id, second->type_id);
  EXPECT_NE(evil->type_id, first->type_id);
}

}  // namespace
}  // namespace roload::sec
