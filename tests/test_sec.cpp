// Security-harness tests: the full attack/defense outcome matrix of
// Section V-C2, each cell checked against sec::PaperOutcome, plus the
// Section V-D residual surface, the fault-attribution details and the
// two attack phases.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "campaign/parallel.h"
#include "sec/attack.h"

namespace roload::sec {
namespace {

// `expected` is sec::PaperOutcome of the cell, carried in the parameter
// so each case's ctest name shows the verdict it asserts.
struct MatrixCase {
  AttackKind attack;
  core::Defense defense;
  AttackOutcome expected;
};

std::vector<MatrixCase> AllMatrixCases() {
  std::vector<MatrixCase> cases;
  for (AttackKind attack : kAttackKinds) {
    for (core::Defense defense : core::kAllDefenses) {
      cases.push_back({attack, defense, PaperOutcome(attack, defense)});
    }
  }
  return cases;
}

class SecurityMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(SecurityMatrixTest, OutcomeMatchesPaperClaim) {
  auto result = RunAttackSmp(GetParam().attack, GetParam().defense);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, GetParam().expected)
      << AttackKindName(GetParam().attack) << " vs "
      << core::DefenseName(GetParam().defense) << ": got "
      << AttackOutcomeName(result->outcome) << ", paper says "
      << AttackOutcomeName(GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    PaperClaims, SecurityMatrixTest, ::testing::ValuesIn(AllMatrixCases()),
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
  // normally under all defenses (checked by PrepareVictim, which errors
  // out otherwise).
  for (core::Defense defense : core::kAllDefenses) {
    auto victim = PrepareVictim(defense);
    EXPECT_TRUE(victim.ok()) << core::DefenseName(defense) << ": "
                             << victim.status().ToString();
  }
}

// An attack never mutates its victim: every kind run off one shared
// Victim, in order and then in reverse on 4 threads, gives exactly what a
// fresh RunAttackSmp gives, counters and autopsy included.
TEST(AttackPhaseTest, SharedVictimMatchesFreshAttacks) {
  constexpr std::size_t kKinds = std::size(kAttackKinds);
  for (const auto& [defense, harts] :
       {std::pair{core::Defense::kICall, 4u}, {core::Defense::kVCall, 1u}}) {
    const auto victim = PrepareVictim(defense, harts);
    ASSERT_TRUE(victim.ok()) << victim.status().ToString();
    auto attack = [&](std::size_t k) {
      auto result = Attack(*victim, kAttackKinds[k]);
      return result.ok() ? std::optional(std::move(*result)) : std::nullopt;
    };
    std::vector<std::optional<AttackResult>> in_order;
    for (std::size_t k = 0; k < kKinds; ++k) in_order.push_back(attack(k));
    const auto reversed = campaign::ParallelMap<std::optional<AttackResult>>(
        kKinds, 4, [&](std::size_t i) { return attack(kKinds - 1 - i); });
    for (std::size_t k = 0; k < kKinds; ++k) {
      const auto fresh = RunAttackSmp(kAttackKinds[k], defense, harts);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      EXPECT_TRUE(in_order[k] == *fresh) << AttackKindName(kAttackKinds[k]);
      EXPECT_TRUE(reversed[kKinds - 1 - k] == *fresh)
          << AttackKindName(kAttackKinds[k]);
    }
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
