// Multi-hart machine tests: the per-hart counter namespaces and their
// fleet aggregates, the TLB-shootdown race (a cross-hart re-key must never
// leave a stale keyed translation live), RPC-server scaling, determinism
// of the timing-interleaved scheduler, and SMP audit attribution.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "asmtool/assembler.h"
#include "core/system.h"
#include "core/toolchain.h"
#include "sec/attack.h"
#include "tests/guest_util.h"
#include "workloads/spec_like.h"

namespace roload::core {
namespace {

core::BuildResult BuildWorkload(const workloads::WorkloadSpec& spec,
                                core::Defense defense) {
  core::BuildOptions options;
  options.defense = defense;
  auto build = core::Build(workloads::Generate(spec), options);
  EXPECT_TRUE(build.ok()) << build.status().ToString();
  return std::move(*build);
}

core::RunMetrics RunOnHarts(const core::BuildResult& build, unsigned harts) {
  return testing::RunImage(build.image, testing::ColdPathConfig(harts));
}

// --- RPC-server scaling and scheduler determinism. ---------------------

TEST(SmpRpcScalingTest, MoreHartsReduceWallClockCycles) {
  const auto build =
      BuildWorkload(workloads::RpcServerWorkload(400), core::Defense::kVCall);
  const auto one = RunOnHarts(build, 1);
  const auto two = RunOnHarts(build, 2);
  const auto four = RunOnHarts(build, 4);
  EXPECT_TRUE(one.completed);
  EXPECT_TRUE(two.completed);
  EXPECT_TRUE(four.completed);
  // Requests are strided across harts: wall-clock (max cycles over harts)
  // must drop going 1 -> 2, and 4 harts must not be slower than 2.
  EXPECT_LT(two.cycles, one.cycles);
  EXPECT_LE(four.cycles, two.cycles);
  // The merged counters keep the historical names as fleet-wide sums.
  EXPECT_EQ(two.Counter("smp.harts"), 2u);
  EXPECT_GT(two.Counter("cpu.roload_loads"), 0u);
  EXPECT_GT(two.Counter("hart1.cpu.instret"), 0u);
  EXPECT_GT(two.Counter("cache.l2.hit") + two.Counter("cache.l2.miss"),
            0u);
}

// Every fleet aggregate under a per-hart counter's unprefixed name is the
// sum of its hart<N>. twins, and nothing else is: a counter added to
// RegisterCpuCounters can never be missing from (or stray into) the
// aggregate set.
TEST(SmpCounterTest, AggregatesPartitionIntoPerHartCounters) {
  const auto build =
      BuildWorkload(workloads::RpcServerWorkload(200), core::Defense::kICall);
  for (const unsigned harts : {2u, 4u}) {
    const auto metrics = RunOnHarts(build, harts);
    std::map<std::string, std::uint64_t> aggregates;
    std::map<std::string, std::uint64_t> hart_sums;
    for (const auto& [name, value] : metrics.counters) {
      if (name.rfind("hart", 0) == 0) {
        const std::size_t dot = name.find('.');
        ASSERT_NE(dot, std::string::npos) << name;
        hart_sums[name.substr(dot + 1)] += value;
      } else if (name.rfind("cpu.", 0) == 0 || name.rfind("tlb.", 0) == 0 ||
                 name.rfind("cache.i.", 0) == 0 ||
                 name.rfind("cache.d.", 0) == 0) {
        aggregates[name] = value;
      }
    }
    EXPECT_GT(aggregates.count("tlb.keycheck.pass.1"), 0u);
    EXPECT_EQ(aggregates, hart_sums) << harts << " harts";
  }
}

TEST(SmpRpcScalingTest, InterleavingIsDeterministic) {
  const auto build =
      BuildWorkload(workloads::RpcServerWorkload(300), core::Defense::kVCall);
  const auto a = RunOnHarts(build, 2);
  const auto b = RunOnHarts(build, 2);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.counters, b.counters);
}

// --- The TLB-shootdown race. -------------------------------------------
//
// Hart 1 warms its dTLB with a key-5 read-only translation; hart 0 then
// re-keys the page to 7 via mprotect and signals. The next ld.ro on hart
// 1 goes through whatever translation its dTLB still holds: with the
// shootdown protocol the entry was remotely flushed, the re-walk sees key
// 7 and the machine kills the guest with a ROLoad violation on hart 1;
// with local-only sfence.vma semantics the stale key-5 entry still
// matches and the attack window stays open (the guest exits 42).
constexpr char kShootdownRaceGuest[] = R"(
.section .text
_start:
  bnez a0, hart1

hart0:
  la t0, sync
hart0_spin:
  ld t1, 0(t0)
  beqz t1, hart0_spin
  la a0, page
  li a1, 4096
  li a2, 0x70001        # PROT_READ | key 7 << 16
  li a7, 226
  ecall
  la t0, sync
  li t1, 1
  sd t1, 8(t0)
  li a0, 0
  li a7, 93
  ecall

hart1:
  la t0, page
  ld.ro t2, (t0), 5
  la t1, sync
  li t3, 1
  sd t3, 0(t1)
hart1_spin:
  ld t3, 8(t1)
  beqz t3, hart1_spin
  ld.ro t2, (t0), 5
  li a0, 42
  li a7, 93
  ecall

.section .data
sync:
  .quad 0
  .quad 0

.section .rodata.key.5
page:
  .quad 77
)";

TEST(SmpKernelTest, MultiHartMachineRunsOneProcess) {
  auto image = asmtool::Assemble(kShootdownRaceGuest);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  SystemConfig config;
  config.harts = 2;
  System machine(config);
  ASSERT_TRUE(machine.Load(*image).ok());
  EXPECT_FALSE(machine.kernel().LoadProcess(*image).ok());
}

kernel::RunResult RunRace(System* machine) {
  auto image = asmtool::Assemble(kShootdownRaceGuest);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  Status status = machine->Load(*image);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return machine->Run(1 << 22);
}

TEST(TlbShootdownTest, CrossHartRekeyFaultsTheNextKeyedLoad) {
  SystemConfig config;
  config.harts = 2;
  config.quantum = 100;  // tight interleave: the race window is real
  System machine(config);
  const kernel::RunResult result = RunRace(&machine);
  ASSERT_EQ(result.kind, kernel::ExitKind::kKilled);
  EXPECT_TRUE(result.roload_violation);
  EXPECT_EQ(result.hart, 1u);
  // The mprotect on hart 0 sent a remote flush that hart 1 received.
  EXPECT_GE(machine.kernel().stats().tlb_shootdowns, 1u);
  EXPECT_GE(machine.kernel().hart_state(1).shootdowns_received, 1u);
  EXPECT_EQ(machine.kernel().hart_state(0).shootdowns_received, 0u);
}

TEST(TlbShootdownTest, LocalOnlyFlushLeavesTheStaleTranslationLive) {
  SystemConfig config;
  config.harts = 2;
  config.quantum = 100;
  config.tlb_shootdown = false;  // the unsound kernel
  System machine(config);
  const kernel::RunResult result = RunRace(&machine);
  // The stale key-5 entry still matches on hart 1: the keyed load
  // succeeds against a page that is no longer key 5 — exactly the hole
  // the shootdown protocol closes.
  ASSERT_EQ(result.kind, kernel::ExitKind::kExited);
  EXPECT_EQ(result.exit_code, 42);
  EXPECT_FALSE(result.roload_violation);
  EXPECT_EQ(machine.kernel().stats().tlb_shootdowns, 0u);
}

// --- SMP audit attribution. --------------------------------------------

TEST(SmpAuditTest, AutopsyRecordsTheFaultingHart) {
  SystemConfig config;
  config.harts = 2;
  config.quantum = 100;
  config.trace.audit = true;
  System machine(config);
  const kernel::RunResult result = RunRace(&machine);
  ASSERT_EQ(result.kind, kernel::ExitKind::kKilled);
  ASSERT_NE(machine.audit(), nullptr);
  ASSERT_EQ(machine.audit()->autopsies().size(), 1u);
  const audit::Autopsy& autopsy = machine.audit()->autopsies()[0];
  EXPECT_EQ(autopsy.hart, 1u);
  EXPECT_TRUE(autopsy.roload_violation);
  EXPECT_EQ(autopsy.classification, "key-mismatch");
  EXPECT_TRUE(autopsy.inst_is_roload);
  EXPECT_EQ(autopsy.inst_key, 5u);
  EXPECT_EQ(autopsy.pte_key, 7u);
}

TEST(SmpAuditTest, CensusKeysSitesByHartAndPc) {
  const auto build =
      BuildWorkload(workloads::RpcServerWorkload(300), core::Defense::kVCall);
  SystemConfig config;
  config.harts = 2;
  config.trace.audit = true;
  System machine(config);
  ASSERT_TRUE(machine.Load(build.image).ok());
  const kernel::RunResult result = machine.Run(1ull << 30);
  ASSERT_EQ(result.kind, kernel::ExitKind::kExited);
  const audit::DispatchCensus& census = machine.audit()->census();
  // Both harts dispatched through keyed loads; the same pc executed from
  // both harts is two census rows.
  bool saw_hart0 = false, saw_hart1 = false;
  for (const auto& [key, site] : census.sites()) {
    EXPECT_EQ(key, audit::DispatchCensus::SiteKey(site.hart, site.pc));
    saw_hart0 |= site.hart == 0;
    saw_hart1 |= site.hart == 1;
  }
  EXPECT_TRUE(saw_hart0);
  EXPECT_TRUE(saw_hart1);
  // The per-key rollup reports the cross-hart spread.
  bool some_key_on_both_harts = false;
  for (const auto& [key, totals] : census.PerKey()) {
    EXPECT_GE(totals.harts, 1u);
    some_key_on_both_harts |= totals.harts >= 2;
  }
  EXPECT_TRUE(some_key_on_both_harts);
}

// --- Attacks under load. -----------------------------------------------

TEST(SmpAttackTest, VtableInjectionUnderLoadIsCaughtOnADispatchingHart) {
  // The victim serves on all four harts; the corruption lands while every
  // hart is mid-dispatch. VCall still blocks it, and the result names the
  // hart whose keyed vtable load caught it.
  auto result = sec::RunAttackSmp(sec::AttackKind::kVtableInjection,
                                  core::Defense::kVCall, /*harts=*/4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, sec::AttackOutcome::kBlocked);
  EXPECT_TRUE(result->roload_violation);
  EXPECT_TRUE(result->autopsy.has_value());
  EXPECT_EQ(result->harts, 4u);
  EXPECT_LT(result->hart, 4u);
}

TEST(SmpAttackTest, UndefendedHijackStillWorksUnderLoad) {
  auto result = sec::RunAttackSmp(sec::AttackKind::kFnPtrCorruptToEvil,
                                  core::Defense::kNone, /*harts=*/2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, sec::AttackOutcome::kHijacked);
  EXPECT_EQ(result->harts, 2u);
}

TEST(SmpAttackTest, InjectingFromHart3MatchesHart0Injection) {
  // The arbitrary write lands on shared memory whichever hart's debug port
  // carries it, so everything in the result but `inject_hart` (the verdict,
  // the catching hart, the autopsy, the counter snapshot) must not depend
  // on it.
  for (const auto& [kind, defense] :
       {std::pair{sec::AttackKind::kVtableInjection, core::Defense::kVCall},
        {sec::AttackKind::kFnPtrCorruptToEvil, core::Defense::kICall},
        {sec::AttackKind::kFnPtrReuseSameType, core::Defense::kICall}}) {
    const auto victim = sec::PrepareVictim(defense, /*harts=*/4);
    ASSERT_TRUE(victim.ok()) << victim.status().ToString();
    const auto h0 = sec::Attack(*victim, kind, /*inject_hart=*/0);
    const auto h3 = sec::Attack(*victim, kind, /*inject_hart=*/3);
    ASSERT_TRUE(h0.ok()) << h0.status().ToString();
    ASSERT_TRUE(h3.ok()) << h3.status().ToString();
    EXPECT_EQ(h3->inject_hart, 3u);
    sec::AttackResult h3_as_h0 = *h3;
    h3_as_h0.inject_hart = 0;
    EXPECT_TRUE(*h0 == h3_as_h0) << sec::AttackKindName(kind) << " under "
                                 << core::DefenseName(defense);
  }
}

TEST(SmpAttackTest, InjectHartOutOfRangeIsRejected) {
  const auto result = sec::RunAttackSmp(sec::AttackKind::kVtableInjection,
                                        core::Defense::kVCall, /*harts=*/2,
                                        core::SystemVariant::kFullRoload,
                                        /*inject_hart=*/2);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace roload::core
