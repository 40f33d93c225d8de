// Translation-tier tests (src/cpu/translate.h): the differential contract
// — translated execution is bit-identical to the reference interpreter in
// cycles, instructions, exit code and every registered counter — plus the
// deopt edges that make it so: the TLB-shootdown race, self-modifying
// code through the code-version guard, hot ld.ro key faults taken from
// inside a translated block, and the roload_fault.s kill contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "asmtool/assembler.h"
#include "core/system.h"
#include "core/toolchain.h"
#include "support/strings.h"
#include "tests/guest_util.h"
#include "workloads/spec_like.h"

namespace roload::cpu {
namespace {

core::BuildResult BuildWorkload(const workloads::WorkloadSpec& spec,
                                core::Defense defense) {
  core::BuildOptions options;
  options.defense = defense;
  auto build = core::Build(workloads::Generate(spec), options);
  EXPECT_TRUE(build.ok()) << build.status().ToString();
  return std::move(*build);
}

void ExpectIdenticalMetrics(const core::RunMetrics& reference,
                            const core::RunMetrics& translated,
                            const std::string& label) {
  EXPECT_EQ(reference.cycles, translated.cycles) << label;
  EXPECT_EQ(reference.instructions, translated.instructions) << label;
  EXPECT_EQ(reference.exit_code, translated.exit_code) << label;
  EXPECT_EQ(reference.completed, translated.completed) << label;
  // Every counter, by name and value — the strongest form of the claim.
  EXPECT_EQ(reference.counters, translated.counters) << label;
}

// --- The differential suite: workloads × defenses × harts. -------------

class TranslateDifferentialTest
    : public ::testing::TestWithParam<core::Defense> {};

TEST_P(TranslateDifferentialTest, MatchesReferenceInterpreterExactly) {
  const workloads::WorkloadSpec specs[] = {
      workloads::SpecCint2006Suite(0.04)[0],
      workloads::SpecCppSubset(0.04)[0],
  };
  for (const auto& spec : specs) {
    const auto build = BuildWorkload(spec, GetParam());
    const auto reference =
        core::RunBuild(build, core::SystemVariant::kFullRoload, 1ull << 34,
                       {}, cpu::ExecTier::kInterp);
    const auto translated =
        core::RunBuild(build, core::SystemVariant::kFullRoload, 1ull << 34,
                       {}, cpu::ExecTier::kTranslated);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_TRUE(translated.ok()) << translated.status().ToString();
    ExpectIdenticalMetrics(*reference, *translated, spec.name);
  }
}

TEST_P(TranslateDifferentialTest, MatchesReferenceAcrossHartCounts) {
  const auto build =
      BuildWorkload(workloads::RpcServerWorkload(200), GetParam());
  for (unsigned harts : {1u, 2u, 4u}) {
    const auto reference =
        core::RunBuild(build, core::SystemVariant::kFullRoload, 1ull << 34,
                       {}, cpu::ExecTier::kInterp, harts);
    const auto translated =
        core::RunBuild(build, core::SystemVariant::kFullRoload, 1ull << 34,
                       {}, cpu::ExecTier::kTranslated, harts);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_TRUE(translated.ok()) << translated.status().ToString();
    ExpectIdenticalMetrics(*reference, *translated,
                           "rpc_server/h" + std::to_string(harts));
  }
}

TEST_P(TranslateDifferentialTest, MatchesReferenceWithAuditTraceOn) {
  // With the audit layer attached, every executed ld.ro site emits a
  // roload_check event; the translated tier must produce the identical
  // stream (it routes traced ld.ro through the generic interpreter path).
  const auto build =
      BuildWorkload(workloads::SpecCppSubset(0.04)[0], GetParam());
  trace::TraceConfig trace;
  trace.audit = true;
  const auto reference =
      core::RunBuild(build, core::SystemVariant::kFullRoload, 1ull << 34,
                     trace, cpu::ExecTier::kInterp);
  const auto translated =
      core::RunBuild(build, core::SystemVariant::kFullRoload, 1ull << 34,
                     trace, cpu::ExecTier::kTranslated);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(translated.ok()) << translated.status().ToString();
  ExpectIdenticalMetrics(*reference, *translated, "audited");
}

INSTANTIATE_TEST_SUITE_P(Defenses, TranslateDifferentialTest,
                         ::testing::Values(core::Defense::kNone,
                                           core::Defense::kVCall,
                                           core::Defense::kICall),
                         [](const auto& info) {
                           return std::string(
                               core::DefenseName(info.param));
                         });

// --- The tier really engages (the differential is not vacuous). --------

TEST(TranslateTest, TranslatorBuildsChainsAndReplaysOnHotCode) {
  const auto build =
      BuildWorkload(workloads::SpecCppSubset(0.04)[0], core::Defense::kVCall);
  core::SystemConfig config;
  config.variant = core::SystemVariant::kFullRoload;
  cpu::SetExecTier(&config.cpu, cpu::ExecTier::kTranslated);
  core::System system(config);
  ASSERT_TRUE(system.Load(build.image).ok());
  const kernel::RunResult result = system.Run();
  ASSERT_EQ(result.kind, kernel::ExitKind::kExited);
  const cpu::TranslatorStats& stats = system.cpu().translator_stats();
  EXPECT_GT(stats.blocks_built, 0u);
  EXPECT_GT(stats.block_entries, 0u);
  EXPECT_GT(stats.chained_entries, 0u);
  EXPECT_GT(stats.ops_replayed, 0u);
  // Most retired instructions came from blocks, not the interpreter —
  // the speedup claim rests on this.
  EXPECT_GT(stats.ops_replayed, system.cpu().stats().instructions / 2);
}

TEST(TranslateTest, FlagOffNeverTranslates) {
  const auto build =
      BuildWorkload(workloads::SpecCppSubset(0.04)[0], core::Defense::kNone);
  core::System system(testing::ColdPathConfig());
  ASSERT_TRUE(system.Load(build.image).ok());
  (void)system.Run();
  EXPECT_FALSE(system.cpu().translation_enabled());
  EXPECT_EQ(system.cpu().translator_stats().blocks_built, 0u);
}

// --- D-TLB LRU order under mixed D-TLB and D-cache memo traffic. -------
//
// One hot block loads from pages 0, 1 and 2 on every iteration; the page-1
// load moves to a new line each time, so its D-cache memo misses between
// D-TLB memo hits. The 32-entry D-TLB must then stamp page 2 newer than
// page 1. After the loop, 31 fresh pages evict exactly two entries (pages
// 0 and 1), and the final load from page 2 hits. A block executor that
// stamps page 2 from a stale tick makes it look as old as page 0, evicts
// it instead of page 1, and pays one more 60-cycle walk.
constexpr char kDtlbLruGuest[] = R"(
.section .text
_start:
  la s1, pages
  li s0, 0
  li s2, 0
loop:
  ld t0, 0(s1)
  li t3, 4096
  add t4, s1, t3
  add t4, t4, s2
  ld t0, 0(t4)
  li t3, 8192
  add t5, s1, t3
  ld t0, 0(t5)
  addi s2, s2, 64
  addi s0, s0, 1
  li t6, 8
  bne s0, t6, loop
  li s3, 3
fresh:
  slli t0, s3, 12
  add t0, s1, t0
  ld t1, 0(t0)
  addi s3, s3, 1
  li t2, 34
  bne s3, t2, fresh
  li t0, 8192
  add t0, s1, t0
  ld t1, 0(t0)
  li a0, 0
  li a7, 93
  ecall

.section .data
.balign 4096
pages:
  .zero 143360
)";

TEST(TranslateTest, DtlbLruOrderMatchesReferenceAcrossMemoMisses) {
  core::SystemConfig reference_config;
  cpu::SetExecTier(&reference_config.cpu, cpu::ExecTier::kInterp);
  const testing::GuestRun reference =
      testing::RunGuest(kDtlbLruGuest, reference_config);
  ASSERT_EQ(reference.result.kind, kernel::ExitKind::kExited);

  core::SystemConfig config;
  cpu::SetExecTier(&config.cpu, cpu::ExecTier::kTranslated);
  const testing::GuestRun translated =
      testing::RunGuest(kDtlbLruGuest, config);
  ASSERT_EQ(translated.result.kind, kernel::ExitKind::kExited);
  ASSERT_GT(translated.system->cpu().translator_stats().ops_replayed, 0u);

  const cpu::Cpu& want = reference.system->cpu();
  const cpu::Cpu& got = translated.system->cpu();
  EXPECT_EQ(want.stats().cycles, got.stats().cycles);
  EXPECT_EQ(want.dtlb_stats().hits, got.dtlb_stats().hits);
  EXPECT_EQ(want.dtlb_stats().misses, got.dtlb_stats().misses);
  // 34 distinct data pages, each missed once: page 2's last load hits.
  EXPECT_EQ(want.dtlb_stats().misses, 34u);
  EXPECT_EQ(reference.system->trace().counters().Snapshot(),
            translated.system->trace().counters().Snapshot());
}

// --- The fetch-side batch around generic micro-ops. --------------------
//
// A block run replays its fetches as one batch: each I-cache line's final
// LRU tick is stamped while the run executes, and the hit counts, the
// I-TLB stamp and the fetch hints are committed once at the end. That is
// exact only while nothing inside the run touches the I-TLB or I-cache.
// The hot loop's first block holds both kinds of generic micro-op: an
// ld.ro (the kRoLoad event category is live, so it takes the reference
// path) on its first line, and an ecall (brk) as the last op of its
// second line. The machine has one 4-way set of 64-byte I-cache lines and
// a 4-entry I-TLB, while the guest spans five code pages and up to nine
// lines per iteration (cold callees of 1, 2, 3 and 5 lines, each on its
// own page), so LRU order decides every I-side eviction. A generic op
// that fetched through the I-cache inside the batch would double-count a
// hit or leave its line with a stale stamp, and the hits, misses and
// cycles below would differ from the interpreter's. (An in-batch I-TLB
// hit on the block's own page would leave no trace: the batch's final
// stamp lands on that same entry.)
std::string Repeat(const std::string& line, unsigned times) {
  std::string out;
  for (unsigned i = 0; i < times; ++i) out += line;
  return out;
}

std::string FetchPressureGuest() {
  const std::string pad = "  addi t0, t0, 1\n";
  // The loop head starts a line; the ld.ro is op 8 of 16 on the first
  // line and the ecall is op 16 of 16 on the second.
  std::string guest = R"(
.section .text
_start:
  li s0, 0
  la s1, table
  j loop
.balign 64
loop:
)";
  guest += Repeat(pad, 7) + "  ld.ro t1, (s1), 5\n  add t4, t4, t1\n";
  guest += Repeat(pad, 20) + "  li a0, 0\n  li a7, 214\n  ecall\n";
  guest += R"(  andi t2, s0, 3
  beqz t2, call0
  addi t2, t2, -1
  beqz t2, call1
  addi t2, t2, -1
  beqz t2, call2
  call f3
  j next
call0:
  call f0
  j next
call1:
  call f1
  j next
call2:
  call f2
next:
  addi s0, s0, 1
  li t3, 40
  bne s0, t3, loop
  andi a0, t4, 63
  li a7, 93
  ecall

.section .rodata.key.5
table:
  .quad 3
)";
  const unsigned callee_lines[] = {1, 2, 3, 5};
  for (unsigned k = 0; k < 4; ++k) {
    guest += StrFormat(".section .text.f%u\nf%u:\n", k, k) +
             Repeat(pad, 16 * callee_lines[k] - 1) + "  ret\n";
  }
  return guest;
}

core::SystemConfig FetchPressureConfig(cpu::ExecTier tier) {
  core::SystemConfig config;
  cpu::SetExecTier(&config.cpu, tier);
  config.cpu.icache.size_bytes = 256;  // one set of four 64-byte lines
  config.cpu.icache.ways = 4;
  config.cpu.itlb.entries = 4;
  config.trace.categories =
      trace::CategoryBit(trace::EventCategory::kRoLoad);
  return config;
}

TEST(TranslateTest, FetchBatchMatchesReferenceAroundGenericOps) {
  const std::string guest = FetchPressureGuest();
  const testing::GuestRun reference = testing::RunGuest(
      guest, FetchPressureConfig(cpu::ExecTier::kInterp));
  ASSERT_EQ(reference.result.kind, kernel::ExitKind::kExited);
  const testing::GuestRun translated = testing::RunGuest(
      guest, FetchPressureConfig(cpu::ExecTier::kTranslated));
  ASSERT_EQ(translated.result.kind, kernel::ExitKind::kExited);

  const cpu::Cpu& want = reference.system->cpu();
  const cpu::Cpu& got = translated.system->cpu();
  // Not vacuous: blocks ran, and both I-side structures evicted.
  EXPECT_GT(got.translator_stats().ops_replayed,
            want.stats().instructions / 4);
  EXPECT_GT(want.icache_stats().misses, 40u);
  EXPECT_GT(want.itlb_stats().misses, 6u);

  EXPECT_EQ(want.itlb_stats().hits, got.itlb_stats().hits);
  EXPECT_EQ(want.itlb_stats().misses, got.itlb_stats().misses);
  EXPECT_EQ(want.icache_stats().hits, got.icache_stats().hits);
  EXPECT_EQ(want.icache_stats().misses, got.icache_stats().misses);
  EXPECT_EQ(want.stats().cycles, got.stats().cycles);
  EXPECT_EQ(reference.system->trace().counters().Snapshot(),
            translated.system->trace().counters().Snapshot());
}

// --- Deopt edge: the TLB-shootdown race. -------------------------------
//
// The same guest as the test_smp shootdown race: hart 1 warms a key-5
// translation (and, here, translated blocks), hart 0 re-keys the page via
// mprotect and signals. The remote flush must invalidate hart 1's blocks
// along with its TLB, so the next ld.ro re-walks, sees key 7 and kills
// the guest — at the same cycle as the untranslated machine.
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

kernel::RunResult RunRace(core::System* machine) {
  auto image = asmtool::Assemble(kShootdownRaceGuest);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  Status status = machine->Load(*image);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return machine->Run(1 << 22);
}

TEST(TranslateTest, ShootdownRaceStillFaultsUnderTranslation) {
  core::SystemConfig config;
  config.harts = 2;
  config.quantum = 100;
  cpu::SetExecTier(&config.cpu, cpu::ExecTier::kTranslated);
  config.cpu.translate_threshold = 1;  // spin loops translate immediately
  core::System machine(config);
  const kernel::RunResult translated = RunRace(&machine);
  ASSERT_EQ(translated.kind, kernel::ExitKind::kKilled);
  EXPECT_TRUE(translated.roload_violation);
  EXPECT_EQ(translated.hart, 1u);
  EXPECT_GE(machine.kernel().hart_state(1).shootdowns_received, 1u);

  // And cycle-for-cycle equal to the untranslated machine.
  core::SystemConfig reference_config;
  reference_config.harts = 2;
  reference_config.quantum = 100;
  cpu::SetExecTier(&reference_config.cpu, cpu::ExecTier::kInterp);
  core::System reference(reference_config);
  const kernel::RunResult interp = RunRace(&reference);
  ASSERT_EQ(interp.kind, kernel::ExitKind::kKilled);
  EXPECT_EQ(interp.hart, translated.hart);
  EXPECT_EQ(interp.fault_pc, translated.fault_pc);
  for (unsigned hart = 0; hart < 2; ++hart) {
    EXPECT_EQ(reference.cpu(hart).stats().cycles,
              machine.cpu(hart).stats().cycles);
    EXPECT_EQ(reference.cpu(hart).stats().instructions,
              machine.cpu(hart).stats().instructions);
  }
}

// --- Deopt edge: self-modifying code. ----------------------------------
//
// A hot callee is patched mid-run: the guest makes its own code page
// writable, copies the donor routine's bytes over the target routine, and
// keeps calling it. The store barrier (CodeVersionTable::OnWrite) must
// fail the version guard of the stale block so post-patch calls execute
// the new bytes. target/donor live in their own executable sections with
// identical layout, so the 8-byte copy is valid whatever the encoding.
constexpr char kSelfModifyingGuest[] = R"(
.section .text
_start:
  li s0, 0              # iteration
  li s1, 0              # accumulator
loop:
  call target
  add s1, s1, a0
  addi s0, s0, 1
  li t0, 3
  bne s0, t0, no_patch
  la a0, target
  li a1, 4096
  li a2, 0x7            # PROT_READ|WRITE|EXEC: open the code page
  li a7, 226
  ecall
  la t1, donor
  ld t2, 0(t1)
  la t3, target
  sd t2, 0(t3)          # target now returns 9
no_patch:
  li t0, 6
  bne s0, t0, loop
  mv a0, s1
  li a7, 93
  ecall

.section .text.target
target:
  li a0, 5
  ret
  .quad 0

.section .text.donor
donor:
  li a0, 9
  ret
  .quad 0
)";

TEST(TranslateTest, SelfModifiedCodeDeoptsAndMatchesReference) {
  // 3 pre-patch calls return 5, 3 post-patch calls return 9.
  constexpr std::int64_t kExpected = 3 * 5 + 3 * 9;

  core::SystemConfig reference_config;
  cpu::SetExecTier(&reference_config.cpu, cpu::ExecTier::kInterp);
  const testing::GuestRun reference =
      testing::RunGuest(kSelfModifyingGuest, reference_config);
  ASSERT_EQ(reference.result.kind, kernel::ExitKind::kExited);
  ASSERT_EQ(reference.result.exit_code, kExpected);

  core::SystemConfig config;
  cpu::SetExecTier(&config.cpu, cpu::ExecTier::kTranslated);
  config.cpu.translate_threshold = 1;  // translate the short loop at once
  const testing::GuestRun translated =
      testing::RunGuest(kSelfModifyingGuest, config);
  ASSERT_EQ(translated.result.kind, kernel::ExitKind::kExited);
  EXPECT_EQ(translated.result.exit_code, kExpected);
  EXPECT_EQ(reference.system->cpu().stats().cycles,
            translated.system->cpu().stats().cycles);
  EXPECT_EQ(reference.system->cpu().stats().instructions,
            translated.system->cpu().stats().instructions);
  // The patched routine's block really was built and then thrown away.
  const cpu::TranslatorStats& stats =
      translated.system->cpu().translator_stats();
  EXPECT_GT(stats.blocks_built, 0u);
  EXPECT_GT(stats.blocks_retired + stats.invalidations, 0u);
}

// --- Deopt edge: hot ld.ro key fault inside a translated block. --------
//
// The loop's keyed load succeeds 50 times (long past any threshold), then
// the page is re-keyed; the next iteration's ld.ro — at the already-
// translated site — must take the key-mismatch fault and kill the guest
// exactly like the interpreter.
constexpr char kHotRoLoadFaultGuest[] = R"(
.section .text
_start:
  li s0, 0
loop:
  la t0, secret
  ld.ro t1, (t0), 5
  addi s0, s0, 1
  li t2, 50
  beq s0, t2, rekey
  j check
rekey:
  la a0, secret
  li a1, 4096
  li a2, 0x90001        # PROT_READ | key 9 << 16
  li a7, 226
  ecall
check:
  li t2, 60
  bne s0, t2, loop
  li a0, 0
  li a7, 93
  ecall

.section .rodata.key.5
secret:
  .quad 7
)";

TEST(TranslateTest, HotRoLoadKeyFaultKillsIdenticallyToReference) {
  core::SystemConfig reference_config;
  cpu::SetExecTier(&reference_config.cpu, cpu::ExecTier::kInterp);
  const testing::GuestRun reference =
      testing::RunGuest(kHotRoLoadFaultGuest, reference_config);
  ASSERT_EQ(reference.result.kind, kernel::ExitKind::kKilled);
  EXPECT_TRUE(reference.result.roload_violation);

  core::SystemConfig config;
  cpu::SetExecTier(&config.cpu, cpu::ExecTier::kTranslated);
  const testing::GuestRun translated =
      testing::RunGuest(kHotRoLoadFaultGuest, config);
  ASSERT_EQ(translated.result.kind, kernel::ExitKind::kKilled);
  EXPECT_TRUE(translated.result.roload_violation);
  EXPECT_EQ(reference.result.fault_pc, translated.result.fault_pc);
  EXPECT_EQ(reference.system->cpu().stats().cycles,
            translated.system->cpu().stats().cycles);
  EXPECT_EQ(reference.system->cpu().stats().instructions,
            translated.system->cpu().stats().instructions);
  EXPECT_GT(translated.system->cpu().translator_stats().blocks_built, 0u);
}

// --- The roload_fault.s kill contract under translation. ---------------

TEST(TranslateTest, RoLoadFaultFixtureKillsUnderEagerTranslation) {
  std::ifstream file(std::string(ROLOAD_TESTS_DATA_DIR) +
                     "/roload_fault.s");
  ASSERT_TRUE(file.is_open());
  std::stringstream source;
  source << file.rdbuf();

  core::SystemConfig config;
  cpu::SetExecTier(&config.cpu, cpu::ExecTier::kTranslated);
  // Eager translation puts the one-shot faulting ld.ro inside a block, so
  // the kill goes through the block executor's inline ld.ro fault path
  // (the rrun exit-99 cmake test covers the default-threshold path).
  config.cpu.translate_threshold = 1;
  const testing::GuestRun translated = testing::RunGuest(source.str(),
                                                         config);
  ASSERT_EQ(translated.result.kind, kernel::ExitKind::kKilled);
  EXPECT_TRUE(translated.result.roload_violation);

  core::SystemConfig reference_config;
  cpu::SetExecTier(&reference_config.cpu, cpu::ExecTier::kInterp);
  const testing::GuestRun reference = testing::RunGuest(source.str(),
                                                        reference_config);
  ASSERT_EQ(reference.result.kind, kernel::ExitKind::kKilled);
  EXPECT_EQ(reference.result.fault_pc, translated.result.fault_pc);
  EXPECT_EQ(reference.system->cpu().stats().cycles,
            translated.system->cpu().stats().cycles);
}

}  // namespace
}  // namespace roload::cpu
