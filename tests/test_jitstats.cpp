// Translation-tier introspection tests (src/trace/jitstats.h): the
// jit-stats-on differential (collection must not perturb the simulated
// machine), the deopt-attribution invariant (per-reason counts sum to the
// guard-fail total, with every bucket reachable), the hot/cold census
// partition, the roload.jit.v1 JSON schema, and the profiler-bucket sum
// contract under the translated tier — single-hart and SMP.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.h"
#include "core/toolchain.h"
#include "support/json_parse.h"
#include "tests/guest_util.h"
#include "trace/jitstats.h"
#include "workloads/spec_like.h"

namespace roload::trace {
namespace {

core::BuildResult BuildWorkload(const workloads::WorkloadSpec& spec,
                                core::Defense defense) {
  core::BuildOptions options;
  options.defense = defense;
  auto build = core::Build(workloads::Generate(spec), options);
  EXPECT_TRUE(build.ok()) << build.status().ToString();
  return std::move(*build);
}

// --- Collection is free: jit-stats-on is bit-identical to off. ---------

TEST(JitStatsTest, StatsOnIsBitIdenticalToStatsOff) {
  const auto build =
      BuildWorkload(workloads::SpecCppSubset(0.04)[0], core::Defense::kVCall);
  trace::TraceConfig with_jit;
  with_jit.jit = true;
  const auto off =
      core::RunBuild(build, core::SystemVariant::kFullRoload, 1ull << 34,
                     {}, cpu::ExecTier::kTranslated);
  const auto on =
      core::RunBuild(build, core::SystemVariant::kFullRoload, 1ull << 34,
                     with_jit, cpu::ExecTier::kTranslated);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_EQ(off->cycles, on->cycles);
  EXPECT_EQ(off->instructions, on->instructions);
  EXPECT_EQ(off->exit_code, on->exit_code);
  EXPECT_EQ(off->completed, on->completed);
  // Every registered counter, by name and value: the telemetry lives
  // entirely outside the registry snapshot.
  EXPECT_EQ(off->counters, on->counters);
  // And the differential is not vacuous: the jit run actually collected.
  EXPECT_TRUE(off->jit_counters.empty());
  EXPECT_FALSE(on->jit_counters.empty());
}

TEST(JitStatsTest, StatsOnIsBitIdenticalToStatsOffUnderSmp) {
  const auto build =
      BuildWorkload(workloads::RpcServerWorkload(200), core::Defense::kVCall);
  trace::TraceConfig with_jit;
  with_jit.jit = true;
  const auto off =
      core::RunBuild(build, core::SystemVariant::kFullRoload, 1ull << 34, {},
                     cpu::ExecTier::kTranslated, /*harts=*/2);
  const auto on =
      core::RunBuild(build, core::SystemVariant::kFullRoload, 1ull << 34,
                     with_jit, cpu::ExecTier::kTranslated, /*harts=*/2);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_EQ(off->cycles, on->cycles);
  EXPECT_EQ(off->instructions, on->instructions);
  EXPECT_EQ(off->counters, on->counters);
  EXPECT_FALSE(on->jit_counters.empty());
}

// --- Deopt attribution: every guard fail lands in exactly one bucket. --

std::uint64_t DeoptSum(const JitReport& report) {
  std::uint64_t sum = 0;
  for (std::size_t r = 0; r < kNumDeoptReasons; ++r) sum += report.deopt[r];
  return sum;
}

// A hot callee patched mid-run: the code-version guard must fail, so the
// run is guaranteed at least one deopt and the code_version bucket is
// exercised (the invariant would otherwise hold vacuously at 0 == 0).
// The mprotect happens up front: done mid-loop it would flush the TLBs
// and with them every block (InvalidateAll), and the patch would land
// while no stale block exists to fail its guard.
constexpr char kPatchedCalleeGuest[] = R"(
.section .text
_start:
  la a0, target
  li a1, 4096
  li a2, 0x7            # PROT_READ|WRITE|EXEC: open the code page early
  li a7, 226
  ecall
  li s0, 0
  li s1, 0
loop:
  call target
  add s1, s1, a0
  addi s0, s0, 1
  li t0, 3
  bne s0, t0, no_patch
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

TEST(JitStatsTest, DeoptReasonsSumToGuardFails) {
  core::SystemConfig config;
  cpu::SetExecTier(&config.cpu, cpu::ExecTier::kTranslated);
  config.cpu.translate_threshold = 1;
  config.cpu.jit_stats = true;
  const testing::GuestRun run =
      testing::RunGuest(kPatchedCalleeGuest, config);
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kExited);
  EXPECT_EQ(run.result.exit_code, 3 * 5 + 3 * 9);  // the patch took effect

  JitReport report;
  run.system->cpu().AppendJitReport(&report);
  FinalizeJitReport(&report);
  EXPECT_GT(report.guard_fails, 0u);
  EXPECT_EQ(DeoptSum(report), report.guard_fails);
  EXPECT_GT(
      report.deopt[static_cast<std::size_t>(DeoptReason::kCodeVersion)], 0u);
}

TEST(JitStatsTest, DeoptReasonsSumToGuardFailsOnRealWorkload) {
  // The full cpp workload at default thresholds: whatever mix of deopts
  // it takes, the attribution must still account for every guard fail.
  const auto build =
      BuildWorkload(workloads::SpecCppSubset(0.04)[0], core::Defense::kICall);
  core::SystemConfig config;
  config.variant = core::SystemVariant::kFullRoload;
  cpu::SetExecTier(&config.cpu, cpu::ExecTier::kTranslated);
  config.cpu.jit_stats = true;
  core::System system(config);
  ASSERT_TRUE(system.Load(build.image).ok());
  const kernel::RunResult result = system.Run();
  ASSERT_EQ(result.kind, kernel::ExitKind::kExited);

  JitReport report;
  system.cpu().AppendJitReport(&report);
  FinalizeJitReport(&report);
  EXPECT_EQ(DeoptSum(report), report.guard_fails);
}

// --- The census partitions retired instructions exactly. ---------------

TEST(JitStatsTest, CensusPartitionsRetiredInstructions) {
  const auto build =
      BuildWorkload(workloads::SpecCppSubset(0.04)[0], core::Defense::kVCall);
  core::SystemConfig config;
  config.variant = core::SystemVariant::kFullRoload;
  cpu::SetExecTier(&config.cpu, cpu::ExecTier::kTranslated);
  config.cpu.jit_stats = true;
  core::System system(config);
  ASSERT_TRUE(system.Load(build.image).ok());
  const kernel::RunResult result = system.Run();
  ASSERT_EQ(result.kind, kernel::ExitKind::kExited);

  JitReport report;
  system.cpu().AppendJitReport(&report);
  FinalizeJitReport(&report);
  ASSERT_TRUE(report.finalized);
  EXPECT_EQ(report.total_instructions, system.cpu().stats().instructions);
  // hot + cold is the whole run; cold = interpreter residue + one-shots.
  EXPECT_EQ(report.hot_instructions + report.cold_instructions,
            report.total_instructions);
  EXPECT_EQ(report.cold_instructions,
            report.interpreted_instructions + report.one_shot_replayed);
  // Per-block rows were collected and agree with the one-shot census.
  ASSERT_FALSE(report.blocks.empty());
  std::uint64_t one_shot_blocks = 0, one_shot_replayed = 0, replayed = 0;
  for (const JitBlockRow& row : report.blocks) {
    if (row.entries <= 1) {
      ++one_shot_blocks;
      one_shot_replayed += row.replayed;
    }
    replayed += row.replayed;
  }
  // Kept rows can only undercount one-shots (the folded tail may hold more).
  EXPECT_LE(one_shot_blocks, report.one_shot_blocks);
  if (report.omitted_blocks == 0) {
    EXPECT_EQ(one_shot_blocks, report.one_shot_blocks);
    EXPECT_EQ(one_shot_replayed, report.one_shot_replayed);
    EXPECT_EQ(replayed, report.ops_replayed);
  }
  // Rows arrive sorted by replayed descending.
  for (std::size_t i = 1; i < report.blocks.size(); ++i) {
    EXPECT_GE(report.blocks[i - 1].replayed, report.blocks[i].replayed);
  }
}

// --- The exported JSON is real JSON with the pinned schema. ------------

TEST(JitStatsTest, ExportedJsonParsesWithSchemaAndTaxonomy) {
  const auto build =
      BuildWorkload(workloads::SpecCppSubset(0.04)[0], core::Defense::kVCall);
  core::SystemConfig config;
  config.variant = core::SystemVariant::kFullRoload;
  cpu::SetExecTier(&config.cpu, cpu::ExecTier::kTranslated);
  config.cpu.jit_stats = true;
  core::System system(config);
  ASSERT_TRUE(system.Load(build.image).ok());
  (void)system.Run();

  JitReport report;
  system.cpu().AppendJitReport(&report);
  FinalizeJitReport(&report);
  const auto parsed = ParseJson(ExportJitJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const JsonValue* schema = parsed->Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "roload.jit.v1");
  const JsonValue* deopt = parsed->Find("deopt");
  ASSERT_NE(deopt, nullptr);
  ASSERT_TRUE(deopt->is_object());
  EXPECT_EQ(deopt->object.size(), kNumDeoptReasons);
  double deopt_sum = 0;
  for (const auto& [reason, count] : deopt->object) deopt_sum += count.number;
  const JsonValue* totals = parsed->Find("totals");
  ASSERT_NE(totals, nullptr);
  const JsonValue* guard_fails = totals->Find("guard_fails");
  ASSERT_NE(guard_fails, nullptr);
  EXPECT_EQ(deopt_sum, guard_fails->number);
  const JsonValue* census = parsed->Find("census");
  ASSERT_NE(census, nullptr);
  ASSERT_TRUE(census->is_object());
  EXPECT_NE(census->Find("cold_instructions"), nullptr);
  EXPECT_NE(census->Find("hot_instructions"), nullptr);
  const JsonValue* blocks = parsed->Find("blocks");
  ASSERT_NE(blocks, nullptr);
  EXPECT_TRUE(blocks->is_array());
  EXPECT_EQ(blocks->array.size(), report.blocks.size());

  // The human report names the taxonomy.
  const std::string text = ExportJitText(report);
  EXPECT_NE(text.find("== translation tier =="), std::string::npos);
  for (const char* reason : {"stale_block", "itlb_miss", "page_remap",
                             "code_version", "icache_line"}) {
    EXPECT_NE(text.find(reason), std::string::npos) << reason;
  }
}

// --- jit.* counter pairs agree with the report (campaign aggregation). -

TEST(JitStatsTest, JitCounterPairsCarryTheTaxonomyAndCensus) {
  const auto build =
      BuildWorkload(workloads::SpecCppSubset(0.04)[0], core::Defense::kVCall);
  trace::TraceConfig with_jit;
  with_jit.jit = true;
  const auto metrics =
      core::RunBuild(build, core::SystemVariant::kFullRoload, 1ull << 34,
                     with_jit, cpu::ExecTier::kTranslated);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  auto find = [&](std::string_view name) -> std::uint64_t {
    for (const auto& [key, value] : metrics->jit_counters) {
      if (key == name) return value;
    }
    ADD_FAILURE() << "missing jit counter " << name;
    return 0;
  };
  std::uint64_t deopt_sum = 0;
  for (const char* reason : {"stale_block", "itlb_miss", "page_remap",
                             "code_version", "icache_line"}) {
    deopt_sum += find(std::string("jit.deopt.") + reason);
  }
  EXPECT_EQ(deopt_sum, find("jit.guard_fails"));
  EXPECT_GT(find("jit.blocks_built"), 0u);
  EXPECT_GT(find("jit.ops_replayed"), 0u);
  EXPECT_EQ(find("jit.hot_instructions") + find("jit.cold_instructions"),
            metrics->instructions);
}

// --- Profiler buckets still sum to cpu.cycles under translation. -------

std::uint64_t ProfileSum(const core::RunMetrics& metrics) {
  std::uint64_t sum = 0;
  for (const auto& [bucket, cycles] : metrics.profile) sum += cycles;
  return sum;
}

TEST(JitStatsTest, ProfileBucketsSumToCyclesUnderTranslation) {
  const auto build =
      BuildWorkload(workloads::SpecCppSubset(0.04)[0], core::Defense::kVCall);
  trace::TraceConfig trace;
  trace.profile = true;
  const auto metrics =
      core::RunBuild(build, core::SystemVariant::kFullRoload, 1ull << 34,
                     trace, cpu::ExecTier::kTranslated);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_FALSE(metrics->profile.empty());
  EXPECT_EQ(ProfileSum(*metrics), metrics->cycles);
  EXPECT_EQ(ProfileSum(*metrics), metrics->Counter("cpu.cycles"));
}

TEST(JitStatsTest, ProfileBucketsSumToCyclesUnderSmpTranslation) {
  const auto build =
      BuildWorkload(workloads::RpcServerWorkload(200), core::Defense::kVCall);
  trace::TraceConfig trace;
  trace.profile = true;
  const auto metrics =
      core::RunBuild(build, core::SystemVariant::kFullRoload, 1ull << 34,
                     trace, cpu::ExecTier::kTranslated, /*harts=*/4);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_FALSE(metrics->profile.empty());
  // RunMetrics::cycles is the parallel wall-clock (max over harts); the
  // shared profiler charges every hart's cycle, so the buckets sum to the
  // aggregate "cpu.cycles" counter (the per-hart sum).
  EXPECT_EQ(ProfileSum(*metrics), metrics->Counter("cpu.cycles"));
  EXPECT_GE(ProfileSum(*metrics), metrics->cycles);
}

}  // namespace
}  // namespace roload::trace
