// Campaign runner tests: grid expansion order and naming, strict
// environment / grid parsing, the parallel executor's determinism
// contract (--jobs N bit-identical to --jobs 1), failure isolation, and
// the merged roload.campaign.v1 telemetry.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "campaign/env.h"
#include "campaign/grid.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "support/rng.h"
#include "trace/session.h"

namespace roload {
namespace {

campaign::CampaignSpec TinyCppGrid(double scale = 0.05) {
  campaign::CampaignSpec spec;
  spec.name = "test";
  spec.workloads = workloads::SpecCppSubset(scale);
  spec.configs = {campaign::ForDefense(core::Defense::kNone),
                  campaign::ForDefense(core::Defense::kVCall)};
  return spec;
}

// ---------------------------------------------------------------------------
// Spec expansion.

TEST(CampaignSpecTest, ExpandIsWorkloadMajorAndNamed) {
  campaign::CampaignSpec spec = TinyCppGrid();
  spec.variants = {core::SystemVariant::kBaseline,
                   core::SystemVariant::kFullRoload};
  const auto runs = campaign::Expand(spec);
  ASSERT_EQ(runs.size(), spec.workloads.size() * 2 * 2);
  // Workload-major, then config, then variant — the old serial loop order.
  EXPECT_EQ(runs[0].name, spec.workloads[0].name + "/none/baseline");
  EXPECT_EQ(runs[1].name, spec.workloads[0].name + "/none/full");
  EXPECT_EQ(runs[2].name, spec.workloads[0].name + "/VCall/baseline");
  EXPECT_EQ(runs[3].name, spec.workloads[0].name + "/VCall/full");
  EXPECT_EQ(runs[4].name, spec.workloads[1].name + "/none/baseline");
  // Names are unique.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t j = i + 1; j < runs.size(); ++j) {
      EXPECT_NE(runs[i].name, runs[j].name);
    }
  }
}

TEST(CampaignSpecTest, ExpandIsDeterministic) {
  const campaign::CampaignSpec spec = TinyCppGrid();
  const auto a = campaign::Expand(spec);
  const auto b = campaign::Expand(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].workload.seed, b[i].workload.seed);
  }
}

TEST(CampaignSpecTest, ZeroSeedKeepsWorkloadSeeds) {
  const campaign::CampaignSpec spec = TinyCppGrid();
  const auto runs = campaign::Expand(spec);
  // seed == 0 (the default) must leave every workload's own seed intact —
  // this is what keeps the committed figure tables bit-identical.
  for (const auto& run : runs) {
    bool found = false;
    for (const auto& wl : spec.workloads) {
      if (wl.name == run.workload.name) {
        EXPECT_EQ(run.workload.seed, wl.seed);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(CampaignSpecTest, NonzeroSeedDerivesDistinctPerRunSeeds) {
  // The seed is per program: every run of the i-th workload entry gets
  // DeriveSeed(seed, i), whatever its config, and runs of different
  // entries get different seeds.
  campaign::CampaignSpec spec = TinyCppGrid();
  spec.seed = 1234;
  const auto runs = campaign::Expand(spec);
  const std::size_t runs_per_workload = spec.configs.size();
  ASSERT_EQ(runs.size(), spec.workloads.size() * runs_per_workload);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].workload.seed, DeriveSeed(1234, i / runs_per_workload));
    for (std::size_t j = i + 1; j < runs.size(); ++j) {
      if (runs[i].workload.name != runs[j].workload.name) {
        EXPECT_NE(runs[i].workload.seed, runs[j].workload.seed);
      }
    }
  }
}

TEST(CampaignSpecTest, VariantAndDefenseNamesRoundTrip) {
  for (core::SystemVariant variant :
       {core::SystemVariant::kBaseline, core::SystemVariant::kProcessorModified,
        core::SystemVariant::kFullRoload}) {
    core::SystemVariant parsed;
    ASSERT_TRUE(campaign::ParseVariant(campaign::VariantName(variant),
                                       &parsed));
    EXPECT_EQ(parsed, variant);
  }
  core::SystemVariant variant;
  EXPECT_FALSE(campaign::ParseVariant("turbo", &variant));
  for (core::Defense defense : core::kAllDefenses) {
    core::Defense parsed;
    ASSERT_TRUE(campaign::ParseDefense(core::DefenseName(defense), &parsed));
    EXPECT_EQ(parsed, defense);
  }
  core::Defense defense;
  EXPECT_FALSE(campaign::ParseDefense("vcall", &defense));  // case-sensitive
}

// ---------------------------------------------------------------------------
// Strict env parsing (the std::atof regression).

TEST(CampaignEnvTest, ParseScaleAcceptsPositiveFinite) {
  EXPECT_EQ(campaign::ParseScale("0.5"), 0.5);
  EXPECT_EQ(campaign::ParseScale("2"), 2.0);
  EXPECT_EQ(campaign::ParseScale("1e-3"), 1e-3);
}

TEST(CampaignEnvTest, ParseScaleRejectsGarbage) {
  EXPECT_FALSE(campaign::ParseScale("fast").has_value());  // the old bug
  EXPECT_FALSE(campaign::ParseScale("0.5x").has_value());
  EXPECT_FALSE(campaign::ParseScale("").has_value());
  EXPECT_FALSE(campaign::ParseScale("0").has_value());
  EXPECT_FALSE(campaign::ParseScale("-1").has_value());
  EXPECT_FALSE(campaign::ParseScale("inf").has_value());
  EXPECT_FALSE(campaign::ParseScale("nan").has_value());
}

TEST(CampaignEnvTest, ParseSwitch) {
  EXPECT_EQ(campaign::ParseSwitch("1"), true);
  EXPECT_EQ(campaign::ParseSwitch("true"), true);
  EXPECT_EQ(campaign::ParseSwitch("on"), true);
  EXPECT_EQ(campaign::ParseSwitch("yes"), true);
  EXPECT_EQ(campaign::ParseSwitch("0"), false);
  EXPECT_EQ(campaign::ParseSwitch("false"), false);
  EXPECT_EQ(campaign::ParseSwitch("off"), false);
  EXPECT_EQ(campaign::ParseSwitch("no"), false);
  EXPECT_EQ(campaign::ParseSwitch(""), false);
  EXPECT_FALSE(campaign::ParseSwitch("maybe").has_value());
  EXPECT_FALSE(campaign::ParseSwitch("2").has_value());
}

TEST(CampaignEnvTest, ParseRepeats) {
  EXPECT_EQ(campaign::ParseRepeats("1"), 1u);
  EXPECT_EQ(campaign::ParseRepeats("5"), 5u);
  EXPECT_EQ(campaign::ParseRepeats("99"), 99u);
  EXPECT_FALSE(campaign::ParseRepeats("0").has_value());  // no measurement
  EXPECT_FALSE(campaign::ParseRepeats("100").has_value());
  EXPECT_FALSE(campaign::ParseRepeats("three").has_value());
  EXPECT_FALSE(campaign::ParseRepeats("3x").has_value());
  EXPECT_FALSE(campaign::ParseRepeats("").has_value());
  EXPECT_FALSE(campaign::ParseRepeats("-2").has_value());
}

TEST(CampaignEnvTest, RepeatsFromEnvFallsBackOnGarbage) {
  ::setenv("ROLOAD_BENCH_REPEATS", "lots", 1);
  EXPECT_EQ(campaign::RepeatsFromEnv(2), 2u);  // warned, kept the default
  ::setenv("ROLOAD_BENCH_REPEATS", "7", 1);
  EXPECT_EQ(campaign::RepeatsFromEnv(2), 7u);
  ::unsetenv("ROLOAD_BENCH_REPEATS");
  EXPECT_EQ(campaign::RepeatsFromEnv(2), 2u);
}

TEST(CampaignEnvTest, ParseJobs) {
  EXPECT_EQ(campaign::ParseJobs("0"), 0u);   // auto
  EXPECT_EQ(campaign::ParseJobs("4"), 4u);
  EXPECT_FALSE(campaign::ParseJobs("four").has_value());
  EXPECT_FALSE(campaign::ParseJobs("4x").has_value());
  EXPECT_FALSE(campaign::ParseJobs("").has_value());
  EXPECT_FALSE(campaign::ParseJobs("9999").has_value());  // > 1024
}

TEST(CampaignEnvTest, ScaleFromEnvFallsBackOnGarbage) {
  ::setenv("ROLOAD_BENCH_SCALE", "fast", 1);
  EXPECT_EQ(campaign::ScaleFromEnv(0.7), 0.7);  // warned, kept the default
  ::setenv("ROLOAD_BENCH_SCALE", "0.25", 1);
  EXPECT_EQ(campaign::ScaleFromEnv(0.7), 0.25);
  ::unsetenv("ROLOAD_BENCH_SCALE");
  EXPECT_EQ(campaign::ScaleFromEnv(0.7), 0.7);
}

TEST(CampaignEnvTest, JobsFromEnvFallsBackOnGarbage) {
  ::setenv("ROLOAD_BENCH_JOBS", "many", 1);
  EXPECT_EQ(campaign::JobsFromEnv(3), 3u);
  ::setenv("ROLOAD_BENCH_JOBS", "2", 1);
  EXPECT_EQ(campaign::JobsFromEnv(3), 2u);
  ::unsetenv("ROLOAD_BENCH_JOBS");
  EXPECT_EQ(campaign::JobsFromEnv(3), 3u);
}

// ---------------------------------------------------------------------------
// Grid parsing.

TEST(CampaignGridTest, ParsesFullGrid) {
  campaign::CampaignSpec spec;
  ASSERT_TRUE(campaign::ParseGrid(
                  "workloads=cpp;defenses=none,VCall,VTint;"
                  "variants=baseline,full;scale=0.1;seed=9;profile=1",
                  0.5, &spec)
                  .ok());
  EXPECT_EQ(spec.workloads.size(), 3u);  // the C++ subset
  ASSERT_EQ(spec.configs.size(), 3u);
  EXPECT_EQ(spec.configs[0].label, "none");
  EXPECT_EQ(spec.configs[1].label, "VCall");
  ASSERT_EQ(spec.variants.size(), 2u);
  EXPECT_EQ(spec.variants[0], core::SystemVariant::kBaseline);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_TRUE(spec.profile);
}

TEST(CampaignGridTest, ParsesJitSwitch) {
  campaign::CampaignSpec spec;
  ASSERT_TRUE(
      campaign::ParseGrid("workloads=cpp;jit=1", 0.5, &spec).ok());
  EXPECT_TRUE(spec.jit);
  campaign::CampaignSpec off;
  ASSERT_TRUE(campaign::ParseGrid("workloads=cpp;jit=0", 0.5, &off).ok());
  EXPECT_FALSE(off.jit);
  campaign::CampaignSpec bad;
  EXPECT_FALSE(campaign::ParseGrid("jit=maybe", 0.5, &bad).ok());
}

TEST(CampaignGridTest, EmptyGridIsFullSuiteUnhardened) {
  campaign::CampaignSpec spec;
  ASSERT_TRUE(campaign::ParseGrid("", 0.5, &spec).ok());
  EXPECT_EQ(spec.workloads.size(),
            workloads::SpecCint2006Suite(0.5).size());
  ASSERT_EQ(spec.configs.size(), 1u);
  EXPECT_EQ(spec.configs[0].label, "none");
}

TEST(CampaignGridTest, RejectsUnknownTokens) {
  campaign::CampaignSpec spec;
  EXPECT_FALSE(campaign::ParseGrid("bogus=1", 0.5, &spec).ok());
  EXPECT_FALSE(campaign::ParseGrid("defenses=Turbo", 0.5, &spec).ok());
  EXPECT_FALSE(campaign::ParseGrid("workloads=nope_like", 0.5, &spec).ok());
  EXPECT_FALSE(campaign::ParseGrid("variants=quantum", 0.5, &spec).ok());
  EXPECT_FALSE(campaign::ParseGrid("scale=fast", 0.5, &spec).ok());
  EXPECT_FALSE(campaign::ParseGrid("seed=x", 0.5, &spec).ok());
  EXPECT_FALSE(campaign::ParseGrid("seed=-1", 0.5, &spec).ok());
  EXPECT_FALSE(campaign::ParseGrid("max-instructions=-1", 0.5, &spec).ok());
  EXPECT_FALSE(campaign::ParseGrid("exec=fast", 0.5, &spec).ok());
  EXPECT_FALSE(campaign::ParseGrid("notkeyvalue", 0.5, &spec).ok());
}

// ---------------------------------------------------------------------------
// Executor: determinism, ordering, failure isolation.

TEST(CampaignRunnerTest, ResolveJobs) {
  EXPECT_EQ(campaign::ResolveJobs(4, 100), 4u);
  EXPECT_EQ(campaign::ResolveJobs(8, 3), 3u);   // clamp to work items
  EXPECT_EQ(campaign::ResolveJobs(1, 100), 1u);
  EXPECT_GE(campaign::ResolveJobs(0, 100), 1u);  // auto picks something
}

TEST(CampaignRunnerTest, ParallelMapPreservesIndexOrder) {
  const auto out = campaign::ParallelMap<int>(
      64, 4, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(CampaignRunnerTest, ParallelIsBitIdenticalToSerial) {
  const campaign::CampaignSpec spec = TinyCppGrid();
  const campaign::CampaignResult serial = campaign::Run(spec, {.jobs = 1});
  const campaign::CampaignResult parallel = campaign::Run(spec, {.jobs = 4});
  ASSERT_EQ(serial.outcomes().size(), parallel.outcomes().size());
  ASSERT_TRUE(serial.all_ok());
  ASSERT_TRUE(parallel.all_ok());
  for (std::size_t i = 0; i < serial.outcomes().size(); ++i) {
    const auto& a = serial.outcomes()[i];
    const auto& b = parallel.outcomes()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
    EXPECT_EQ(a.metrics.instructions, b.metrics.instructions);
    EXPECT_EQ(a.metrics.exit_code, b.metrics.exit_code);
    EXPECT_EQ(a.metrics.peak_mem_kib, b.metrics.peak_mem_kib);
    EXPECT_EQ(a.metrics.counters, b.metrics.counters);
  }
}

TEST(CampaignSpecTest, HartsAxisSuffixesOnlySmpCells) {
  campaign::CampaignSpec spec;
  spec.workloads = {workloads::RpcServerWorkload(128)};
  spec.configs = {campaign::ForDefense(core::Defense::kVCall)};
  spec.harts = {1, 2, 4};
  const auto runs = campaign::Expand(spec);
  ASSERT_EQ(runs.size(), 3u);
  // The single-hart cell keeps the historical name; SMP cells get "/h<N>".
  EXPECT_EQ(runs[0].name, "rpc_server/VCall/full");
  EXPECT_EQ(runs[0].harts, 1u);
  EXPECT_EQ(runs[1].name, "rpc_server/VCall/full/h2");
  EXPECT_EQ(runs[1].harts, 2u);
  EXPECT_EQ(runs[2].name, "rpc_server/VCall/full/h4");
  EXPECT_EQ(runs[2].harts, 4u);
}

TEST(CampaignRunnerTest, SmpGridIsBitIdenticalAcrossJobCounts) {
  // The jobs-1-vs-N differential over a grid with SMP cells: host
  // parallelism must not perturb the simulated interleaving.
  campaign::CampaignSpec spec;
  spec.workloads = {workloads::RpcServerWorkload(200)};
  spec.configs = {campaign::ForDefense(core::Defense::kNone),
                  campaign::ForDefense(core::Defense::kVCall)};
  spec.harts = {1, 2, 4};
  const campaign::CampaignResult serial = campaign::Run(spec, {.jobs = 1});
  const campaign::CampaignResult parallel = campaign::Run(spec, {.jobs = 4});
  ASSERT_EQ(serial.outcomes().size(), 6u);
  ASSERT_TRUE(serial.all_ok());
  ASSERT_TRUE(parallel.all_ok());
  for (std::size_t i = 0; i < serial.outcomes().size(); ++i) {
    const auto& a = serial.outcomes()[i];
    const auto& b = parallel.outcomes()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
    EXPECT_EQ(a.metrics.instructions, b.metrics.instructions);
    EXPECT_EQ(a.metrics.exit_code, b.metrics.exit_code);
    EXPECT_EQ(a.metrics.counters, b.metrics.counters);
  }
  // And the SMP cells really scaled: 2 harts beat 1 on wall-clock.
  const auto* one = serial.Find("rpc_server/VCall/full");
  const auto* two = serial.Find("rpc_server/VCall/full/h2");
  ASSERT_NE(one, nullptr);
  ASSERT_NE(two, nullptr);
  EXPECT_LT(two->metrics.cycles, one->metrics.cycles);
}

TEST(CampaignRunnerTest, TranslatedGridIsBitIdenticalAcrossJobCounts) {
  // The jobs-1-vs-N differential over a grid whose cells span both
  // execute tiers: host parallelism must not perturb either tier, and
  // within one serial run the tiers must agree with each other
  // cell-for-cell.
  campaign::CampaignSpec spec;
  spec.name = "translated";
  spec.workloads = {workloads::SpecCppSubset(0.05)[0]};
  spec.configs = {campaign::ForDefense(core::Defense::kVCall),
                  campaign::ForDefense(core::Defense::kICall)};
  spec.execs = {cpu::ExecTier::kInterp, cpu::ExecTier::kTranslated};
  const campaign::CampaignResult serial = campaign::Run(spec, {.jobs = 1});
  const campaign::CampaignResult parallel = campaign::Run(spec, {.jobs = 4});
  ASSERT_EQ(serial.outcomes().size(), 4u);
  ASSERT_TRUE(serial.all_ok());
  ASSERT_TRUE(parallel.all_ok());
  for (std::size_t i = 0; i < serial.outcomes().size(); ++i) {
    const auto& a = serial.outcomes()[i];
    const auto& b = parallel.outcomes()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
    EXPECT_EQ(a.metrics.instructions, b.metrics.instructions);
    EXPECT_EQ(a.metrics.exit_code, b.metrics.exit_code);
    EXPECT_EQ(a.metrics.counters, b.metrics.counters);
  }
  // Cross-tier identity inside the serial run: cells are expanded with
  // the exec axis innermost, so the tiers of one (workload, defense) cell
  // are adjacent pairs.
  for (std::size_t cell = 0; cell < serial.outcomes().size(); cell += 2) {
    const auto& interp = serial.outcomes()[cell];
    const auto& translated = serial.outcomes()[cell + 1];
    EXPECT_EQ(interp.metrics.cycles, translated.metrics.cycles)
        << translated.name;
    EXPECT_EQ(interp.metrics.counters, translated.metrics.counters)
        << translated.name;
  }
}

TEST(CampaignRunnerTest, SeededGridRunsOneProgramOnEveryTier) {
  // A seeded grid derives its seed per program, so the interp and
  // translated runs of one cell run the same program and must agree.
  campaign::CampaignSpec spec;
  ASSERT_TRUE(campaign::ParseGrid("workloads=401.bzip2_like,471.omnetpp_like;"
                                  "defenses=none,ICall;scale=0.05;seed=1;"
                                  "exec=interp,translated",
                                  1.0, &spec)
                  .ok());
  const campaign::CampaignResult result = campaign::Run(spec, {.jobs = 2});
  ASSERT_EQ(result.outcomes().size(), 8u);
  ASSERT_TRUE(result.all_ok());
  for (std::size_t cell = 0; cell < result.outcomes().size(); cell += 2) {
    const auto& interp = result.outcomes()[cell];
    const auto& translated = result.outcomes()[cell + 1];
    EXPECT_EQ(interp.metrics.cycles, translated.metrics.cycles)
        << translated.name;
    EXPECT_EQ(interp.metrics.instructions, translated.metrics.instructions)
        << translated.name;
  }
}

TEST(CampaignGridTest, ParsesHartsAxisAndRpcWorkload) {
  campaign::CampaignSpec spec;
  ASSERT_TRUE(campaign::ParseGrid(
                  "workloads=rpc_server;defenses=VCall;harts=1,2,4", 1.0,
                  &spec)
                  .ok());
  ASSERT_EQ(spec.workloads.size(), 1u);
  EXPECT_EQ(spec.workloads[0].name, "rpc_server");
  EXPECT_EQ(spec.workloads[0].kind, workloads::WorkloadKind::kRpcServer);
  ASSERT_EQ(spec.harts.size(), 3u);
  EXPECT_EQ(spec.harts[2], 4u);
  campaign::CampaignSpec bad;
  EXPECT_FALSE(campaign::ParseGrid("harts=0", 1.0, &bad).ok());
  EXPECT_FALSE(campaign::ParseGrid("harts=x", 1.0, &bad).ok());
}

TEST(CampaignRunnerTest, FaultingRunDoesNotAbortTheGrid) {
  campaign::CampaignSpec spec = TinyCppGrid();
  spec.max_instructions = 1000;  // nothing real finishes in 1000 instructions
  const campaign::CampaignResult result = campaign::Run(spec, {.jobs = 2});
  ASSERT_EQ(result.outcomes().size(),
            spec.workloads.size() * spec.configs.size());
  EXPECT_EQ(result.faults(), result.outcomes().size());
  EXPECT_FALSE(result.all_ok());
  for (const auto& outcome : result.outcomes()) {
    EXPECT_FALSE(outcome.ok());
    EXPECT_FALSE(outcome.FailureText().empty());
  }
}

TEST(CampaignRunnerTest, BuildOnlyRunsCarryBuildStats) {
  campaign::CampaignSpec spec;
  spec.workloads = workloads::SpecCppSubset(0.05);
  campaign::RunConfig config = campaign::ForDefense(core::Defense::kVCall);
  config.build_only = true;
  spec.configs = {config};
  const campaign::CampaignResult result = campaign::Run(spec, {.jobs = 2});
  ASSERT_TRUE(result.all_ok());
  for (const auto& outcome : result.outcomes()) {
    EXPECT_TRUE(outcome.build_only);
    EXPECT_GT(outcome.build.image_bytes, 0u);
    EXPECT_GT(outcome.build.code_bytes, 0u);
    EXPECT_GT(outcome.build.roload_instructions, 0u);
    EXPECT_EQ(outcome.metrics.cycles, 0u);  // never executed
  }
}

TEST(CampaignRunnerTest, FindByAxes) {
  const campaign::CampaignSpec spec = TinyCppGrid();
  const campaign::CampaignResult result = campaign::Run(spec, {.jobs = 2});
  const auto* outcome =
      result.Find(spec.workloads[1].name, "VCall",
                  core::SystemVariant::kFullRoload);
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->name, spec.workloads[1].name + "/VCall/full");
  EXPECT_EQ(result.Find("no_such", "none"), nullptr);
  EXPECT_EQ(result.Find(spec.workloads[0].name, "ICall"), nullptr);
}

// ---------------------------------------------------------------------------
// Campaign telemetry.

TEST(CampaignTelemetryTest, FillSessionEmitsCampaignSchema) {
  const campaign::CampaignSpec spec = TinyCppGrid();
  const campaign::CampaignResult result = campaign::Run(spec, {.jobs = 2});
  ASSERT_TRUE(result.all_ok());

  trace::TelemetrySession session("test_campaign");
  result.FillSession(&session);
  const std::string json = session.ToJson();
  EXPECT_NE(json.find("\"schema\": \"roload.campaign.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"merged_counters\""), std::string::npos);
  EXPECT_NE(json.find("campaign.runs"), std::string::npos);
  EXPECT_NE(json.find("campaign.faults"), std::string::npos);
  // Per-run rows for every run of the grid.
  for (const auto& outcome : result.outcomes()) {
    EXPECT_NE(json.find("run." + outcome.name + ".cycles"),
              std::string::npos);
  }
  // The merger aggregated every clean run.
  EXPECT_EQ(result.merger().runs(), result.outcomes().size());
}

TEST(CampaignTelemetryTest, MergerMatchesPerRunCounters) {
  const campaign::CampaignSpec spec = TinyCppGrid();
  const campaign::CampaignResult result = campaign::Run(spec, {.jobs = 1});
  ASSERT_TRUE(result.all_ok());
  // Spot-check: the merged cpu.instret sum equals the per-run sum.
  std::uint64_t expected = 0;
  for (const auto& outcome : result.outcomes()) {
    expected += outcome.metrics.Counter("cpu.instret");
  }
  ASSERT_GT(expected, 0u);
  for (const auto& [name, agg] : result.merger().Merged()) {
    if (name == "cpu.instret") {
      EXPECT_EQ(agg.sum, expected);
      EXPECT_EQ(agg.runs, result.outcomes().size());
      EXPECT_LE(agg.min, agg.max);
    }
  }
  const auto per_run = result.merger().PerRun("cpu.instret");
  ASSERT_EQ(per_run.size(), result.outcomes().size());
  EXPECT_EQ(per_run[0].first, result.outcomes()[0].name);
}

}  // namespace
}  // namespace roload
