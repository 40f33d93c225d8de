// Test helper: assemble a guest program and run it on a simulated system.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "asmtool/assembler.h"
#include "core/system.h"
#include "core/toolchain.h"

namespace roload::testing {

struct GuestRun {
  kernel::RunResult result;
  // The system outlives the run so tests can inspect CPU state.
  std::shared_ptr<core::System> system;
};

// Assembles and runs `source` on a system built from `config`. Fails the
// current test on assembly/load errors.
inline GuestRun RunGuest(const std::string& source,
                         const core::SystemConfig& config,
                         std::uint64_t max_instructions = 1 << 22) {
  GuestRun run;
  auto image = asmtool::Assemble(source);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  if (!image.ok()) return run;
  run.system = std::make_shared<core::System>(config);
  Status status = run.system->Load(*image);
  EXPECT_TRUE(status.ok()) << status.ToString();
  if (!status.ok()) return run;
  run.result = run.system->Run(max_instructions);
  return run;
}

// Assembles and runs `source` on a default system of the given variant.
inline GuestRun RunGuest(
    const std::string& source,
    core::SystemVariant variant = core::SystemVariant::kFullRoload,
    std::uint64_t max_instructions = 1 << 22) {
  core::SystemConfig config;
  config.variant = variant;
  return RunGuest(source, config, max_instructions);
}

// The configuration the translated tier runs its cold code through (via
// Step()): every host fast path on, the block translator off. Tests run
// it beside the two execute tiers, kInterp and kTranslated.
inline core::SystemConfig ColdPathConfig(unsigned harts = 1) {
  core::SystemConfig config;
  config.harts = harts;
  cpu::SetHostFastPaths(&config.cpu, true);
  config.cpu.host_translate = false;
  return config;
}

// Runs a built image to completion on a fresh system of `config` and
// collects the RunMetrics fields that core::RunBuild fills from the run
// and the counter registry.
inline core::RunMetrics RunImage(const asmtool::LinkImage& image,
                                 const core::SystemConfig& config) {
  core::RunMetrics metrics;
  core::System system(config);
  const Status status = system.Load(image);
  EXPECT_TRUE(status.ok()) << status.ToString();
  if (!status.ok()) return metrics;
  const kernel::RunResult run = system.Run(1ull << 34);
  metrics.cycles = run.cycles;
  metrics.instructions = run.instructions;
  metrics.peak_mem_kib = run.peak_mem_kib;
  metrics.exit_code = run.exit_code;
  metrics.completed = run.kind == kernel::ExitKind::kExited;
  metrics.counters = system.trace().counters().Snapshot();
  return metrics;
}

// Shorthand: run and expect a clean exit with `expected_code`.
inline void ExpectExit(const std::string& source, std::int64_t expected_code,
                       core::SystemVariant variant =
                           core::SystemVariant::kFullRoload) {
  const GuestRun run = RunGuest(source, variant);
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kExited)
      << "killed by signal " << run.result.signal << " ("
      << isa::TrapCauseName(run.result.trap_cause) << ") at pc 0x"
      << std::hex << run.result.fault_pc;
  EXPECT_EQ(run.result.exit_code, expected_code);
}

}  // namespace roload::testing
