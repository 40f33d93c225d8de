// Former names of the one machine type, core::System. This header exists
// only for the cell benchmark (cellbench/), whose sources stay fixed so
// its results compare across commits and which still spells these names;
// everything else uses the core names.
#pragma once

#include <cstdint>

#include "core/system.h"
#include "core/toolchain.h"

namespace roload::smp {

using SmpConfig = core::SystemConfig;
using Machine = core::System;

inline StatusOr<core::RunMetrics> RunBuildSmp(
    const core::BuildResult& build, core::SystemVariant variant,
    unsigned harts, std::uint64_t max_instructions = 1ull << 34,
    const trace::TraceConfig& trace = {},
    cpu::ExecTier exec = cpu::ExecTier::kFast) {
  return core::RunBuild(build, variant, max_instructions, trace, exec, harts);
}

}  // namespace roload::smp
