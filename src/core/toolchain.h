// Toolchain: compile an IR module under a chosen defense, assemble, and
// optionally run it on a chosen system variant. This is the one-call API
// the benches, examples and tests use.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "asmtool/image.h"
#include "backend/codegen.h"
#include "core/system.h"
#include "ir/ir.h"
#include "passes/passes.h"
#include "verify/verify.h"

namespace roload::core {

// Which hardening (if any) to apply before lowering.
enum class Defense : std::uint8_t {
  kNone,
  kVCall,       // Section IV-A, ROLoad-based vtable protection
  kVTint,       // software baseline for kVCall
  kICall,       // Section IV-B, ROLoad type-based forward-edge CFI
  kClassicCfi,  // software label-based baseline for kICall
};

// Every defense, in enum order: the columns of each defense sweep.
inline constexpr Defense kAllDefenses[] = {
    Defense::kNone, Defense::kVCall, Defense::kVTint, Defense::kICall,
    Defense::kClassicCfi};

std::string_view DefenseName(Defense defense);

struct BuildOptions {
  Defense defense = Defense::kNone;
  backend::CodegenOptions codegen;
  passes::VCallProtectOptions vcall;
  passes::ICallCfiOptions icall;
  passes::ClassicCfiOptions cfi;
  // Run the static pointee-integrity verifier (src/verify) on the build
  // products; Build fails with FailedPrecondition on any violation.
  bool verify = false;
};

struct BuildResult {
  asmtool::LinkImage image;
  backend::CodegenResult codegen;
  // Static memory image (all sections, page-rounded), the figure-3/5
  // memory-overhead numerator.
  std::uint64_t image_bytes = 0;
  std::uint64_t code_bytes = 0;
  // The post-pass module and the options that produced this build, kept
  // so Verify() can lint the hardened IR and derive its expectations.
  ir::Module hardened;
  BuildOptions options;
};

// Applies the defense passes to a copy of `module`, lowers, assembles.
StatusOr<BuildResult> Build(ir::Module module, const BuildOptions& options);

// Static verification of a finished build: IR lint over the hardened
// module plus the binary abstract-interpretation proof over the linked
// image, under the policy implied by the build's defense (the full
// every-dispatch-is-ld.ro proof applies to ICall with hardened vtables;
// other defenses get the universal consistency rules). The returned
// report carries structured violations and stats; report.ok() is the
// machine-checkable gate CI and the benches use.
verify::Report Verify(const BuildResult& build);

// Per-run metrics for the evaluation harness.
struct RunMetrics {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t roload_loads = 0;
  std::uint64_t peak_mem_kib = 0;
  std::uint64_t image_bytes = 0;
  std::int64_t exit_code = 0;
  bool completed = false;          // exited normally
  bool roload_violation = false;   // killed by the ROLoad fault path
  std::string stdout_text;
  // Full end-of-run counter snapshot (sorted by name) from the system's
  // telemetry registry — what the bench JSON exporters embed.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  // Cycle-attribution profile (bucket name -> cycles, every bucket, in
  // declaration order; the sum equals `cycles`). Filled only when the run
  // was profiled via CompileAndRun's `trace` argument, else empty.
  std::vector<std::pair<std::string, std::uint64_t>> profile;
  // Translation-tier telemetry ("jit.*" pairs, see trace::AppendJitCounters)
  // when the run asked for it via TraceConfig::jit, else empty. Kept out
  // of `counters`: the registry snapshot is bit-identical across execute
  // tiers, and these exist only in the translated tier.
  std::vector<std::pair<std::string, std::uint64_t>> jit_counters;

  std::uint64_t Counter(std::string_view name) const {
    for (const auto& [key, value] : counters) {
      if (key == name) return value;
    }
    return 0;
  }
};

// Runs an already-built image on a fresh `harts`-hart system of `variant`
// and collects RunMetrics. The execution half of CompileAndRun, split out
// so callers holding a BuildResult (the campaign executor, build-only
// sweeps that later decide to run) do not pay a second build. `exec` picks
// the host execute tier (reference interpreter / translation) — both are
// bit-identical in cycles and counters, only host speed differs. With
// several harts the counters carry the per-hart "hart<N>.*" namespaces
// plus the fleet aggregates, and cycles are the parallel wall-clock (the
// maximum over harts).
StatusOr<RunMetrics> RunBuild(const BuildResult& build, SystemVariant variant,
                              std::uint64_t max_instructions = 1ull << 34,
                              const trace::TraceConfig& trace = {},
                              cpu::ExecTier exec = cpu::ExecTier::kTranslated,
                              unsigned harts = 1);

// Builds `module` under `defense` and runs it on a fresh system of
// `variant`. The workhorse of every table/figure bench. `trace` configures
// the run's telemetry (pass `.profile = true` to fill RunMetrics::profile
// with the cycle-attribution buckets); tracing is observational only and
// never changes the measured cycles.
StatusOr<RunMetrics> CompileAndRun(const ir::Module& module,
                                   const BuildOptions& options,
                                   SystemVariant variant,
                                   std::uint64_t max_instructions = 1ull
                                                                    << 34,
                                   const trace::TraceConfig& trace = {});

// Loader cross-check (rule 29, `rrun --verify`): proves that the page
// tables the kernel built while loading `image` actually map every keyed
// read-only section (.rodata.key.<K>) read-only with exactly key K. The
// static rules 20-28 verify the image; this verifies what the loader made
// of it — a kernel that is not roload-aware maps allowlists with key 0,
// which this check reports instead of letting the guest fault at its
// first ld.ro. Call after System::Load; the harts share one address
// space, so one proof covers them all.
verify::Report VerifyLoadedImage(kernel::Kernel& kernel,
                                 const asmtool::LinkImage& image);

// Relative overhead helper: (value - base) / base * 100, in percent.
double OverheadPercent(double base, double value);

}  // namespace roload::core
