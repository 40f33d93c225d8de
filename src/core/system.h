// The top-level ROLoad system API: a whole simulated machine (CPUs + MMUs +
// caches + kernel) in one object, configurable as any of the three system
// variants the paper evaluates (Section V-B):
//   * kBaseline           — unmodified processor, unmodified kernel
//   * kProcessorModified  — ld.ro-capable processor, unmodified kernel
//   * kFullRoload         — ld.ro-capable processor + roload-aware kernel
//
// The machine has `harts` CPU cores, each with its own L1 caches and I/D
// TLBs, sharing one physical memory and one kernel. With two or more harts
// a shared L2 sits behind the L1s and the kernel's deterministic
// round-robin interleaves the harts in fixed instruction quanta on one
// host thread, so a run is a pure function of the program and the config.
// The kernel is hart-aware: syscalls execute on the calling hart, traps
// latch that hart's supervisor CSRs, and PTE edits trigger the
// TLB-shootdown protocol so a key change made on one hart never leaves a
// stale keyed translation live in another hart's TLB. One hart keeps the
// flat L1-miss latency and the historical unprefixed counter names.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asmtool/image.h"
#include "audit/audit.h"
#include "cache/cache.h"
#include "cpu/cpu.h"
#include "kernel/kernel.h"
#include "mem/phys_memory.h"
#include "trace/hub.h"

namespace roload::core {

enum class SystemVariant : std::uint8_t {
  kBaseline,
  kProcessorModified,
  kFullRoload,
};

struct SystemConfig {
  SystemVariant variant = SystemVariant::kFullRoload;
  unsigned harts = 1;
  std::uint64_t memory_bytes = 64ull * 1024 * 1024;
  cpu::CpuConfig cpu;  // per-hart geometry; defaults match Table II
  // Shared L2 behind every hart's L1s, present only with >= 2 harts (a
  // single hart keeps the flat L1-miss latency of the paper's Rocket
  // core). 256 KiB, 8-way by default; its miss_cycles is the DRAM latency.
  cache::CacheConfig l2{256 * 1024, 8, 64, 12, 40, 10, true};
  // Scheduler quantum: instructions per turn when several contexts (harts
  // or processes) share the run. Smaller values interleave tighter (the
  // shootdown race tests use ~100); the default keeps scheduling overhead
  // negligible. A lone context runs its whole budget in one turn.
  std::uint64_t quantum = 10000;
  // The shootdown protocol switch (kernel::KernelConfig::tlb_shootdown).
  // Off models the unsound local-only sfence.vma kernel.
  bool tlb_shootdown = true;
  // Telemetry: event-category mask / profiler switch. The defaults record
  // nothing; counters are always registered and queryable.
  trace::TraceConfig trace;
};

// Bridges one CPU's stats structs (core, both TLBs, both L1s, plus the
// dynamic per-key key-check source) into the hierarchical counter
// namespace ("cpu.cycles", "tlb.d.key_check", ...). A one-hart System
// registers its CPU straight into the machine registry; with several harts
// each CPU gets a registry of its own, which the System republishes under
// "hart<N>." and sums into the unprefixed fleet aggregates. The registry
// stores pointers into the live structs, so the hot paths keep their
// plain-increment cost.
void RegisterCpuCounters(trace::CounterRegistry* counters,
                         const cpu::Cpu& cpu);

// Kernel-side counters ("kernel.syscalls", "kernel.fault.roload", ...).
// Never prefixed: the kernel is one object no matter how many harts.
void RegisterKernelCounters(trace::CounterRegistry* counters,
                            const kernel::Kernel& kernel);

class System {
 public:
  explicit System(const SystemConfig& config = {});

  // Loads `image` into a fresh process and boots every hart in it (shared
  // address space, per-hart stack, a0 = hartid, a1 = harts).
  Status Load(const asmtool::LinkImage& image);

  // Runs to completion (every context exited), a fatal signal (which halts
  // the loaded process on every hart), or `max_instructions` retired
  // across all harts. The returned result merges the per-context results:
  // a kill wins (carrying the faulting hart id), then an instruction
  // limit, then a normal exit (first nonzero exit code, else 0).
  // Instructions sum across contexts; cycles are the maximum over them —
  // the parallel wall-clock.
  kernel::RunResult Run(std::uint64_t max_instructions = 1ull << 34);

  cpu::Cpu& cpu(unsigned hart = 0) { return *cpus_[hart]; }
  kernel::Kernel& kernel() { return *kernel_; }
  mem::PhysMemory& memory() { return *memory_; }
  SystemVariant variant() const { return config_.variant; }

  // The machine's telemetry hub: every module's counters live in
  // trace().counters() ("cpu.instret", "tlb.d.key_check", ...); events
  // and the cycle profiler obey SystemConfig::trace.
  trace::Hub& trace() { return *trace_; }
  const trace::Hub& trace() const { return *trace_; }

  // The security-forensics collector (dispatch census + fault autopsies).
  // Null unless SystemConfig::trace.audit was set.
  audit::Auditor* audit() { return auditor_.get(); }
  const audit::Auditor* audit() const { return auditor_.get(); }

 private:
  SystemConfig config_;
  std::unique_ptr<mem::PhysMemory> memory_;
  std::unique_ptr<trace::Hub> trace_;
  std::unique_ptr<cache::Cache> l2_;
  std::vector<std::unique_ptr<cpu::Cpu>> cpus_;
  // Per-hart counter registries (only with >= 2 harts).
  std::vector<trace::CounterRegistry> hart_counters_;
  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<audit::Auditor> auditor_;
};

}  // namespace roload::core
