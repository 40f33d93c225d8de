// The telemetry hub: one per System, holding the counter registry, the
// cycle profiler and the list of attached event sinks. Modules keep a
// `Hub*` (null or with everything masked off in normal runs) and guard
// every emission with the inline enabled()/profiling() checks, so a
// disabled hub costs a pointer test and nothing else — it never touches
// architectural state or the cycle accounting, which is what the
// bit-identical differential test in tests/test_trace.cpp pins down.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/counters.h"
#include "trace/events.h"
#include "trace/profiler.h"

namespace roload::trace {

struct TraceConfig {
  // Bitmask of EventCategory bits to record (see CategoryBit); 0 disables
  // event tracing entirely.
  std::uint32_t categories = 0;
  bool profile = false;
  // Security forensics (src/audit): attach an Auditor to the system that
  // builds the per-site ld.ro dispatch census and captures a fault autopsy
  // when the kernel delivers a fatal signal. Implies the kRoLoad event
  // category. Observation-only, like everything else here.
  bool audit = false;
  // Translation-tier introspection (src/trace/jitstats.h): collect
  // per-superblock telemetry in the translator (Cpu::set_trace reads it) and
  // fill RunMetrics::jit_counters / the roload.jit.v1 report after the
  // run. Host-only observation; a no-op when the translated tier is off.
  bool jit = false;
};

class Hub {
 public:
  explicit Hub(const TraceConfig& config = {});

  bool enabled(EventCategory category) const {
    return (config_.categories & CategoryBit(category)) != 0;
  }
  bool profiling() const { return config_.profile; }

  // Timestamp source: the CPU's cycle counter. Set once by the System.
  // SMP machines re-point it at the running hart's counter on every
  // scheduler turn (alongside set_current_hart).
  void set_clock(const std::uint64_t* cycles) { clock_ = cycles; }
  std::uint64_t now() const { return clock_ != nullptr ? *clock_ : 0; }

  // Hart id stamped into every emitted event. The SMP scheduler updates
  // it before each hart's quantum; single-hart systems never touch it.
  void set_current_hart(unsigned hart) {
    current_hart_ = static_cast<std::uint8_t>(hart);
  }
  unsigned current_hart() const { return current_hart_; }

  // Stamps an event with now() and the current hart and hands it to each
  // attached sink in attachment order; the hub itself keeps nothing.
  // Callers must check enabled() first (the emission sites are hot paths;
  // Emit assumes the check).
  void Emit(Unit unit, EventCategory category, EventType type,
            std::uint64_t pc, std::uint64_t addr, std::uint64_t arg);

  // The event consumers (a streaming trace file, the audit census, or
  // both). Sinks must outlive the Hub or be removed first. Adding a sink
  // twice or removing one that is not attached is a no-op.
  void AddSink(EventSink* sink);
  void RemoveSink(EventSink* sink);

  // Fatal-signal broadcast: the kernel calls this when it delivers a
  // fatal signal to the simulated process, giving every sink a chance to
  // flush buffered state (EventSink::OnFatalSignal) before the run
  // unwinds.
  void NotifyFatalSignal();

  CounterRegistry& counters() { return counters_; }
  const CounterRegistry& counters() const { return counters_; }
  CycleProfiler& profiler() { return profiler_; }
  const CycleProfiler& profiler() const { return profiler_; }

  const TraceConfig& config() const { return config_; }

 private:
  TraceConfig config_;
  const std::uint64_t* clock_ = nullptr;
  std::uint8_t current_hart_ = 0;
  CounterRegistry counters_;
  CycleProfiler profiler_;
  std::vector<EventSink*> sinks_;
};

}  // namespace roload::trace
