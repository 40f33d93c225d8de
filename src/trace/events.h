// Structured event tracing: small typed records emitted by the CPU, TLBs,
// caches and kernel and handed, as they happen, to the EventSinks attached
// to the Hub (the streaming Chrome-trace file, the audit census). Nothing
// is retained in between. Categories are individually maskable so a run
// can record, say, only ROLoad faults and context switches at full speed
// while instruction-retire tracing (the expensive one) stays off.
#pragma once

#include <cstdint>
#include <string_view>

namespace roload::trace {

// One bit per category in TraceConfig::categories.
enum class EventCategory : std::uint8_t {
  kInstruction,  // per-retire records (high volume)
  kTlb,          // fills, evictions, flushes
  kCache,        // misses, writebacks
  kRoLoad,       // key-check failures (the paper's attack-detected signal)
  kTrap,         // trap entry / fatal signal delivery
  kKernel,       // syscalls, context switches
  kNumCategories,
};

constexpr std::uint32_t CategoryBit(EventCategory category) {
  return 1u << static_cast<unsigned>(category);
}
inline constexpr std::uint32_t kAllCategories =
    (1u << static_cast<unsigned>(EventCategory::kNumCategories)) - 1;

std::string_view EventCategoryName(EventCategory category);

enum class EventType : std::uint8_t {
  kRetire,
  kTlbFill,
  kTlbEvict,
  kTlbFlush,
  kCacheMiss,
  kCacheWriteback,
  kRoLoadFault,
  // One per executed ld.ro/lw.ro/c.ld.ro translation, pass or fail: pc is
  // the dispatch site, addr the virtual target, and arg packs the check
  // outcome in bits [31:16] (audit::CheckOutcome) over the static key in
  // bits [15:0] — the audit layer's dispatch-census feed.
  kRoLoadCheck,
  kTrapEnter,
  kSyscall,
  kContextSwitch,
  // Remote TLB flush delivered to another hart after a PTE/key change
  // (the SMP shootdown protocol): pc is the initiating hart's pc, addr 0,
  // arg packs target_hart<<16 | initiating_hart.
  kTlbShootdown,
};

std::string_view EventTypeName(EventType type);

// Which hardware/software unit emitted the event (the exporter's "thread").
enum class Unit : std::uint8_t {
  kCpu,
  kITlb,
  kDTlb,
  kICache,
  kDCache,
  kKernel,
  kL2Cache,  // the SMP machine's shared second-level cache
};

std::string_view UnitName(Unit unit);

struct TraceEvent {
  std::uint64_t cycle = 0;  // simulated-cycle timestamp
  std::uint64_t pc = 0;     // guest pc at emission (0 when not applicable)
  std::uint64_t addr = 0;   // subject address (virt or phys per type)
  std::uint64_t arg = 0;    // type-specific payload (opcode, key, cause, pid)
  EventType type = EventType::kRetire;
  EventCategory category = EventCategory::kInstruction;
  Unit unit = Unit::kCpu;
  // Hart the event was emitted from (Hub::set_current_hart, stamped by
  // Emit). Always 0 on single-hart systems.
  std::uint8_t hart = 0;
};

// Observer of the live event stream and the only place events go: a sink
// attached to the Hub sees every emitted event (of the enabled
// categories) in emission order. The streaming Chrome-trace file sink
// (stream_sink.h) and the audit layer's Auditor are the two in the tree.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;

  // Called (via Hub::NotifyFatalSignal) when the kernel delivers a fatal
  // signal to the simulated process — the run is about to end without the
  // usual orderly teardown. Sinks holding buffered state (the streaming
  // Chrome-trace file sink) flush here so fault-ending runs still leave
  // complete artifacts on disk.
  virtual void OnFatalSignal() {}
};

}  // namespace roload::trace
