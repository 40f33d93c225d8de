#include "trace/events.h"

namespace roload::trace {

std::string_view EventCategoryName(EventCategory category) {
  switch (category) {
    case EventCategory::kInstruction:
      return "instruction";
    case EventCategory::kTlb:
      return "tlb";
    case EventCategory::kCache:
      return "cache";
    case EventCategory::kRoLoad:
      return "roload";
    case EventCategory::kTrap:
      return "trap";
    case EventCategory::kKernel:
      return "kernel";
    case EventCategory::kNumCategories:
      break;
  }
  return "?";
}

std::string_view EventTypeName(EventType type) {
  switch (type) {
    case EventType::kRetire:
      return "retire";
    case EventType::kTlbFill:
      return "tlb_fill";
    case EventType::kTlbEvict:
      return "tlb_evict";
    case EventType::kTlbFlush:
      return "tlb_flush";
    case EventType::kCacheMiss:
      return "cache_miss";
    case EventType::kCacheWriteback:
      return "cache_writeback";
    case EventType::kRoLoadFault:
      return "roload_fault";
    case EventType::kRoLoadCheck:
      return "roload_check";
    case EventType::kTrapEnter:
      return "trap_enter";
    case EventType::kSyscall:
      return "syscall";
    case EventType::kContextSwitch:
      return "context_switch";
    case EventType::kTlbShootdown:
      return "tlb_shootdown";
  }
  return "?";
}

std::string_view UnitName(Unit unit) {
  switch (unit) {
    case Unit::kCpu:
      return "cpu";
    case Unit::kITlb:
      return "itlb";
    case Unit::kDTlb:
      return "dtlb";
    case Unit::kICache:
      return "icache";
    case Unit::kDCache:
      return "dcache";
    case Unit::kKernel:
      return "kernel";
    case Unit::kL2Cache:
      return "l2";
  }
  return "?";
}

}  // namespace roload::trace
