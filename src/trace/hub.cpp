#include "trace/hub.h"

#include <algorithm>

namespace roload::trace {

Hub::Hub(const TraceConfig& config) : config_(config) {}

void Hub::Emit(Unit unit, EventCategory category, EventType type,
               std::uint64_t pc, std::uint64_t addr, std::uint64_t arg) {
  TraceEvent event;
  event.cycle = now();
  event.pc = pc;
  event.addr = addr;
  event.arg = arg;
  event.type = type;
  event.category = category;
  event.unit = unit;
  event.hart = current_hart_;
  for (EventSink* sink : sinks_) sink->OnEvent(event);
}

void Hub::AddSink(EventSink* sink) {
  if (sink == nullptr) return;
  if (std::find(sinks_.begin(), sinks_.end(), sink) != sinks_.end()) return;
  sinks_.push_back(sink);
}

void Hub::RemoveSink(EventSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink),
               sinks_.end());
}

void Hub::NotifyFatalSignal() {
  for (EventSink* sink : sinks_) sink->OnFatalSignal();
}

}  // namespace roload::trace
