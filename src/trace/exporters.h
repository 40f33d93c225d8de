// Machine-readable views of a Hub: a flat counters JSON, a profile JSON
// (counters + cycle buckets + hot pc ranges), a Chrome trace_event JSON
// stream loadable in Perfetto / chrome://tracing, and a human text
// summary. All outputs are deterministic for a deterministic run — the
// golden-file tests diff them byte-for-byte.
#pragma once

#include <string>
#include <vector>

#include "support/status.h"
#include "trace/hub.h"

namespace roload::trace {

// Host-side measurements of a run, appended to the counters JSON as a
// "host" object when provided. These are facts about the host machine
// (wall-clock, simulated MIPS, execute tier), deliberately kept out of
// the CounterRegistry so counter snapshots stay bit-identical across
// execute tiers and host speeds.
struct HostRunStats {
  double wall_seconds = 0.0;
  double simulated_mips = 0.0;
  std::string exec_tier;  // "interp" | "translated"
};

// {"schema":"roload.counters.v1","counters":{name:value,...}} with names
// in sorted order, plus "host":{...} when `host` is non-null.
std::string ExportCountersJson(const CounterRegistry& counters,
                               const HostRunStats* host = nullptr);

// Counters plus the cycle-attribution breakdown:
// {"schema":"roload.profile.v1","counters":{...},
//  "profile":{"total_cycles":N,"buckets":{...},"pc_ranges":[...]}}
// At most `max_pc_ranges` hottest ranges are listed; the tail is folded
// into one "other" entry so nothing is silently dropped.
std::string ExportProfileJson(const Hub& hub, std::size_t max_pc_ranges = 32);

// Chrome trace_event JSON object format: {"traceEvents":[...]}. Retire
// events become complete ("X") slices of their cycle; everything else is
// an instant ("i"). Timestamps are simulated cycles in the `ts` field.
// Events are laned per (hart, unit): tid = hart * kChromeTraceHartStride
// + unit, so an SMP trace shows each hart's pipeline/TLB/cache rows as
// its own named thread group instead of folding all harts together.
std::string ExportChromeTrace(const EventBuffer& events);

// The pieces ExportChromeTrace is assembled from, shared with the
// streaming ChromeTraceFileSink so both produce byte-identical output:
// document opening + hart-0 metadata records, one ",\n{...}" record per
// event, and the closing of the traceEvents array.
std::string ChromeTraceHeader();
void AppendChromeTraceEvent(std::string* out, const TraceEvent& event);
std::string_view ChromeTraceTrailer();

// tid lanes per hart: hart N's unit U renders as tid N*8+U, leaving
// hart 0 on the historical tids 0..6.
inline constexpr unsigned kChromeTraceHartStride = 8;

// Stateful record emitter shared by ExportChromeTrace and the streaming
// sink. Beyond the raw event records, it lazily announces each (hart,
// unit) lane the first time an event lands on it — a "thread_name"
// metadata row naming the lane ("cpu" for hart 0, "hart1 cpu" beyond) —
// so Perfetto shows named rows for every hart without the header having
// to know the machine's hart count up front. Hart-0 lanes through
// kKernel are pre-announced by ChromeTraceHeader(), keeping single-hart
// traces byte-identical to the historical format.
class ChromeTraceWriter {
 public:
  ChromeTraceWriter();
  void AppendEvent(std::string* out, const TraceEvent& event);

 private:
  std::vector<bool> announced_;  // indexed by tid
};

// Multi-line human summary (counters + bucket percentages).
std::string ExportTextSummary(const Hub& hub);

// Writes `contents` to `path` (overwrite).
Status WriteFile(const std::string& path, const std::string& contents);

}  // namespace roload::trace
