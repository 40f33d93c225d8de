// End-of-run JSON views of a Hub: a flat counters JSON and a profile JSON
// (counters + cycle buckets + hot pc ranges). Events are not exported
// here; they stream to disk as they happen through ChromeTraceFileSink
// (stream_sink.h). All outputs are deterministic for a deterministic run —
// the golden-file tests diff them byte-for-byte.
#pragma once

#include <string>

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

// Writes `contents` to `path` (overwrite).
Status WriteFile(const std::string& path, const std::string& contents);

}  // namespace roload::trace
