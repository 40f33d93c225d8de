// Strict parsing of the ROLOAD_BENCH_* environment knobs shared by the
// bench binaries and rcampaign. The old std::atof path silently accepted
// garbage — ROLOAD_BENCH_SCALE=fast parsed to 0, which fell through to
// the default with no hint the request was ignored. These parsers check
// the strtod end pointer or parse counts with roload::ParseInt, and the
// *FromEnv wrappers warn on stderr whenever a set value is rejected.
#pragma once

#include <optional>
#include <string_view>

namespace roload::campaign {

// A finite, strictly positive double ("0.5", "2"), nullopt otherwise
// (garbage, trailing junk, zero, negatives, inf/nan).
std::optional<double> ParseScale(std::string_view text);

// Boolean switch: 1/true/on/yes and 0/false/off/no (lowercase); the
// empty string is false (an exported-but-empty variable). Anything else
// is nullopt.
std::optional<bool> ParseSwitch(std::string_view text);

// A decimal integer job count (0 means auto: one worker per hardware
// thread), nullopt on garbage or trailing junk.
std::optional<unsigned> ParseJobs(std::string_view text);

// A decimal repeat count in [1, 99] — the host-throughput bench re-runs
// each cell this many times and reports the median MIPS. Nullopt on
// garbage, trailing junk, zero or absurd counts.
std::optional<unsigned> ParseRepeats(std::string_view text);

// ROLOAD_BENCH_SCALE: workload-scale multiplier on hot-loop iteration
// counts (1.0 is a few million simulated instructions per benchmark;
// every reported figure is relative). Warns and returns `default_scale`
// when set to a rejected value.
double ScaleFromEnv(double default_scale);

// ROLOAD_BENCH_PROFILE: attach the cycle-attribution profiler; warns and
// returns false on a rejected value.
bool ProfileFromEnv();

// ROLOAD_BENCH_JOBS: campaign worker count; 0 picks one worker per
// hardware thread. Warns and returns `default_jobs` on rejection.
unsigned JobsFromEnv(unsigned default_jobs = 0);

// ROLOAD_BENCH_REPEATS: wall-clock repeat count for host-speed benches
// (median-of-N). Warns and returns `default_repeats` on rejection.
unsigned RepeatsFromEnv(unsigned default_repeats);

}  // namespace roload::campaign
