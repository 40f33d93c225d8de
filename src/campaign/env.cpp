#include "campaign/env.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "support/strings.h"

namespace roload::campaign {
namespace {

void WarnRejected(const char* variable, const char* value,
                  const char* expected) {
  std::fprintf(stderr,
               "warning: ignoring %s=\"%s\" (%s); using the default\n",
               variable, value, expected);
}

}  // namespace

std::optional<double> ParseScale(std::string_view text) {
  const std::string copy(text);  // strtod needs NUL termination
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || copy.empty()) return std::nullopt;
  if (!std::isfinite(value) || value <= 0) return std::nullopt;
  return value;
}

std::optional<bool> ParseSwitch(std::string_view text) {
  if (text.empty() || text == "0" || text == "false" || text == "off" ||
      text == "no") {
    return false;
  }
  if (text == "1" || text == "true" || text == "on" || text == "yes") {
    return true;
  }
  return std::nullopt;
}

std::optional<unsigned> ParseJobs(std::string_view text) {
  const auto value = ParseInt(text);
  if (!value || *value < 0) return std::nullopt;
  if (*value > 1024) return std::nullopt;  // nonsense thread counts
  return static_cast<unsigned>(*value);
}

double ScaleFromEnv(double default_scale) {
  const char* env = std::getenv("ROLOAD_BENCH_SCALE");
  if (env == nullptr) return default_scale;
  if (auto scale = ParseScale(env)) return *scale;
  WarnRejected("ROLOAD_BENCH_SCALE", env, "expected a positive number");
  return default_scale;
}

bool ProfileFromEnv() {
  const char* env = std::getenv("ROLOAD_BENCH_PROFILE");
  if (env == nullptr) return false;
  if (auto enabled = ParseSwitch(env)) return *enabled;
  WarnRejected("ROLOAD_BENCH_PROFILE", env, "expected 0/1/true/false");
  return false;
}

unsigned JobsFromEnv(unsigned default_jobs) {
  const char* env = std::getenv("ROLOAD_BENCH_JOBS");
  if (env == nullptr) return default_jobs;
  if (auto jobs = ParseJobs(env)) return *jobs;
  WarnRejected("ROLOAD_BENCH_JOBS", env, "expected a job count (0 = auto)");
  return default_jobs;
}

std::optional<unsigned> ParseRepeats(std::string_view text) {
  const auto value = ParseInt(text);
  if (!value || *value <= 0 || *value > 99) return std::nullopt;
  return static_cast<unsigned>(*value);
}

unsigned RepeatsFromEnv(unsigned default_repeats) {
  const char* env = std::getenv("ROLOAD_BENCH_REPEATS");
  if (env == nullptr) return default_repeats;
  if (auto repeats = ParseRepeats(env)) return *repeats;
  WarnRejected("ROLOAD_BENCH_REPEATS", env, "expected a count in [1, 99]");
  return default_repeats;
}

}  // namespace roload::campaign
