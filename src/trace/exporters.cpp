#include "trace/exporters.h"

#include <fstream>

#include "support/json.h"
#include "support/strings.h"

namespace roload::trace {
namespace {

void WriteCountersObject(JsonWriter* json, const CounterRegistry& counters) {
  json->Key("counters").BeginObject();
  for (const auto& [name, value] : counters.Snapshot()) {
    json->KV(name, value);
  }
  json->EndObject();
}

}  // namespace

std::string ExportCountersJson(const CounterRegistry& counters,
                               const HostRunStats* host) {
  JsonWriter json;
  json.BeginObject();
  json.KV("schema", "roload.counters.v1");
  WriteCountersObject(&json, counters);
  if (host != nullptr) {
    json.Key("host").BeginObject();
    json.KV("exec_tier", host->exec_tier);
    json.KV("wall_seconds", host->wall_seconds);
    json.KV("simulated_mips", host->simulated_mips);
    json.EndObject();
  }
  json.EndObject();
  return json.str() + "\n";
}

std::string ExportProfileJson(const Hub& hub, std::size_t max_pc_ranges) {
  const CycleProfiler& profiler = hub.profiler();
  JsonWriter json;
  json.BeginObject();
  json.KV("schema", "roload.profile.v1");
  WriteCountersObject(&json, hub.counters());

  json.Key("profile").BeginObject();
  json.KV("total_cycles", profiler.total_cycles());
  json.Key("buckets").BeginObject();
  for (unsigned b = 0;
       b < static_cast<unsigned>(CycleBucket::kNumBuckets); ++b) {
    const auto bucket = static_cast<CycleBucket>(b);
    json.KV(CycleBucketName(bucket), profiler.bucket(bucket));
  }
  json.EndObject();

  json.KV("pc_range_bytes", profiler.pc_range_bytes());
  json.Key("pc_ranges").BeginArray();
  const auto ranges = profiler.PcRanges();
  std::uint64_t other = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    if (i >= max_pc_ranges) {
      other += ranges[i].second;
      continue;
    }
    json.BeginObject();
    json.KV("base", Hex(ranges[i].first));
    json.KV("cycles", ranges[i].second);
    json.EndObject();
  }
  if (other > 0) {
    json.BeginObject();
    json.KV("base", "other");
    json.KV("cycles", other);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();  // profile

  json.EndObject();
  return json.str() + "\n";
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::InvalidArgument("cannot open for write: " + path);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

}  // namespace roload::trace
