#include "trace/session.h"

#include "support/json.h"
#include "trace/exporters.h"

namespace roload::trace {

void TelemetrySession::Record(std::string_view key, double value) {
  for (auto& [name, scalar] : results_) {
    if (name == key) {
      scalar = value;
      return;
    }
  }
  results_.emplace_back(std::string(key), value);
}

void TelemetrySession::Record(std::string_view key, std::uint64_t value) {
  for (auto& [name, scalar] : results_) {
    if (name == key) {
      scalar = value;
      return;
    }
  }
  results_.emplace_back(std::string(key), value);
}

void TelemetrySession::Record(std::string_view key, std::string_view value) {
  for (auto& [name, scalar] : results_) {
    if (name == key) {
      scalar = std::string(value);
      return;
    }
  }
  results_.emplace_back(std::string(key), std::string(value));
}

std::string TelemetrySession::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.KV("schema", schema_);
  json.KV("name", name_);
  json.Key("results").BeginObject();
  for (const auto& [key, scalar] : results_) {
    json.Key(key);
    if (const auto* d = std::get_if<double>(&scalar)) {
      json.Value(*d);
    } else if (const auto* u = std::get_if<std::uint64_t>(&scalar)) {
      json.Value(*u);
    } else {
      json.Value(std::get<std::string>(scalar));
    }
  }
  json.EndObject();
  if (hub_ != nullptr) {
    json.Key("counters").BeginObject();
    for (const auto& [name, value] : hub_->counters().Snapshot()) {
      json.KV(name, value);
    }
    json.EndObject();
  }
  if (merger_ != nullptr) {
    json.Key("merged_counters");
    merger_->WriteJson(&json);
  }
  json.EndObject();
  return json.str() + "\n";
}

Status TelemetrySession::WriteJson(const std::string& path) const {
  return WriteFile(path, ToJson());
}

}  // namespace roload::trace
