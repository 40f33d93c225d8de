#include "ledger.h"

#include <algorithm>
#include <map>
#include <set>

#include "support/json.h"
#include "support/strings.h"

namespace cellbench {
namespace {

// Per-span self time of one op: duration minus the spans it encloses.
std::vector<std::int64_t> SelfNs(const OpTrace& op) {
  std::vector<std::int64_t> self(op.spans.size());
  for (std::size_t i = 0; i < op.spans.size(); ++i) {
    self[i] = op.spans[i].end_ns - op.spans[i].start_ns;
  }
  for (const SpanRecord& span : op.spans) {
    if (span.parent >= 0) self[span.parent] -= span.end_ns - span.start_ns;
  }
  return self;
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

OpRecorder::OpRecorder(Clock::time_point epoch, OpTrace trace)
    : epoch_(epoch), trace_(std::move(trace)) {
  trace_.spans.clear();
  Begin("op");
}

std::int64_t OpRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void OpRecorder::Begin(std::string_view name) {
  SpanRecord span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = Now();
  open_.push_back(static_cast<int>(trace_.spans.size()));
  trace_.spans.push_back(std::move(span));
}

void OpRecorder::End() {
  trace_.spans[open_.back()].end_ns = Now();
  open_.pop_back();
}

void OpRecorder::Count(std::string_view name, double value) {
  trace_.counts.emplace_back(std::string(name), value);
}

OpTrace OpRecorder::Finish() {
  while (!open_.empty()) End();
  return std::move(trace_);
}

void Ledger::Add(OpTrace trace) {
  std::lock_guard<std::mutex> lock(mu_);
  ops_.push_back(std::move(trace));
}

std::vector<LayerRow> Ledger::Layers() const {
  std::map<std::string, LayerRow> rows;
  std::map<std::string, std::vector<double>> per_op;
  for (const OpTrace& op : ops_) {
    const std::vector<std::int64_t> self = SelfNs(op);
    std::map<std::string, double> op_ms;
    for (std::size_t i = 0; i < op.spans.size(); ++i) {
      LayerRow& row = rows[op.spans[i].name];
      ++row.calls;
      row.total_ms += static_cast<double>(self[i]) / 1e6;
      op_ms[op.spans[i].name] += static_cast<double>(self[i]) / 1e6;
    }
    for (const auto& [name, ms] : op_ms) per_op[name].push_back(ms);
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) {
    row.name = name;
    row.ops = per_op[name].size();
    row.median_op_ms = Median(per_op[name]);
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.total_ms > b.total_ms;
  });
  return out;
}

double Ledger::UncoveredShare() const {
  double uncovered = 0.0;
  double total = 0.0;
  for (const OpTrace& op : ops_) {
    if (op.spans.empty()) continue;
    uncovered += static_cast<double>(SelfNs(op)[0]);
    total += static_cast<double>(op.spans[0].end_ns - op.spans[0].start_ns);
  }
  return total > 0.0 ? uncovered / total : 0.0;
}

double Ledger::MedianCount(std::string_view name) const {
  std::vector<double> values;
  for (const OpTrace& op : ops_) {
    double sum = 0.0;
    bool seen = false;
    for (const auto& [key, value] : op.counts) {
      if (key != name) continue;
      sum += value;
      seen = true;
    }
    if (seen) values.push_back(sum);
  }
  return Median(std::move(values));
}

double Ledger::SumCount(std::string_view name) const {
  double sum = 0.0;
  for (const OpTrace& op : ops_) {
    for (const auto& [key, value] : op.counts) {
      if (key == name) sum += value;
    }
  }
  return sum;
}

double Ledger::SelfMs(std::string_view name) const {
  double ms = 0.0;
  for (const OpTrace& op : ops_) {
    const std::vector<std::int64_t> self = SelfNs(op);
    for (std::size_t i = 0; i < op.spans.size(); ++i) {
      if (op.spans[i].name == name) ms += static_cast<double>(self[i]) / 1e6;
    }
  }
  return ms;
}

std::string Ledger::ToChromeTrace() const {
  // The same envelope rrun --trace-events writes; one lane per client,
  // whole microseconds since the ledger epoch (JsonWriter prints doubles
  // with six significant digits, too coarse for a long run).
  roload::JsonWriter json(/*pretty=*/false);
  json.BeginObject();
  json.KV("displayTimeUnit", "ns");
  json.Key("traceEvents").BeginArray();
  json.BeginObject()
      .KV("ph", "M")
      .KV("pid", 1)
      .KV("tid", 0)
      .KV("name", "process_name");
  json.Key("args").BeginObject().KV("name", "cellbench").EndObject();
  json.EndObject();
  std::set<unsigned> clients;
  for (const OpTrace& op : ops_) clients.insert(op.client);
  for (unsigned client : clients) {
    json.BeginObject()
        .KV("ph", "M")
        .KV("pid", 1)
        .KV("tid", static_cast<std::int64_t>(client))
        .KV("name", "thread_name");
    json.Key("args")
        .BeginObject()
        .KV("name", roload::StrFormat("client %u", client))
        .EndObject();
    json.EndObject();
  }
  for (const OpTrace& op : ops_) {
    for (std::size_t i = 0; i < op.spans.size(); ++i) {
      const SpanRecord& span = op.spans[i];
      json.BeginObject()
          .KV("name", i == 0 ? op.name : span.name)
          .KV("cat", i == 0 ? "op" : "layer")
          .KV("ph", "X")
          .KV("ts", static_cast<std::uint64_t>(span.start_ns / 1000))
          .KV("dur", static_cast<std::uint64_t>(
                         (span.end_ns - span.start_ns) / 1000))
          .KV("pid", 1)
          .KV("tid", static_cast<std::int64_t>(op.client));
      json.Key("args").BeginObject().KV("op_id", op.id);
      if (i == 0) {
        for (const auto& [key, value] : op.counts) json.KV(key, value);
      }
      json.EndObject();
      json.EndObject();
    }
  }
  json.EndArray();
  json.EndObject();
  return json.str() + "\n";
}

}  // namespace cellbench
