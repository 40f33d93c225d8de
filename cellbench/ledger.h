// The layer ledger of a traced run. Spans are recorded from outside the
// simulator: the benchmark wraps every call it makes into a layer's public
// function (workloads::Generate, backend::Generate, System::Run, ...) in a
// Span. Spans stay in memory, keyed by op id, until the run ends; then
// the ledger computes each layer's self time and writes the spans out in
// the Chrome trace_event format.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cellbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  // since the ledger epoch
  std::int64_t end_ns = 0;
  int parent = -1;  // index of the enclosing span; -1 for the op root
};

// Everything one traced op recorded: its spans (spans[0] is the op root,
// named "op") and the counts taken at the same layer boundaries.
struct OpTrace {
  std::uint64_t id = 0;
  std::string name;
  unsigned client = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::pair<std::string, double>> counts;
};

// Records the spans of one op on one thread.
class OpRecorder {
 public:
  OpRecorder(Clock::time_point epoch, OpTrace trace);

  void Begin(std::string_view name);
  void End();
  void Count(std::string_view name, double value);
  // Closes the op root and hands the trace over.
  OpTrace Finish();

 private:
  std::int64_t Now() const;

  Clock::time_point epoch_;
  OpTrace trace_;
  std::vector<int> open_;
};

class Span {
 public:
  Span(OpRecorder* recorder, std::string_view name) : recorder_(recorder) {
    recorder_->Begin(name);
  }
  ~Span() { recorder_->End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  OpRecorder* recorder_;
};

// Runs fn() inside a span named `name` and returns its result.
template <typename Fn>
auto Timed(OpRecorder* recorder, std::string_view name, Fn&& fn) {
  Span span(recorder, name);
  return fn();
}

// Self time of one span name across the traced ops. The "op" row is the
// part of each op no layer span covers.
struct LayerRow {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t ops = 0;        // ops that entered the layer
  double total_ms = 0.0;        // summed self time
  double median_op_ms = 0.0;    // median per-op self time over those ops
};

class Ledger {
 public:
  explicit Ledger(Clock::time_point epoch) : epoch_(epoch) {}

  Clock::time_point epoch() const { return epoch_; }
  // Thread-safe.
  void Add(OpTrace trace);

  // The queries below read the ops; call them once every client has joined.
  std::vector<LayerRow> Layers() const;
  // Summed uncovered time over summed op time.
  double UncoveredShare() const;
  // Median over the ops that recorded `name`; 0 when none did.
  double MedianCount(std::string_view name) const;
  double SumCount(std::string_view name) const;
  // Summed self time of spans named `name`, in milliseconds.
  double SelfMs(std::string_view name) const;
  std::string ToChromeTrace() const;

 private:
  Clock::time_point epoch_;
  std::mutex mu_;
  std::vector<OpTrace> ops_;
};

double Median(std::vector<double> values);

}  // namespace cellbench
