#include "trace/merge.h"

#include <algorithm>
#include <map>

namespace roload::trace {

void CounterMerger::Add(
    std::string run,
    const std::vector<std::pair<std::string, std::uint64_t>>& snapshot) {
  const std::size_t run_index = run_labels_.size();
  run_labels_.push_back(std::move(run));
  cells_.reserve(cells_.size() + snapshot.size());
  for (const auto& [name, value] : snapshot) {
    cells_.push_back(Cell{name, run_index, value});
  }
}

std::vector<std::pair<std::string, CounterMerger::Aggregate>>
CounterMerger::Merged() const {
  std::map<std::string, Aggregate> merged;
  for (const Cell& cell : cells_) {
    auto [it, inserted] = merged.try_emplace(cell.counter);
    Aggregate& agg = it->second;
    if (inserted) {
      agg.min = cell.value;
      agg.max = cell.value;
    } else {
      agg.min = std::min(agg.min, cell.value);
      agg.max = std::max(agg.max, cell.value);
    }
    agg.sum += cell.value;
    ++agg.runs;
  }
  return {merged.begin(), merged.end()};
}

void CounterMerger::WriteJson(JsonWriter* json) const {
  json->BeginObject();
  for (const auto& [name, agg] : Merged()) {
    json->Key(name).BeginObject();
    json->KV("sum", agg.sum);
    json->KV("min", agg.min);
    json->KV("max", agg.max);
    json->KV("runs", agg.runs);
    json->EndObject();
  }
  json->EndObject();
}

std::vector<std::pair<std::string, std::uint64_t>> CounterMerger::PerRun(
    std::string_view counter) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const Cell& cell : cells_) {
    if (cell.counter == counter) {
      out.emplace_back(run_labels_[cell.run_index], cell.value);
    }
  }
  return out;
}

}  // namespace roload::trace
