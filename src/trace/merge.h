// Cross-run counter aggregation. The counter registry is per-System; a
// campaign runs many Systems (workload × defense × variant grids) and
// wants one merged report instead of N disjoint snapshots. CounterMerger
// collects the end-of-run Snapshot() of every run and aggregates each
// counter name across runs (sum / min / max / reporting-run count) while
// keeping the per-run values addressable, which is what the campaign JSON
// (`roload.campaign.v1`) and the rcampaign table printer consume.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/json.h"

namespace roload::trace {

class CounterMerger {
 public:
  // Adds one run's counter snapshot under `run` (a unique label, e.g.
  // "omnetpp_like/VCall/full"). Snapshots may carry different counter
  // sets; aggregation is per counter name across the runs that report it.
  void Add(std::string run,
           const std::vector<std::pair<std::string, std::uint64_t>>&
               snapshot);

  struct Aggregate {
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t runs = 0;  // how many runs reported this counter
  };

  std::size_t runs() const { return run_labels_.size(); }
  const std::vector<std::string>& run_labels() const { return run_labels_; }

  // All aggregated counters, sorted by name — the deterministic export
  // order, mirroring CounterRegistry::Snapshot().
  std::vector<std::pair<std::string, Aggregate>> Merged() const;

  // Writes Merged() as one JSON object, {name: {sum,min,max,runs}}, into
  // `json` (the caller opens the surrounding key).
  void WriteJson(JsonWriter* json) const;

  // Value of `counter` in every run that reported it, in Add() order.
  std::vector<std::pair<std::string, std::uint64_t>> PerRun(
      std::string_view counter) const;

 private:
  struct Cell {
    std::string counter;
    std::size_t run_index;  // into run_labels_
    std::uint64_t value;
  };

  std::vector<std::string> run_labels_;
  std::vector<Cell> cells_;
};

}  // namespace roload::trace
