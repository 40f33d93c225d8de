// Cycle-attribution profiler: buckets every simulated cycle by *cause*
// (compute, cache misses, TLB walks, the ROLoad-load path, traps,
// syscalls) and by guest-pc range, so overhead totals like Fig 3/4 can be
// decomposed. Attribution is exact: within one CPU step the memory-system
// components are charged as they occur and EndStep() assigns the residual
// to the step's own bucket, so the bucket sum always equals cpu.cycles.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace roload::trace {

enum class CycleBucket : std::uint8_t {
  kCompute,      // base execution cycles of ordinary instructions
  kRoLoadLoad,   // base execution cycles of ld.ro-family instructions
  kICacheMiss,   // icache fill beyond the hit latency
  kDCacheMiss,   // dcache fill beyond the hit latency
  kITlbWalk,     // instruction-side page-table walks
  kDTlbWalk,     // data-side page-table walks
  kTrap,         // cycles of steps that ended in a trap
  kSyscall,      // cycles of ecall steps
  kNumBuckets,
};

std::string_view CycleBucketName(CycleBucket bucket);

class CycleProfiler {
 public:
  // Granularity of the by-pc histogram: 4 KiB ranges, one per page.
  static constexpr unsigned kPcRangeBits = 12;

  // Per-step protocol (driven by Cpu::Step): BeginStep, zero or more
  // Charge() calls for memory-system components, then EndStep with the
  // step's total cycles — the unattributed remainder lands in
  // `residual_bucket` and the whole step is credited to `pc`'s range.
  void BeginStep();
  void Charge(CycleBucket bucket, std::uint64_t cycles);
  void EndStep(CycleBucket residual_bucket, std::uint64_t pc,
               std::uint64_t total_cycles);

  std::uint64_t bucket(CycleBucket bucket) const {
    return buckets_[static_cast<std::size_t>(bucket)];
  }
  std::uint64_t total_cycles() const { return total_cycles_; }

  // (range base address, cycles) sorted by descending cycles then address;
  // the deterministic export order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> PcRanges() const;
  static constexpr std::uint64_t pc_range_bytes() {
    return 1ull << kPcRangeBits;
  }

 private:
  std::uint64_t buckets_[static_cast<std::size_t>(CycleBucket::kNumBuckets)] =
      {};
  std::uint64_t total_cycles_ = 0;
  std::uint64_t step_attributed_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> pc_cycles_;
};

}  // namespace roload::trace
