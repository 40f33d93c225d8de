#include "trace/profiler.h"

#include <algorithm>

#include "support/status.h"

namespace roload::trace {

std::string_view CycleBucketName(CycleBucket bucket) {
  switch (bucket) {
    case CycleBucket::kCompute:
      return "compute";
    case CycleBucket::kRoLoadLoad:
      return "roload_load";
    case CycleBucket::kICacheMiss:
      return "icache_miss";
    case CycleBucket::kDCacheMiss:
      return "dcache_miss";
    case CycleBucket::kITlbWalk:
      return "itlb_walk";
    case CycleBucket::kDTlbWalk:
      return "dtlb_walk";
    case CycleBucket::kTrap:
      return "trap";
    case CycleBucket::kSyscall:
      return "syscall";
    case CycleBucket::kNumBuckets:
      break;
  }
  return "?";
}

void CycleProfiler::BeginStep() { step_attributed_ = 0; }

void CycleProfiler::Charge(CycleBucket bucket, std::uint64_t cycles) {
  buckets_[static_cast<std::size_t>(bucket)] += cycles;
  step_attributed_ += cycles;
}

void CycleProfiler::EndStep(CycleBucket residual_bucket, std::uint64_t pc,
                            std::uint64_t total_cycles) {
  // The memory system can only have charged cycles the step actually spent.
  ROLOAD_CHECK(step_attributed_ <= total_cycles);
  buckets_[static_cast<std::size_t>(residual_bucket)] +=
      total_cycles - step_attributed_;
  total_cycles_ += total_cycles;
  pc_cycles_[pc >> kPcRangeBits] += total_cycles;
  step_attributed_ = 0;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> CycleProfiler::PcRanges()
    const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  ranges.reserve(pc_cycles_.size());
  for (const auto& [bucket, cycles] : pc_cycles_) {
    ranges.emplace_back(bucket << kPcRangeBits, cycles);
  }
  std::sort(ranges.begin(), ranges.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return ranges;
}

}  // namespace roload::trace
