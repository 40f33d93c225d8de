#include "cache/cache.h"

#include "support/bits.h"
#include "support/status.h"

namespace roload::cache {

Cache::Cache(const CacheConfig& config) : config_(config) {
  ROLOAD_CHECK(IsPowerOfTwo(config.line_bytes));
  ROLOAD_CHECK(config.ways > 0);
  const std::uint64_t lines_total = config.size_bytes / config.line_bytes;
  ROLOAD_CHECK(lines_total % config.ways == 0);
  num_sets_ = static_cast<unsigned>(lines_total / config.ways);
  ROLOAD_CHECK(IsPowerOfTwo(num_sets_));
  line_shift_ = Log2(config.line_bytes);
  set_shift_ = Log2(num_sets_);
  lines_.resize(lines_total);
}

unsigned Cache::AccessSlow(std::uint64_t phys_addr, bool write) {
  const std::uint64_t line_addr = config_.host_fast_path
                                      ? phys_addr >> line_shift_
                                      : phys_addr / config_.line_bytes;
  if (last_line_ != nullptr && line_addr == last_line_addr_ &&
      last_line_->valid) {
    return Hit(last_line_, line_addr, write);
  }
  const unsigned set = static_cast<unsigned>(line_addr & (num_sets_ - 1));
  const std::uint64_t tag = config_.host_fast_path ? line_addr >> set_shift_
                                                   : line_addr / num_sets_;
  Line* base = &lines_[static_cast<std::size_t>(set) * config_.ways];

  for (unsigned way = 0; way < config_.ways; ++way) {
    Line& line = base[way];
    if (line.valid && line.tag == tag) return Hit(&line, line_addr, write);
  }

  ++stats_.misses;
  const bool trace_events =
      trace_ != nullptr && trace_->enabled(trace::EventCategory::kCache);
  if (trace_events) {
    trace_->Emit(unit_, trace::EventCategory::kCache,
                 trace::EventType::kCacheMiss, 0, phys_addr, write ? 1 : 0);
  }
  Line* victim = base;
  for (unsigned way = 0; way < config_.ways; ++way) {
    Line& line = base[way];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (line.lru_tick < victim->lru_tick) victim = &line;
  }
  // Fill cost: a flat DRAM latency when this cache is the last level, or
  // the next level's own access cost (its hit/miss discrimination) when a
  // shared L2 sits below.
  unsigned cycles = config_.hit_cycles;
  if (next_ == nullptr) {
    cycles += config_.miss_cycles;
  } else {
    cycles += next_->Access(phys_addr, false);
  }
  if (victim->valid && victim->dirty) {
    ++stats_.writebacks;
    cycles += config_.writeback_cycles;
    const bool need_victim_addr = trace_events || next_ != nullptr;
    std::uint64_t victim_addr = 0;
    if (need_victim_addr) {
      victim_addr = config_.host_fast_path
                        ? ((victim->tag << set_shift_) | set) << line_shift_
                        : (victim->tag * num_sets_ + set) * config_.line_bytes;
    }
    if (trace_events) {
      trace_->Emit(unit_, trace::EventCategory::kCache,
                   trace::EventType::kCacheWriteback, 0, victim_addr, 0);
    }
    // Forward the dirty line down so the next level sees the writeback
    // traffic; the cost stays writeback_cycles (the writeback is buffered
    // off the critical path), so only the lower level's stats change.
    if (next_ != nullptr) next_->Access(victim_addr, true);
  }
  victim->valid = true;
  victim->dirty = write;
  victim->tag = tag;
  victim->lru_tick = ++tick_;
  // The shortcut may now alias the evicted line; re-point it.
  last_line_ = victim;
  last_line_addr_ = line_addr;
  return cycles;
}

void Cache::Flush() {
  for (Line& line : lines_) {
    line.valid = false;
    line.dirty = false;
  }
  last_line_ = nullptr;
  last_line_addr_ = ~std::uint64_t{0};
  ++stats_.flushes;
}

}  // namespace roload::cache
