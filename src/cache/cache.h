// Set-associative write-back cache model used for the L1 instruction and
// data caches (32 KiB, 8-way in the prototype configuration, Table II).
// The model tracks hits/misses/writebacks and converts them to cycles; it
// does not store data (the simulator is functionally backed by PhysMemory),
// which keeps it exact for timing yet cheap.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/hub.h"

namespace roload::cache {

struct CacheConfig {
  std::uint64_t size_bytes = 32 * 1024;
  unsigned ways = 8;
  unsigned line_bytes = 64;
  unsigned hit_cycles = 1;
  unsigned miss_cycles = 40;       // fill latency from the level below
  unsigned writeback_cycles = 10;  // dirty eviction cost
  // Host-only fast path: index/tag math via precomputed shifts instead of
  // the divide-based reference expressions (exact, since the geometry is
  // power-of-two checked). Never changes hits, misses, writebacks or
  // cycles — pinned by the differential tests in tests/test_cache.cpp.
  bool host_fast_path = true;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t flushes = 0;

  double MissRate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(misses) / total;
  }
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  // One cache line, public so the translation tier (src/cpu/translate.h)
  // can pin a line pointer inside a block guard. `lines_` never
  // reallocates, so the pointer stays stable for the Cache's lifetime;
  // Flush() and evictions mutate lines in place. Guard holders must
  // revalidate (valid + tag) before every use.
  struct Line {
    bool valid = false;
    bool dirty = false;
    std::uint64_t tag = 0;
    std::uint64_t lru_tick = 0;
  };

  // Performs an access to physical address `phys_addr`; returns the cycle
  // cost. `write` marks the line dirty (write-allocate policy).
  //
  // The inline body is the host fast path: a same-line hit (the common
  // case — stack slots, straight-line code) runs Hit() without an
  // out-of-line call. Every hit, whichever path found the line, runs that
  // one body, so stats and cycle costs do not depend on the path.
  unsigned Access(std::uint64_t phys_addr, bool write) {
    if (config_.host_fast_path && last_line_ != nullptr &&
        (phys_addr >> line_shift_) == last_line_addr_ && last_line_->valid) {
      return Hit(last_line_, last_line_addr_, write);
    }
    return AccessSlow(phys_addr, write);
  }

  // The one hit body: hit count, LRU tick, dirty bit, and the same-line
  // hint left on the accessed line. Access's shortcut, AccessSlow's set
  // scan and the translated tier's per-site memo (after Holds) all call
  // it.
  unsigned Hit(Line* line, std::uint64_t line_addr, bool write) {
    ++stats_.hits;
    line->lru_tick = ++tick_;
    line->dirty = line->dirty || write;
    last_line_ = line;
    last_line_addr_ = line_addr;
    return config_.hit_cycles;
  }

  // Guard-probe for the translation tier: returns the resident line for
  // `phys_addr`, or nullptr. Pure query — no stats, no LRU tick, no hint
  // update — so probing is invisible to the counter contract. Runs once
  // per block build / guard revalidation, never per instruction.
  Line* Probe(std::uint64_t phys_addr) {
    const std::uint64_t line_addr = phys_addr >> line_shift_;
    const std::uint64_t set = line_addr & (num_sets_ - 1);
    const std::uint64_t tag = line_addr >> set_shift_;
    Line* base = &lines_[set * config_.ways];
    for (unsigned way = 0; way < config_.ways; ++way) {
      if (base[way].valid && base[way].tag == tag) return &base[way];
    }
    return nullptr;
  }

  // Tag a physical address maps to — what a guard compares against the
  // pinned line's tag to prove the line still holds this address.
  std::uint64_t TagOf(std::uint64_t phys_addr) const {
    return (phys_addr >> line_shift_) >> set_shift_;
  }

  // Batched fetch-hit replay for the translation tier. A block run of n
  // instructions is n read hits in a known line order, with no other
  // access to this cache interleaved (data accesses go to the D-side
  // cache), so the bookkeeping splits exactly:
  //
  //   base = replay_base();              // tick before the run
  //   per hit i (1-based): line_i->lru_tick = base + i;   // caller
  //   CommitReplayBatch(n);              // n hit counts + n ticks
  //   ReplayHint(last_line, last_phys);  // hint after the final hit
  //
  // which reproduces, state-for-state, what n Access() read hits on those
  // lines would have left behind (a fetch never dirties a line). The
  // guard proved every line is resident; replay_base() lets the caller
  // stamp final LRU ticks while the run executes.
  std::uint64_t replay_base() const { return tick_; }
  void CommitReplayBatch(std::uint64_t hits) {
    stats_.hits += hits;
    tick_ += hits;
  }
  void ReplayHint(Line* line, std::uint64_t phys_addr) {
    last_line_ = line;
    last_line_addr_ = phys_addr >> line_shift_;
  }

  // Per-site inline-cache support for the translated tier's memory
  // micro-ops. A memo pairs a line pointer with the line address it was
  // armed for; Holds re-proves that the line still holds that address
  // before the memo calls Hit. site_hint() re-arms a memo after a generic
  // Access: both hit paths and the miss refill leave last_line_ on the
  // line the access touched. The shifts are exact in every config (the
  // geometry is power-of-two checked; the reference path's divides
  // compute the same values).
  std::uint64_t LineAddrOf(std::uint64_t phys_addr) const {
    return phys_addr >> line_shift_;
  }
  bool Holds(const Line* line, std::uint64_t line_addr) const {
    return line != nullptr && line->valid &&
           line->tag == (line_addr >> set_shift_);
  }
  Line* site_hint() { return last_line_; }

  void Flush();

  // Optional next cache level (the shared L2 of the SMP machine). With a
  // next level attached, a miss is filled from it — the miss cost becomes
  // the next level's own Access() cost instead of the flat miss_cycles
  // DRAM latency — and dirty evictions are forwarded down so the lower
  // level sees the writeback traffic. Null (the default) keeps the
  // original flat-latency behaviour bit-identical. Not owned; the next
  // level must outlive this cache. Single-threaded use only: the SMP
  // scheduler interleaves harts deterministically on one host thread.
  void set_next_level(Cache* next) { next_ = next; }

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }

  // Telemetry attachment (null disables); `unit` distinguishes I$ and D$
  // in the event stream.
  void set_trace(trace::Hub* hub, trace::Unit unit) {
    trace_ = hub;
    unit_ = unit;
  }

 private:
  // The scan/miss half of Access: everything past the inline same-line
  // shortcut (and the whole of the reference path).
  unsigned AccessSlow(std::uint64_t phys_addr, bool write);

  CacheConfig config_;
  unsigned num_sets_;
  // Precomputed index math for the host fast path: line_bytes and
  // num_sets_ are powers of two, so shifts are exactly the divisions.
  unsigned line_shift_ = 0;
  unsigned set_shift_ = 0;
  std::vector<Line> lines_;  // num_sets_ * ways, row-major by set
  std::uint64_t tick_ = 0;
  CacheStats stats_;
  // Simulation fast path: consecutive accesses usually touch the same
  // line (stack slots, straight-line code); self-validated shortcut.
  Line* last_line_ = nullptr;
  std::uint64_t last_line_addr_ = ~std::uint64_t{0};

  Cache* next_ = nullptr;

  trace::Hub* trace_ = nullptr;
  trace::Unit unit_ = trace::Unit::kDCache;
};

}  // namespace roload::cache
