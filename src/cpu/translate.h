// Translation tier: superblock dynamic binary translation with guard-based
// deopt (the third execute tier, above the reference interpreter and the
// PR 2 host fast paths).
//
// A TranslatedBlock pre-decodes a run of instructions from one guest code
// page into replayable micro-op form. Entering a block first proves a set
// of guards:
//
//   * the pinned I-TLB entry still maps the block's page with the same
//     PTE bits and physical page (covers TLB flush/shootdown, mprotect
//     re-key, process switch),
//   * the block's code page version is unchanged (covers self-modifying
//     and cross-hart code writes via the shared CodeVersionTable),
//   * every pinned I-cache line is still resident with the same tag
//     (covers evictions; fetch timing stays exact).
//
// With the guards proven, each op replays exactly the bookkeeping the
// interpreter's all-hit fetch path performs (one I-TLB hit + one I-cache
// hit per instruction, batched per block run — see Tlb::ReplayFetchHits
// and the Cache replay-batch API) and then executes the pre-decoded
// instruction with the interpreter's own semantics: the same ExecAlu and
// BranchTaken definitions Step() uses, one memory micro-op path whose
// per-site memos hit through the D-TLB's and D-cache's own hit bodies
// (running the real lookups, the ld.ro key check included, on any memo
// miss), and Step()'s own execute body for everything else (ecall/ebreak,
// ld.ro while the roload_check event stream is live). Cycles and every
// counter match the reference interpreter bit for bit: the differential
// suite in tests/test_translate.cpp pins it, and CI compares the tiers
// cell by cell on every workload at scale 0.05 and at scale 8. Any guard
// miss deopts to Step() for at least one instruction (performing the
// *real* miss with its real cost) and retries, so misses are never
// approximated.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "isa/instruction.h"
#include "mem/phys_memory.h"
#include "tlb/tlb.h"
#include "trace/jitstats.h"

namespace roload::cpu {

// Superblock op cap, and live-block cap (reaching it frees every block and
// starts over — a simple, safe flush policy).
inline constexpr unsigned kTranslateMaxOps = 64;
inline constexpr std::size_t kTranslateMaxBlocks = 4096;

// Per-physical-page code version table: the write barrier that catches
// self-modifying (and, in SMP, cross-hart) code writes. Pages are marked
// when the first block is built from them; every store through MemAccess
// (and every DebugWriteVirt) bumps the version of a marked page, which
// fails the version guard of any block translated from it. One table is
// shared by all harts of an SMP machine so hart A patching hart B's code
// retires B's blocks at B's next block entry.
class CodeVersionTable {
 public:
  explicit CodeVersionTable(std::uint64_t memory_bytes)
      : is_code_((memory_bytes + mem::kPageSize - 1) >> mem::kPageShift, 0),
        versions_(is_code_.size(), 0) {}

  // Store barrier (hot path): bump the page version iff the page holds
  // translated code. Stores are size-aligned, so one page covers the
  // whole access. A bump also advances the guard epoch, staling every
  // block's one-compare entry fast path (see guard_epoch()).
  void OnWrite(std::uint64_t phys_addr) {
    const std::uint64_t page = phys_addr >> mem::kPageShift;
    if (page < is_code_.size() && is_code_[page] != 0) {
      ++versions_[page];
      ++epoch_;
    }
  }

  void MarkCode(std::uint64_t phys_page) {
    if (phys_page < is_code_.size()) is_code_[phys_page] = 1;
  }

  std::uint64_t Version(std::uint64_t phys_page) const {
    return phys_page < versions_.size() ? versions_[phys_page] : 0;
  }

  // Guard epoch: a counter that advances whenever machine state that any
  // block guard could depend on may have changed — a code-page write
  // (above), any interpreted Step (which can evict I-TLB entries and
  // I-cache lines), a TLB flush/shootdown, or a root-page-table switch
  // (callers bump via Advance()). A block whose guards were fully proven
  // at epoch E needs only `valid_epoch == E` to re-enter while the epoch
  // stands, turning steady-state block entry into one compare. The table
  // (and thus the epoch) is shared across SMP harts, so a cross-hart code
  // write stales every hart's fast path, not just the writer's. Starts at
  // 1 so 0 can mean "never proven / retired".
  std::uint64_t guard_epoch() const { return epoch_; }
  void Advance() { ++epoch_; }

 private:
  std::vector<std::uint8_t> is_code_;
  std::vector<std::uint64_t> versions_;
  std::uint64_t epoch_ = 1;
};

// One pre-decoded instruction of a block.
struct TranslatedOp {
  isa::Instruction inst;
  std::uint64_t pc = 0;          // virtual pc of this op
  std::uint64_t fetch_phys = 0;  // physical address of the first parcel
  std::uint32_t line_index = 0;  // index into TranslatedBlock::lines
  // Pre-resolved micro-op facts for the block executor's memory path
  // (isa::MemAccessBytes / isa::LoadIsUnsigned evaluated once at build
  // time instead of per execution). Zero for non-memory ops.
  std::uint8_t mem_bytes = 0;
  bool load_unsigned = false;
  // Per-site inline caches: the D-TLB entry and D-cache line (with the
  // line address it was armed for) this op touched last time.
  // Self-validating — the executor re-proves them against the current
  // access (Tlb::Covers, Cache::Holds) before taking the hit and falls
  // back to the generic lookup (re-arming the memo) otherwise. The
  // pointers target pool storage that never reallocates, so a stale memo
  // is merely cold, never dangling.
  tlb::Tlb::Entry* dtlb_memo = nullptr;
  cache::Cache::Line* dline_memo = nullptr;
  std::uint64_t dline_addr = 0;
};

// One pinned I-cache line a block's fetches replay hits on. `line` may be
// re-pointed during guard revalidation when the same tag moved to another
// way; `phys`/`tag` identify what the line must hold.
struct LineGuard {
  cache::Cache::Line* line = nullptr;
  std::uint64_t phys = 0;  // representative fetch address within the line
  std::uint64_t tag = 0;
};

// Per-superblock telemetry record, accumulated across rebuilds of the
// same (root, head_pc) — the row source of the roload.jit.v1 report.
// Lives in the translator's jit-stats map (which survives InvalidateAll)
// and only exists when TraceConfig::jit enabled collection.
struct JitBlockStats {
  std::uint64_t builds = 0;
  std::uint64_t retires = 0;
  std::uint64_t entries = 0;   // guard-proven executions
  std::uint64_t chained = 0;   // of which entered via direct chaining
  std::uint64_t replayed = 0;  // micro-ops replayed
};

// A superblock: straight-line decode from head_pc within one page,
// continuing through untaken conditional branches, ending at an
// unconditional control transfer (jal/jalr/ecall/ebreak), a decode
// failure, the page boundary, or the op cap. Execution exits early on
// branch divergence, trap, ecall, quantum/limit expiry or a self-modifying
// store — always at an instruction boundary.
struct TranslatedBlock {
  std::uint64_t head_pc = 0;
  std::uint64_t root_ppn = 0;
  std::uint64_t vpn = 0;
  std::uint64_t pte_raw = 0;
  std::uint64_t phys_page = 0;
  std::uint64_t code_version = 0;
  // Guard epoch at which the full guard set was last proven; re-entry
  // under the same epoch needs no re-proof (see
  // CodeVersionTable::guard_epoch). 0 = never proven; Retire resets to 0
  // so a dead block can never take the fast path.
  std::uint64_t valid_epoch = 0;
  tlb::Tlb::Entry* itlb_entry = nullptr;
  bool dead = false;  // retired: unreachable, freed at the next InvalidateAll
  // Telemetry row for this (root, head_pc) when jit stats are on; null
  // otherwise, so the collection hooks cost one pointer test. Points into
  // the translator's map (stable node addresses, outlives the block).
  JitBlockStats* jit = nullptr;
  std::vector<LineGuard> lines;
  std::vector<TranslatedOp> ops;

  // Direct block chaining: the hot loop goes block -> successor without
  // touching the translator's hash map. Two slots per block (fall-through
  // and taken successor of the usual loop shapes), round-robin replaced.
  struct ChainSlot {
    std::uint64_t pc = ~std::uint64_t{0};
    TranslatedBlock* block = nullptr;
  };
  ChainSlot chain[2];
  std::uint8_t chain_rr = 0;

  TranslatedBlock* ChainLookup(std::uint64_t pc, std::uint64_t root) {
    for (const ChainSlot& slot : chain) {
      if (slot.block != nullptr && slot.pc == pc && !slot.block->dead &&
          slot.block->root_ppn == root) {
        return slot.block;
      }
    }
    return nullptr;
  }

  void ChainInstall(std::uint64_t pc, TranslatedBlock* block) {
    chain[chain_rr] = ChainSlot{pc, block};
    chain_rr ^= 1;
  }
};

// Host-only translator telemetry. Deliberately NOT registered in the
// trace counter registry: the registry snapshot is part of the
// bit-identity contract between tiers, and these counters exist only in
// the translated tier.
struct TranslatorStats {
  std::uint64_t blocks_built = 0;
  std::uint64_t blocks_retired = 0;
  std::uint64_t block_entries = 0;    // guard-proven block executions
  std::uint64_t chained_entries = 0;  // of which via direct chaining
  std::uint64_t guard_fails = 0;      // deopts to the interpreter
  std::uint64_t ops_replayed = 0;
  std::uint64_t invalidations = 0;    // InvalidateAll calls
  // Deopt attribution: every guard_fails increment lands in exactly one
  // reason bucket, so deopt[] always sums to guard_fails (the invariant
  // tests/test_translate.cpp pins).
  std::uint64_t deopt[trace::kNumDeoptReasons] = {};
  // Soft exits (block runs ended early without a guard fail) and churn.
  std::uint64_t chain_breaks = 0;        // chain slot missed after a chained run
  std::uint64_t dtlb_memo_misses = 0;    // per-site D-TLB inline-cache misses
  std::uint64_t dcache_memo_misses = 0;  // per-site D-cache inline-cache misses
  std::uint64_t roload_fault_exits = 0;  // runs ended by an ld.ro key fault
  std::uint64_t trap_exits = 0;          // runs ended by any other trap
  std::uint64_t smc_exits = 0;           // runs ended by a self-modifying store
  std::uint64_t evictions = 0;           // live blocks freed by InvalidateAll
};

// Owns the translated blocks of one hart: the (root, pc) -> block map, the
// hot-pc visit counters that trigger building, and the block lifecycle
// (retire marks a block dead in place; InvalidateAll frees everything and
// is only called between blocks — TLB flush, capacity).
class Translator {
 public:
  explicit Translator(unsigned threshold)
      : threshold_(threshold == 0 ? 1 : threshold), visits_(kVisitSlots) {}

  // Block lookup; nullptr on miss (including dead or mismatching blocks).
  TranslatedBlock* Lookup(std::uint64_t root_ppn, std::uint64_t pc);

  // Bumps the visit counter for (root, pc); true once the pc is hot
  // enough to build a block.
  bool NoteVisit(std::uint64_t root_ppn, std::uint64_t pc);

  // Takes ownership and makes the block reachable; retires any block the
  // map already held for the same (root, pc). Returns the raw pointer
  // (stable until InvalidateAll).
  TranslatedBlock* Insert(std::unique_ptr<TranslatedBlock> block);

  // Marks a block permanently dead (stale PTE, remap, self-modified
  // code). Its memory stays valid until InvalidateAll so chain slots and
  // the executor's current-block pointer never dangle.
  void Retire(TranslatedBlock* block);

  // Frees every block and resets the map and visit counters. Safe only
  // between blocks (no block mid-execution, no live chain source).
  void InvalidateAll();

  bool AtCapacity() const { return blocks_.size() >= kTranslateMaxBlocks; }

  TranslatorStats& stats() { return stats_; }
  const TranslatorStats& stats() const { return stats_; }

  // Per-block telemetry collection (TraceConfig::jit, applied by
  // Cpu::set_trace). Off by default: Insert then leaves
  // TranslatedBlock::jit null and every collection hook is one dead
  // pointer test. The map is keyed by the real (root, head_pc) — no hash
  // aliasing, deterministic iteration — and accumulates across
  // InvalidateAll so rebuild churn is visible.
  void EnableJitStats() { jit_stats_enabled_ = true; }
  bool jit_stats_enabled() const { return jit_stats_enabled_; }
  const std::map<std::pair<std::uint64_t, std::uint64_t>, JitBlockStats>&
  jit_blocks() const {
    return jit_blocks_;
  }

 private:
  static constexpr std::size_t kVisitSlots = 4096;  // direct-mapped

  static std::uint64_t KeyOf(std::uint64_t root_ppn, std::uint64_t pc) {
    return pc ^ (root_ppn << 17);
  }

  struct VisitSlot {
    std::uint64_t key = ~std::uint64_t{0};
    std::uint32_t count = 0;
  };

  unsigned threshold_;
  std::deque<std::unique_ptr<TranslatedBlock>> blocks_;
  std::unordered_map<std::uint64_t, TranslatedBlock*> map_;
  std::vector<VisitSlot> visits_;
  TranslatorStats stats_;
  bool jit_stats_enabled_ = false;
  std::map<std::pair<std::uint64_t, std::uint64_t>, JitBlockStats>
      jit_blocks_;  // keyed by (root_ppn, head_pc)
};

}  // namespace roload::cpu
