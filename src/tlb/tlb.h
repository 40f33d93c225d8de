// TLB model with the ROLoad extension: every entry carries the page key in
// addition to the permission bits, and the lookup performs the conventional
// permission check and the ROLoad read-only+key check in parallel (their
// outputs are ANDed), mirroring the "light extra logic" added to the Rocket
// Chip TLB class.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "isa/traps.h"
#include "mem/page_table.h"
#include "trace/hub.h"

namespace roload::tlb {

// The kind of memory operation requesting translation. kRoLoad is the new
// memory-operation type the ROLoad decoder issues (the analogue of the new
// entry in Rocket's MemoryOpConstants).
enum class AccessType : std::uint8_t {
  kFetch,
  kLoad,
  kStore,
  kRoLoad,
};

struct TlbConfig {
  unsigned entries = 32;       // 32-entry I-TLB / D-TLB (Table II)
  // Cycles charged per page-table level on a miss (memory access latency
  // is charged separately by the cache model in the CPU; this is the
  // walker's own latency).
  unsigned walk_cycles_per_level = 20;
  // Host-only lookup acceleration: VPN-indexed bucket chains plus one
  // last-translation register per access type, replacing the reference
  // fully-associative linear scan. Replacement still picks the global LRU
  // victim, so hits, misses, evictions, fault causes and every TlbStats
  // field are bit-identical to the reference path (pinned by the
  // differential tests in tests/test_tlb.cpp).
  bool host_indexed_lookup = true;
};

// Per-instruction-key key-check tally, kept inside TlbStats. The set of
// keys a run uses is only known at run time, so these live in a small
// append-only table (linear scan: real programs use a handful of keys)
// instead of 1024 fixed cells; the counter registry exposes them as
// "tlb.keycheck.pass.<K>" / "tlb.keycheck.fail.<K>" via a dynamic source.
struct TlbKeyCheckCount {
  std::uint32_t key = 0;
  std::uint64_t passes = 0;
  std::uint64_t fails = 0;
};

struct TlbStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t flushes = 0;
  std::uint64_t permission_faults = 0;
  std::uint64_t roload_key_faults = 0;
  std::uint64_t roload_writable_faults = 0;
  // ROLoad check invocations (one per kRoLoad translation) and how many
  // passed — the "tlb.d.key_check" telemetry counters.
  std::uint64_t key_checks = 0;
  std::uint64_t key_check_hits = 0;
  // Per-instruction-key breakdown of the two aggregates above: summed over
  // keys, passes == key_check_hits and passes+fails == key_checks (pinned
  // by the differential test in tests/test_tlb.cpp).
  std::vector<TlbKeyCheckCount> key_check_by_key;

  TlbKeyCheckCount& ForKey(std::uint32_t key) {
    for (TlbKeyCheckCount& entry : key_check_by_key) {
      if (entry.key == key) return entry;
    }
    key_check_by_key.push_back(TlbKeyCheckCount{key, 0, 0});
    return key_check_by_key.back();
  }
};

// Why a kRoLoad translation failed (TlbResult::roload_fail_kind); kNone for
// successful checks and for non-ROLoad accesses. Feeds the kRoLoadCheck
// event stream and the audit layer's outcome classification.
enum class RoLoadFailKind : std::uint8_t {
  kNone = 0,
  kKeyMismatch = 1,   // read-only page, wrong key
  kWritablePage = 2,  // writable (or unreadable) target page
  kUnmapped = 3,      // no mapping at all
};

// Translation outcome: either a physical address (plus cycle cost) or a trap.
struct TlbResult {
  bool ok = false;
  std::uint64_t phys_addr = 0;
  unsigned cycles = 0;  // extra cycles spent (0 on a hit)
  isa::TrapCause cause = isa::TrapCause::kLoadPageFault;
  RoLoadFailKind roload_fail_kind = RoLoadFailKind::kNone;
};

// Pure function exposing the ROLoad check logic in isolation; also used by
// the hardware cost model's functional-equivalence tests (the netlist in
// src/hw implements exactly this boolean function).
//
// allowed = readable && !writable && (page_key == inst_key)
bool RoLoadCheck(bool readable, bool writable, std::uint32_t page_key,
                 std::uint32_t inst_key);

// One TLB: tag + leaf PTE copy (permissions and key). Used for both the
// I-side and D-side TLBs.
class Tlb {
 public:
  Tlb(const TlbConfig& config, mem::PhysMemory* memory);

  // One TLB entry, public so the translation tier (src/cpu/translate.h)
  // can pin an entry pointer inside a block guard. `entries_` never
  // reallocates, so the pointer stays stable for the Tlb's lifetime;
  // Flush() only clears `valid` in place. Guard holders must revalidate
  // (valid + vpn + asid_root + pte bits) before every use.
  struct Entry {
    bool valid = false;
    std::uint64_t vpn = 0;       // virtual page number (4 KiB granularity)
    std::uint64_t asid_root = 0; // root ppn acts as the ASID in this model
    mem::Pte pte;
    std::uint64_t phys_page = 0;
    std::uint64_t lru_tick = 0;
  };

  // Translates `virt_addr` for `access` under root page table `root_ppn`.
  // `key` is only consulted for AccessType::kRoLoad.
  //
  // The inline body is the host fast path: when the per-access-type
  // last-translation register covers the page, the access runs Hit()
  // without an out-of-line call. Every hit, whichever path found the
  // entry, runs that one body, so results and TlbStats do not depend on
  // the path. Always inlined, like Hit(), so a call site with a constant
  // `access` (the translated tier's data micro-ops) folds the permission
  // switch at compile time.
  [[gnu::always_inline]] TlbResult Translate(std::uint64_t root_ppn,
                                             std::uint64_t virt_addr,
                                             AccessType access,
                                             std::uint32_t key) {
    if (config_.host_indexed_lookup) {
      Entry* entry = last_translation_[static_cast<std::size_t>(access)];
      if (Covers(entry, root_ppn, virt_addr)) {
        return Hit(entry, virt_addr, access, key);
      }
    }
    return TranslateSlow(root_ppn, virt_addr, access, key);
  }

  // True when `entry` is live and maps `virt_addr` under `root_ppn`: the
  // tag match a lookup hint, and the translated tier's per-site memo,
  // proves before taking the hit.
  static bool Covers(const Entry* entry, std::uint64_t root_ppn,
                     std::uint64_t virt_addr) {
    return entry != nullptr && entry->valid &&
           entry->vpn == (virt_addr >> mem::kPageShift) &&
           entry->asid_root == root_ppn;
  }

  // The one hit body: one hit count, the LRU tick, the lookup hint, then
  // the permission datapath (the ld.ro key check and its per-key census
  // included) and the fault event. Translate's hint, TranslateSlow's
  // lookup and the translated tier's per-site memo (after Covers) all
  // call it, so a hit is the same mutation whoever found the entry.
  [[gnu::always_inline]] TlbResult Hit(Entry* entry, std::uint64_t virt_addr,
                                       AccessType access, std::uint32_t key) {
    ++stats_.hits;
    entry->lru_tick = ++tick_;
    SetHint(access, entry);
    TlbResult result;
    if (auto cause = CheckPermissions(entry->pte, access, key, &stats_,
                                      &result.roload_fail_kind)) {
      result.cause = *cause;
      EmitRoLoadFault(result.cause, virt_addr, key);
      return result;
    }
    result.ok = true;
    result.phys_addr = (entry->phys_page << mem::kPageShift) +
                       (virt_addr & (mem::kPageSize - 1));
    return result;
  }

  // Guard-probe for the translation tier: returns the entry covering
  // `virt_addr` under `root_ppn`, or nullptr. Pure query — no stats, no
  // LRU tick, no hint update — so probing is invisible to the counter
  // contract. A linear scan is fine here: it runs once per block build /
  // guard revalidation, never per instruction.
  Entry* Probe(std::uint64_t root_ppn, std::uint64_t virt_addr) {
    const std::uint64_t vpn = virt_addr >> mem::kPageShift;
    for (Entry& entry : entries_) {
      if (entry.valid && entry.vpn == vpn && entry.asid_root == root_ppn) {
        return &entry;
      }
    }
    return nullptr;
  }

  // Replays the bookkeeping of `n` consecutive successful kFetch hits on
  // `entry` without re-running the lookups: exactly the mutations n
  // Translate fetch hits would perform (n hit counts, n LRU ticks — all
  // landing on the same entry, so only the final tick is observable — and
  // the lookup hint; CheckPermissions has no stat effect on a passing
  // fetch). The translation tier calls this once per replayed block run,
  // after its guard proved the entry covers the page and because nothing
  // inside the run touches this TLB (data accesses go to the D-side).
  void ReplayFetchHits(Entry* entry, std::uint64_t n) {
    if (n == 0) return;
    stats_.hits += n;
    tick_ += n;
    entry->lru_tick = tick_;
    SetHint(AccessType::kFetch, entry);
  }

  // The entry the last `access` translation hit or refilled: what the
  // translated tier's per-site memo re-arms from after a generic
  // Translate. Unchanged by a walk that faults.
  Entry* site_hint(AccessType access) {
    return config_.host_indexed_lookup
               ? last_translation_[static_cast<std::size_t>(access)]
               : last_entry_;
  }

  // Invalidates all entries (sfence.vma analogue). Must be called by the
  // kernel model after any PTE change.
  void Flush();

  const TlbStats& stats() const { return stats_; }

  // Telemetry attachment (null disables). `unit` tells the event stream
  // whether this is the I-side or D-side TLB.
  void set_trace(trace::Hub* hub, trace::Unit unit) {
    trace_ = hub;
    unit_ = unit;
  }

 private:
  // The permission-check datapath (conventional + ROLoad in parallel).
  // Returns nullopt when access is allowed, else the trap cause; for
  // kRoLoad, *fail_kind reports why the check failed. Defined inline (it
  // sits on the per-access hot path: every Hit runs it).
  static std::optional<isa::TrapCause> CheckPermissions(
      const mem::Pte& pte, AccessType access, std::uint32_t key,
      TlbStats* stats, RoLoadFailKind* fail_kind) {
    switch (access) {
      case AccessType::kFetch:
        if (!pte.executable() || !pte.user()) {
          ++stats->permission_faults;
          return isa::TrapCause::kInstructionPageFault;
        }
        return std::nullopt;
      case AccessType::kStore:
        if (!pte.writable() || !pte.user()) {
          ++stats->permission_faults;
          return isa::TrapCause::kStorePageFault;
        }
        return std::nullopt;
      case AccessType::kLoad:
        if (!pte.readable() || !pte.user()) {
          ++stats->permission_faults;
          return isa::TrapCause::kLoadPageFault;
        }
        return std::nullopt;
      case AccessType::kRoLoad: {
        // The ROLoad check runs in parallel with the conventional read
        // check and the two outputs are ANDed; a failure of either raises
        // the ROLoad page fault that the kernel distinguishes from benign
        // loads.
        ++stats->key_checks;
        TlbKeyCheckCount& by_key = stats->ForKey(key);
        const bool base_ok = pte.readable() && pte.user();
        const bool ro_ok =
            RoLoadCheck(pte.readable(), pte.writable(), pte.key(), key);
        if (base_ok && ro_ok) {
          ++stats->key_check_hits;
          ++by_key.passes;
          return std::nullopt;
        }
        ++by_key.fails;
        if (!base_ok || pte.writable()) {
          ++stats->roload_writable_faults;
          *fail_kind = RoLoadFailKind::kWritablePage;
        } else {
          ++stats->roload_key_faults;
          *fail_kind = RoLoadFailKind::kKeyMismatch;
        }
        return isa::TrapCause::kRoLoadPageFault;
      }
    }
    return isa::TrapCause::kLoadPageFault;
  }

  // The miss/scan half of Translate: everything past the inline
  // last-translation shortcut (and the whole of the reference path).
  TlbResult TranslateSlow(std::uint64_t root_ppn, std::uint64_t virt_addr,
                          AccessType access, std::uint32_t key);

  // Points the lookup hint for `access` at `entry` (host-only: a hint is
  // re-proven with Covers before every use).
  void SetHint(AccessType access, Entry* entry) {
    if (config_.host_indexed_lookup) {
      last_translation_[static_cast<std::size_t>(access)] = entry;
    } else {
      last_entry_ = entry;
    }
  }
  Entry* LookupEntry(std::uint64_t vpn, std::uint64_t root_ppn,
                     AccessType access);
  // Fills the LRU victim and returns it.
  Entry* InsertEntry(std::uint64_t vpn, std::uint64_t root_ppn,
                   const mem::Pte& pte, std::uint64_t phys_page);
  // Records a key-check failure in the event stream (no-op for other
  // causes or when the kRoLoad category is masked off).
  void EmitRoLoadFault(isa::TrapCause cause, std::uint64_t virt_addr,
                       std::uint32_t key);

  // Indexed-lookup bookkeeping (host_indexed_lookup only).
  std::size_t BucketOf(std::uint64_t vpn, std::uint64_t root_ppn) const {
    return (vpn ^ root_ppn) & bucket_mask_;
  }
  void UnlinkEntry(std::int32_t index);

  // Simulation fast path (no architectural effect): most lookups hit the
  // same page as the previous one, so cache the last matched entry and
  // self-validate it before the associative scan. Used by the reference
  // (non-indexed) lookup path.
  Entry* last_entry_ = nullptr;

  // Host-only indexed lookup state: valid entries are threaded into
  // singly-linked chains headed by bucket_head_[BucketOf(...)], and each
  // access type keeps its own last-translation register so alternating
  // load/store/ld.ro pages do not thrash a single hint. Flush() clears
  // all of it; entries_ never reallocates, so the pointers stay stable.
  std::vector<std::int32_t> bucket_head_;  // bucket -> entry index or -1
  std::vector<std::int32_t> chain_next_;   // entry index -> next or -1
  std::uint64_t bucket_mask_ = 0;
  Entry* last_translation_[4] = {nullptr, nullptr, nullptr, nullptr};

  trace::Hub* trace_ = nullptr;
  trace::Unit unit_ = trace::Unit::kDTlb;

  TlbConfig config_;
  mem::PhysMemory* memory_;
  mem::PageWalker walker_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
  TlbStats stats_;
};

}  // namespace roload::tlb
