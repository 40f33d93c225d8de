#include "tlb/tlb.h"

#include <algorithm>

#include "support/status.h"

namespace roload::tlb {

bool RoLoadCheck(bool readable, bool writable, std::uint32_t page_key,
                 std::uint32_t inst_key) {
  return readable && !writable && page_key == inst_key;
}

Tlb::Tlb(const TlbConfig& config, mem::PhysMemory* memory)
    : config_(config), memory_(memory), walker_(memory) {
  ROLOAD_CHECK(config.entries > 0);
  entries_.resize(config.entries);
  // ~2 buckets per entry keeps the chains at one element in the common
  // case while the bucket array stays cache-resident.
  std::uint64_t buckets = 1;
  while (buckets < 2 * config.entries) buckets <<= 1;
  bucket_mask_ = buckets - 1;
  bucket_head_.assign(buckets, -1);
  chain_next_.assign(config.entries, -1);
}

void Tlb::EmitRoLoadFault(isa::TrapCause cause, std::uint64_t virt_addr,
                          std::uint32_t key) {
  if (cause != isa::TrapCause::kRoLoadPageFault || trace_ == nullptr ||
      !trace_->enabled(trace::EventCategory::kRoLoad)) {
    return;
  }
  trace_->Emit(unit_, trace::EventCategory::kRoLoad,
               trace::EventType::kRoLoadFault, 0, virt_addr, key);
}

Tlb::Entry* Tlb::LookupEntry(std::uint64_t vpn, std::uint64_t root_ppn,
                             AccessType access) {
  // The lookup hint first: one shared register on the reference path, one
  // per access type on the indexed path.
  Entry* hint = site_hint(access);
  if (hint != nullptr && hint->valid && hint->vpn == vpn &&
      hint->asid_root == root_ppn) {
    return hint;
  }
  if (!config_.host_indexed_lookup) {
    // Reference path: the fully-associative scan.
    for (Entry& entry : entries_) {
      if (entry.valid && entry.vpn == vpn && entry.asid_root == root_ppn) {
        return &entry;
      }
    }
    return nullptr;
  }
  for (std::int32_t i = bucket_head_[BucketOf(vpn, root_ppn)]; i >= 0;
       i = chain_next_[i]) {
    Entry& entry = entries_[static_cast<std::size_t>(i)];
    if (entry.valid && entry.vpn == vpn && entry.asid_root == root_ppn) {
      return &entry;
    }
  }
  return nullptr;
}

void Tlb::UnlinkEntry(std::int32_t index) {
  const Entry& entry = entries_[static_cast<std::size_t>(index)];
  std::int32_t* link = &bucket_head_[BucketOf(entry.vpn, entry.asid_root)];
  while (*link >= 0) {
    if (*link == index) {
      *link = chain_next_[index];
      return;
    }
    link = &chain_next_[*link];
  }
}

Tlb::Entry* Tlb::InsertEntry(std::uint64_t vpn, std::uint64_t root_ppn,
                             const mem::Pte& pte, std::uint64_t phys_page) {
  Entry* victim = nullptr;
  for (Entry& entry : entries_) {
    if (!entry.valid) {
      victim = &entry;
      break;
    }
    if (victim == nullptr || entry.lru_tick < victim->lru_tick) {
      victim = &entry;
    }
  }
  if (config_.host_indexed_lookup) {
    const auto index = static_cast<std::int32_t>(victim - entries_.data());
    if (victim->valid) UnlinkEntry(index);
    chain_next_[index] = bucket_head_[BucketOf(vpn, root_ppn)];
    bucket_head_[BucketOf(vpn, root_ppn)] = index;
  }
  if (trace_ != nullptr && trace_->enabled(trace::EventCategory::kTlb)) {
    if (victim->valid) {
      trace_->Emit(unit_, trace::EventCategory::kTlb,
                   trace::EventType::kTlbEvict, 0,
                   victim->vpn << mem::kPageShift, victim->pte.key());
    }
    trace_->Emit(unit_, trace::EventCategory::kTlb,
                 trace::EventType::kTlbFill, 0, vpn << mem::kPageShift,
                 pte.key());
  }
  victim->valid = true;
  victim->vpn = vpn;
  victim->asid_root = root_ppn;
  victim->pte = pte;
  victim->phys_page = phys_page;
  victim->lru_tick = ++tick_;
  return victim;
}

TlbResult Tlb::TranslateSlow(std::uint64_t root_ppn, std::uint64_t virt_addr,
                             AccessType access, std::uint32_t key) {
  const std::uint64_t vpn = virt_addr >> mem::kPageShift;
  if (Entry* entry = LookupEntry(vpn, root_ppn, access)) {
    return Hit(entry, virt_addr, access, key);
  }

  TlbResult result;
  ++stats_.misses;
  auto walk = walker_.Walk(root_ppn, virt_addr);
  const unsigned walk_cycles =
      config_.walk_cycles_per_level *
      (walk ? walker_.last_walk_accesses() : mem::kSv39Levels);
  if (!walk) {
    result.ok = false;
    result.cycles = walk_cycles;
    switch (access) {
      case AccessType::kFetch:
        result.cause = isa::TrapCause::kInstructionPageFault;
        break;
      case AccessType::kStore:
        result.cause = isa::TrapCause::kStorePageFault;
        break;
      case AccessType::kLoad:
        result.cause = isa::TrapCause::kLoadPageFault;
        break;
      case AccessType::kRoLoad:
        // An unmapped page can never satisfy the read-only+key requirement.
        result.cause = isa::TrapCause::kRoLoadPageFault;
        result.roload_fail_kind = RoLoadFailKind::kUnmapped;
        ++stats_.roload_writable_faults;
        break;
    }
    EmitRoLoadFault(result.cause, virt_addr, key);
    return result;
  }

  // Refill at 4 KiB granularity (superpages are fragmented on refill, like
  // simple L1 TLBs do).
  const std::uint64_t phys_page = walk->phys_addr >> mem::kPageShift;
  SetHint(access, InsertEntry(vpn, root_ppn, walk->pte, phys_page));

  if (auto cause = CheckPermissions(walk->pte, access, key, &stats_,
                                    &result.roload_fail_kind)) {
    result.ok = false;
    result.cycles = walk_cycles;
    result.cause = *cause;
    EmitRoLoadFault(result.cause, virt_addr, key);
    return result;
  }
  result.ok = true;
  result.phys_addr = walk->phys_addr;
  result.cycles = walk_cycles;
  return result;
}

void Tlb::Flush() {
  for (Entry& entry : entries_) entry.valid = false;
  // Drop every lookup shortcut with the entries: the last-translation
  // registers and bucket chains must never outlive a PTE edit, or a key
  // change made before the flush could be served stale.
  last_entry_ = nullptr;
  for (Entry*& last : last_translation_) last = nullptr;
  std::fill(bucket_head_.begin(), bucket_head_.end(), -1);
  std::fill(chain_next_.begin(), chain_next_.end(), -1);
  ++stats_.flushes;
  if (trace_ != nullptr && trace_->enabled(trace::EventCategory::kTlb)) {
    trace_->Emit(unit_, trace::EventCategory::kTlb,
                 trace::EventType::kTlbFlush, 0, 0, 0);
  }
}

}  // namespace roload::tlb
