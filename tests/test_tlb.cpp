// TLB tests: the heart of the ROLoad mechanism. Covers the permission
// matrix for every access type, the parallel read-only + key check,
// miss/refill/flush behaviour, eviction, and a property-based sweep of the
// RoLoadCheck boolean function.
#include <gtest/gtest.h>

#include "kernel/address_space.h"
#include "support/rng.h"
#include "tlb/tlb.h"

namespace roload::tlb {
namespace {

using kernel::AddressSpace;
using kernel::FrameAllocator;
using kernel::PageProt;

class TlbTest : public ::testing::Test {
 protected:
  TlbTest()
      : memory_(8 * 1024 * 1024), frames_(16, 1024),
        space_(&memory_, &frames_), tlb_(TlbConfig{}, &memory_) {}

  void Map(std::uint64_t vaddr, const PageProt& prot) {
    ASSERT_TRUE(space_.Map(vaddr, 1, prot).ok());
  }

  TlbResult Translate(std::uint64_t vaddr, AccessType access,
                      std::uint32_t key = 0) {
    return tlb_.Translate(space_.root_ppn(), vaddr, access, key);
  }

  mem::PhysMemory memory_;
  FrameAllocator frames_;
  AddressSpace space_;
  Tlb tlb_;
};

TEST_F(TlbTest, MissThenHit) {
  Map(0x10000, PageProt::Rw());
  auto first = Translate(0x10008, AccessType::kLoad);
  EXPECT_TRUE(first.ok);
  EXPECT_GT(first.cycles, 0u);  // walk cost
  auto second = Translate(0x10010, AccessType::kLoad);
  EXPECT_TRUE(second.ok);
  EXPECT_EQ(second.cycles, 0u);  // TLB hit
  EXPECT_EQ(tlb_.stats().misses, 1u);
  EXPECT_EQ(tlb_.stats().hits, 1u);
}

TEST_F(TlbTest, TranslationOffsetPreserved) {
  Map(0x10000, PageProt::Rw());
  auto result = Translate(0x10ABC, AccessType::kLoad);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.phys_addr & 0xFFF, 0xABCu);
}

// The conventional permission matrix: access type x page protection.
struct PermCase {
  const char* name;
  PageProt prot;
  AccessType access;
  bool allowed;
  isa::TrapCause cause;
};

// Without this gtest prints the raw struct bytes, pointers included, into
// the listed test name, so the name would change with every build.
void PrintTo(const PermCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class PermissionMatrixTest : public ::testing::TestWithParam<PermCase> {};

TEST_P(PermissionMatrixTest, Enforced) {
  mem::PhysMemory memory(8 * 1024 * 1024);
  FrameAllocator frames(16, 1024);
  AddressSpace space(&memory, &frames);
  Tlb tlb(TlbConfig{}, &memory);
  ASSERT_TRUE(space.Map(0x10000, 1, GetParam().prot).ok());
  auto result =
      tlb.Translate(space.root_ppn(), 0x10000, GetParam().access, 111);
  EXPECT_EQ(result.ok, GetParam().allowed) << GetParam().name;
  if (!GetParam().allowed) {
    EXPECT_EQ(result.cause, GetParam().cause) << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PermissionMatrixTest,
    ::testing::Values(
        PermCase{"load_from_rw", PageProt::Rw(), AccessType::kLoad, true,
                 isa::TrapCause::kLoadPageFault},
        PermCase{"store_to_rw", PageProt::Rw(), AccessType::kStore, true,
                 isa::TrapCause::kStorePageFault},
        PermCase{"fetch_from_rw", PageProt::Rw(), AccessType::kFetch, false,
                 isa::TrapCause::kInstructionPageFault},
        PermCase{"load_from_ro", PageProt::Ro(), AccessType::kLoad, true,
                 isa::TrapCause::kLoadPageFault},
        PermCase{"store_to_ro", PageProt::Ro(), AccessType::kStore, false,
                 isa::TrapCause::kStorePageFault},
        PermCase{"fetch_from_rx", PageProt::Rx(), AccessType::kFetch, true,
                 isa::TrapCause::kInstructionPageFault},
        PermCase{"store_to_rx", PageProt::Rx(), AccessType::kStore, false,
                 isa::TrapCause::kStorePageFault},
        PermCase{"roload_matching_key", PageProt::Ro(111),
                 AccessType::kRoLoad, true,
                 isa::TrapCause::kRoLoadPageFault},
        PermCase{"roload_wrong_key", PageProt::Ro(112), AccessType::kRoLoad,
                 false, isa::TrapCause::kRoLoadPageFault},
        PermCase{"roload_writable_page", PageProt::Rw(), AccessType::kRoLoad,
                 false, isa::TrapCause::kRoLoadPageFault},
        PermCase{"roload_untagged_ro", PageProt::Ro(0), AccessType::kRoLoad,
                 false, isa::TrapCause::kRoLoadPageFault}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_F(TlbTest, RoLoadUnmappedIsRoLoadFault) {
  auto result = Translate(0x900000, AccessType::kRoLoad, 5);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.cause, isa::TrapCause::kRoLoadPageFault);
}

TEST_F(TlbTest, RoLoadFaultsCountedSeparately) {
  Map(0x10000, PageProt::Ro(5));
  Map(0x11000, PageProt::Rw());
  EXPECT_FALSE(Translate(0x10000, AccessType::kRoLoad, 6).ok);
  EXPECT_EQ(tlb_.stats().roload_key_faults, 1u);
  EXPECT_FALSE(Translate(0x11000, AccessType::kRoLoad, 6).ok);
  EXPECT_EQ(tlb_.stats().roload_writable_faults, 1u);
}

TEST_F(TlbTest, PerKeyCountsSumToAggregates) {
  Map(0x10000, PageProt::Ro(5));
  Map(0x11000, PageProt::Ro(9));
  Map(0x12000, PageProt::Rw());

  EXPECT_TRUE(Translate(0x10000, AccessType::kRoLoad, 5).ok);
  EXPECT_TRUE(Translate(0x10000, AccessType::kRoLoad, 5).ok);
  EXPECT_FALSE(Translate(0x10000, AccessType::kRoLoad, 9).ok);  // wrong key
  EXPECT_TRUE(Translate(0x11000, AccessType::kRoLoad, 9).ok);
  EXPECT_FALSE(Translate(0x12000, AccessType::kRoLoad, 5).ok);  // writable
  // Unmapped kRoLoad: no PTE, so no key check ran and the per-key table
  // must not move.
  EXPECT_FALSE(Translate(0x900000, AccessType::kRoLoad, 5).ok);

  const TlbStats& stats = tlb_.stats();
  std::uint64_t pass_sum = 0;
  std::uint64_t total_sum = 0;
  for (const TlbKeyCheckCount& entry : stats.key_check_by_key) {
    pass_sum += entry.passes;
    total_sum += entry.passes + entry.fails;
  }
  // The per-key breakdown is an exact partition of the aggregates.
  EXPECT_EQ(pass_sum, stats.key_check_hits);
  EXPECT_EQ(total_sum, stats.key_checks);
  EXPECT_EQ(stats.key_checks, 5u);  // the unmapped access never checked

  ASSERT_EQ(stats.key_check_by_key.size(), 2u);  // keys 5 and 9 only
  for (const TlbKeyCheckCount& entry : stats.key_check_by_key) {
    if (entry.key == 5) {
      EXPECT_EQ(entry.passes, 2u);
      EXPECT_EQ(entry.fails, 1u);  // the writable-page attempt used key 5
    } else {
      ASSERT_EQ(entry.key, 9u);
      EXPECT_EQ(entry.passes, 1u);
      EXPECT_EQ(entry.fails, 1u);  // the wrong-key attempt used key 9
    }
  }
}

TEST_F(TlbTest, TranslateReportsFailKind) {
  Map(0x10000, PageProt::Ro(5));
  Map(0x11000, PageProt::Rw());
  EXPECT_EQ(Translate(0x10000, AccessType::kRoLoad, 5).roload_fail_kind,
            RoLoadFailKind::kNone);
  EXPECT_EQ(Translate(0x10000, AccessType::kRoLoad, 6).roload_fail_kind,
            RoLoadFailKind::kKeyMismatch);
  EXPECT_EQ(Translate(0x11000, AccessType::kRoLoad, 5).roload_fail_kind,
            RoLoadFailKind::kWritablePage);
  EXPECT_EQ(Translate(0x900000, AccessType::kRoLoad, 5).roload_fail_kind,
            RoLoadFailKind::kUnmapped);
}

TEST_F(TlbTest, PermissionCheckHappensOnHitsToo) {
  Map(0x10000, PageProt::Ro(9));
  EXPECT_TRUE(Translate(0x10000, AccessType::kRoLoad, 9).ok);   // refill
  EXPECT_TRUE(Translate(0x10000, AccessType::kRoLoad, 9).ok);   // hit
  EXPECT_FALSE(Translate(0x10000, AccessType::kRoLoad, 10).ok); // hit+fail
  EXPECT_FALSE(Translate(0x10000, AccessType::kStore, 0).ok);
}

TEST_F(TlbTest, FlushForcesRewalk) {
  Map(0x10000, PageProt::Rw());
  Translate(0x10000, AccessType::kLoad);
  tlb_.Flush();
  auto result = Translate(0x10000, AccessType::kLoad);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(tlb_.stats().misses, 2u);
  EXPECT_EQ(tlb_.stats().flushes, 1u);
}

TEST_F(TlbTest, StaleEntryAfterProtectWithoutFlush) {
  // The kernel MUST flush after PTE edits; without a flush the TLB keeps
  // honouring the old permissions (architected sfence.vma behaviour).
  Map(0x10000, PageProt::Rw());
  EXPECT_TRUE(Translate(0x10000, AccessType::kStore).ok);
  ASSERT_TRUE(space_.Protect(0x10000, 1, PageProt::Ro(3)).ok());
  EXPECT_TRUE(Translate(0x10000, AccessType::kStore).ok);  // stale
  tlb_.Flush();
  EXPECT_FALSE(Translate(0x10000, AccessType::kStore).ok);
  EXPECT_TRUE(Translate(0x10000, AccessType::kRoLoad, 3).ok);
}

TEST_F(TlbTest, EvictionBeyondCapacity) {
  // 40 pages through a 32-entry TLB: the working set wraps, so the second
  // sweep must miss again (LRU) while staying functionally correct.
  for (std::uint64_t i = 0; i < 40; ++i) {
    Map(0x100000 + i * mem::kPageSize, PageProt::Rw());
  }
  for (std::uint64_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(
        Translate(0x100000 + i * mem::kPageSize, AccessType::kLoad).ok);
  }
  const std::uint64_t misses_first = tlb_.stats().misses;
  EXPECT_EQ(misses_first, 40u);
  for (std::uint64_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(
        Translate(0x100000 + i * mem::kPageSize, AccessType::kLoad).ok);
  }
  EXPECT_GT(tlb_.stats().misses, misses_first);
}

TEST(RoLoadCheckTest, TruthTableProperties) {
  // allowed <=> readable && !writable && key match.
  Rng rng(42);
  for (int trial = 0; trial < 5000; ++trial) {
    const bool readable = rng.NextPercent(50);
    const bool writable = rng.NextPercent(50);
    const std::uint32_t page_key =
        static_cast<std::uint32_t>(rng.NextBelow(1024));
    const std::uint32_t inst_key =
        rng.NextPercent(50) ? page_key
                            : static_cast<std::uint32_t>(rng.NextBelow(1024));
    const bool allowed = RoLoadCheck(readable, writable, page_key, inst_key);
    EXPECT_EQ(allowed, readable && !writable && page_key == inst_key);
  }
}

TEST(RoLoadCheckTest, NeverAllowsWritable) {
  for (std::uint32_t key = 0; key < 1024; key += 31) {
    EXPECT_FALSE(RoLoadCheck(true, true, key, key));
  }
}

// ---------------------------------------------------------------------------
// Host indexed-lookup differential: with host_indexed_lookup on, lookups
// go through the bucket chains and the per-access-type last-translation
// registers. Every translation of an arbitrary access stream must return
// the same result (ok, phys_addr, cycles, cause) and move the same stats
// as the reference fully-associative scan, access by access.

void RunIndexedLookupDifferential(TlbConfig config, std::uint64_t seed) {
  mem::PhysMemory memory(8 * 1024 * 1024);
  FrameAllocator frames(16, 1024);
  AddressSpace space(&memory, &frames);
  // A page population wider than the TLB with every protection flavour:
  // RW data, RX code, and RO pages under a handful of keys.
  constexpr std::uint64_t kBase = 0x100000;
  constexpr std::uint64_t kPages = 64;
  for (std::uint64_t i = 0; i < kPages; ++i) {
    PageProt prot;
    switch (i % 4) {
      case 0: prot = PageProt::Rw(); break;
      case 1: prot = PageProt::Rx(); break;
      default: prot = PageProt::Ro(static_cast<std::uint32_t>(i % 7)); break;
    }
    ASSERT_TRUE(space.Map(kBase + i * mem::kPageSize, 1, prot).ok());
  }

  TlbConfig reference = config;
  config.host_indexed_lookup = true;
  reference.host_indexed_lookup = false;
  Tlb fast(config, &memory);
  Tlb ref(reference, &memory);
  Rng rng(seed);
  constexpr AccessType kTypes[] = {AccessType::kFetch, AccessType::kLoad,
                                   AccessType::kStore, AccessType::kRoLoad};
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t page = rng.NextBelow(kPages);
    const std::uint64_t vaddr =
        kBase + page * mem::kPageSize + rng.NextBelow(mem::kPageSize);
    const AccessType access = kTypes[rng.NextBelow(4)];
    // Half the ld.ro probes carry the page's key, half a wrong one, so
    // both key-check outcomes (and their distinct stats) are exercised.
    const auto key = static_cast<std::uint32_t>(
        rng.NextPercent(50) ? page % 7 : rng.NextBelow(16));
    const TlbResult a = fast.Translate(space.root_ppn(), vaddr, access, key);
    const TlbResult b = ref.Translate(space.root_ppn(), vaddr, access, key);
    ASSERT_EQ(a.ok, b.ok) << "access " << i;
    ASSERT_EQ(a.phys_addr, b.phys_addr) << "access " << i;
    ASSERT_EQ(a.cycles, b.cycles) << "access " << i;
    if (!a.ok) {
      ASSERT_EQ(a.cause, b.cause) << "access " << i;
    }
    if (rng.NextPercent(1)) {
      fast.Flush();
      ref.Flush();
    }
  }
  EXPECT_EQ(fast.stats().hits, ref.stats().hits);
  EXPECT_EQ(fast.stats().misses, ref.stats().misses);
  EXPECT_EQ(fast.stats().flushes, ref.stats().flushes);
  EXPECT_EQ(fast.stats().permission_faults, ref.stats().permission_faults);
  EXPECT_EQ(fast.stats().roload_key_faults, ref.stats().roload_key_faults);
  EXPECT_EQ(fast.stats().roload_writable_faults,
            ref.stats().roload_writable_faults);
  EXPECT_EQ(fast.stats().key_checks, ref.stats().key_checks);
  EXPECT_EQ(fast.stats().key_check_hits, ref.stats().key_check_hits);
}

TEST(TlbIndexedLookupTest, MatchesReferenceDefaultConfig) {
  RunIndexedLookupDifferential(TlbConfig{}, 11);
}

TEST(TlbIndexedLookupTest, MatchesReferenceUnderEvictionChurn) {
  // 4 entries over 64 pages: constant global-LRU eviction and chain
  // unlinking, the paths most likely to diverge from the linear scan.
  TlbConfig config;
  config.entries = 4;
  RunIndexedLookupDifferential(config, 12);
}

TEST_F(TlbTest, FlushDropsLastTranslationShortcut) {
  // Regression: the per-access-type last-translation registers must not
  // outlive a flush, or a PTE key change after sfence.vma would be served
  // the stale key and the ld.ro check silently skipped.
  Map(0x10000, PageProt::Ro(7));
  ASSERT_TRUE(Translate(0x10000, AccessType::kRoLoad, 7).ok);  // warm hint
  ASSERT_TRUE(space_.Protect(0x10000, 1, PageProt::Ro(9)).ok());
  tlb_.Flush();
  const auto stale = Translate(0x10008, AccessType::kRoLoad, 7);
  EXPECT_FALSE(stale.ok);
  EXPECT_EQ(stale.cause, isa::TrapCause::kRoLoadPageFault);
  EXPECT_EQ(tlb_.stats().roload_key_faults, 1u);
  EXPECT_TRUE(Translate(0x10010, AccessType::kRoLoad, 9).ok);
}

TEST(TlbConfigTest, SmallTlbStillCorrect) {
  mem::PhysMemory memory(8 * 1024 * 1024);
  FrameAllocator frames(16, 1024);
  AddressSpace space(&memory, &frames);
  TlbConfig config;
  config.entries = 2;
  Tlb tlb(config, &memory);
  ASSERT_TRUE(space.Map(0x10000, 4, PageProt::Ro(8)).ok());
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t page = 0; page < 4; ++page) {
      auto result =
          tlb.Translate(space.root_ppn(), 0x10000 + page * mem::kPageSize,
                        AccessType::kRoLoad, 8);
      EXPECT_TRUE(result.ok);
    }
  }
}

}  // namespace
}  // namespace roload::tlb
