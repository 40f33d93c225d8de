// Kernel tests: address-space construction, the mmap/mprotect-with-key
// syscall surface, brk, write capture, loader behaviour (keyed sections,
// permission tightening), and the fault discrimination paths.
#include <gtest/gtest.h>

#include "kernel/address_space.h"
#include "tests/guest_util.h"

namespace roload::kernel {
namespace {

using roload::testing::ExpectExit;
using roload::testing::RunGuest;

// ---------------------------------------------------------------------------
// AddressSpace unit tests (no CPU involved).
class AddressSpaceTest : public ::testing::Test {
 protected:
  AddressSpaceTest()
      : memory_(16 * 1024 * 1024), frames_(16, 2048),
        space_(&memory_, &frames_) {}

  mem::PhysMemory memory_;
  FrameAllocator frames_;
  AddressSpace space_;
};

TEST_F(AddressSpaceTest, MapCreatesReadablePte) {
  ASSERT_TRUE(space_.Map(0x10000, 2, PageProt::Rw()).ok());
  auto pte = space_.GetPte(0x10000);
  ASSERT_TRUE(pte.ok());
  EXPECT_TRUE(pte->readable());
  EXPECT_TRUE(pte->writable());
  EXPECT_TRUE(pte->user());
  EXPECT_EQ(pte->key(), 0u);
  EXPECT_TRUE(space_.GetPte(0x11000).ok());
  EXPECT_FALSE(space_.GetPte(0x12000).ok());
}

TEST_F(AddressSpaceTest, MapWithKey) {
  ASSERT_TRUE(space_.Map(0x20000, 1, PageProt::Ro(345)).ok());
  auto pte = space_.GetPte(0x20000);
  ASSERT_TRUE(pte.ok());
  EXPECT_EQ(pte->key(), 345u);
  EXPECT_FALSE(pte->writable());
}

TEST_F(AddressSpaceTest, DoubleMapFails) {
  ASSERT_TRUE(space_.Map(0x10000, 1, PageProt::Rw()).ok());
  EXPECT_EQ(space_.Map(0x10000, 1, PageProt::Rw()).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(AddressSpaceTest, UnalignedAndBadKeyRejected) {
  EXPECT_FALSE(space_.Map(0x10001, 1, PageProt::Rw()).ok());
  PageProt bad = PageProt::Ro(0);
  bad.key = 1024;  // exceeds the 10-bit field
  EXPECT_FALSE(space_.Map(0x10000, 1, bad).ok());
}

TEST_F(AddressSpaceTest, ProtectChangesPermsAndKey) {
  ASSERT_TRUE(space_.Map(0x10000, 1, PageProt::Rw()).ok());
  ASSERT_TRUE(space_.Protect(0x10000, 1, PageProt::Ro(42)).ok());
  auto pte = space_.GetPte(0x10000);
  ASSERT_TRUE(pte.ok());
  EXPECT_FALSE(pte->writable());
  EXPECT_EQ(pte->key(), 42u);
  EXPECT_FALSE(space_.Protect(0x99000, 1, PageProt::Rw()).ok());
}

TEST_F(AddressSpaceTest, CopyAcrossPageBoundary) {
  ASSERT_TRUE(space_.Map(0x10000, 2, PageProt::Rw()).ok());
  std::vector<std::uint8_t> payload(300);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(space_.CopyIn(0x10F80, payload.data(), payload.size()).ok());
  std::vector<std::uint8_t> readback(300);
  ASSERT_TRUE(space_.CopyOut(0x10F80, readback.data(), readback.size()).ok());
  EXPECT_EQ(payload, readback);
}

TEST_F(AddressSpaceTest, MappedPagesCounted) {
  const std::uint64_t before = space_.mapped_pages();
  ASSERT_TRUE(space_.Map(0x10000, 5, PageProt::Rw()).ok());
  EXPECT_EQ(space_.mapped_pages(), before + 5);
}

TEST(FrameAllocatorTest, ExhaustionAndReuse) {
  FrameAllocator frames(16, 2);
  auto a = frames.Allocate();
  auto b = frames.Allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(frames.Allocate().ok());
  EXPECT_EQ(frames.allocated_frames(), 2u);
}

// ---------------------------------------------------------------------------
// Syscall-level tests through guest programs.
TEST(SyscallTest, WriteCapturesStdout) {
  const auto run = RunGuest(R"(
.section .text
_start:
  li a0, 1
  la a1, msg
  li a2, 5
  li a7, 64
  ecall
  mv s0, a0     # bytes written
  li a0, 0
  mv a0, s0
  li a7, 93
  ecall
.section .rodata
msg: .asciz "hello"
)");
  ASSERT_EQ(run.result.kind, ExitKind::kExited);
  EXPECT_EQ(run.result.exit_code, 5);
  EXPECT_EQ(run.result.stdout_text, "hello");
}

TEST(SyscallTest, WriteBadFdFails) {
  const auto run = RunGuest(R"(
.section .text
_start:
  li a0, 7
  la a1, msg
  li a2, 5
  li a7, 64
  ecall
  li a7, 93
  ecall
.section .rodata
msg: .asciz "hello"
)");
  ASSERT_EQ(run.result.kind, ExitKind::kExited);
  EXPECT_EQ(run.result.exit_code, -9);  // EBADF
  EXPECT_TRUE(run.result.stdout_text.empty());
}

TEST(SyscallTest, BrkGrowsHeap) {
  ExpectExit(R"(
.section .text
_start:
  li a0, 0
  li a7, 214
  ecall             # a0 = current brk
  mv s0, a0
  addi a0, s0, 0x100
  li a7, 214
  ecall             # grow
  sd zero, 0(s0)    # heap page now writable
  ld a0, 0(s0)
  li a7, 93
  ecall
)",
             0);
}

TEST(SyscallTest, MmapAnonymousRw) {
  ExpectExit(R"(
.section .text
_start:
  li a0, 0
  li a1, 8192
  li a2, 3          # PROT_READ|PROT_WRITE
  li a7, 222
  ecall
  li t0, 123
  sd t0, 0(a0)
  li t1, 4096
  add t2, a0, t1
  sd t0, 0(t2)      # second page too
  ld a1, 0(t2)
  sub a0, a1, t0
  li a7, 93
  ecall
)",
             0);
}

TEST(SyscallTest, OffsetOutOfRangeIsAssemblerError) {
  auto image = asmtool::Assemble(
      ".text\n_start:\n  sd t0, 4096(a0)\n");
  ASSERT_FALSE(image.ok());
  EXPECT_NE(image.status().message().find("12-bit"), std::string::npos);
}

TEST(SyscallTest, MmapZeroLengthFails) {
  ExpectExit(R"(
.section .text
_start:
  li a0, 0
  li a1, 0
  li a2, 3
  li a7, 222
  ecall
  li a7, 93
  ecall
)",
             -22);  // EINVAL
}

TEST(SyscallTest, MprotectRevokesWrite) {
  const auto run = RunGuest(R"(
.section .text
_start:
  li a0, 0
  li a1, 4096
  li a2, 3
  li a7, 222
  ecall
  mv s0, a0
  li a0, 0
  mv a0, s0
  li a1, 4096
  li a2, 1          # PROT_READ only
  li a7, 226
  ecall
  sd zero, 0(s0)    # must fault now
  li a7, 93
  ecall
)");
  EXPECT_EQ(run.result.kind, ExitKind::kKilled);
  EXPECT_EQ(run.result.trap_cause, isa::TrapCause::kStorePageFault);
}

TEST(SyscallTest, UnknownSyscallReturnsEnosys) {
  ExpectExit(".section .text\n_start:\n  li a7, 9999\n  ecall\n"
             "  li a7, 93\n  ecall\n",
             -38);
}

// ---------------------------------------------------------------------------
// Loader behaviour.
TEST(LoaderTest, KeyedSectionsGetKeysOnlyOnRoloadAwareKernel) {
  const std::string program = R"(
.section .text
_start:
  la t0, list
  ld.ro a0, (t0), 9
  li a7, 93
  ecall
.section .rodata.key.9
list: .quad 5
)";
  const auto aware = RunGuest(program, core::SystemVariant::kFullRoload);
  EXPECT_EQ(aware.result.kind, ExitKind::kExited);
  EXPECT_EQ(aware.result.exit_code, 5);
  const auto unaware =
      RunGuest(program, core::SystemVariant::kProcessorModified);
  EXPECT_EQ(unaware.result.kind, ExitKind::kKilled);
}

TEST(LoaderTest, RodataIsNotWritableEvenThoughLoaderWroteIt) {
  const auto run = RunGuest(R"(
.section .text
_start:
  la t0, ro
  sd zero, 0(t0)
  li a7, 93
  ecall
.section .rodata
ro: .quad 1
)");
  EXPECT_EQ(run.result.kind, ExitKind::kKilled);
  EXPECT_EQ(run.result.trap_cause, isa::TrapCause::kStorePageFault);
}

TEST(LoaderTest, BssIsZeroInitialized) {
  ExpectExit(R"(
.section .text
_start:
  la t0, buf
  ld a0, 0(t0)
  ld a1, 2040(t0)
  add a0, a0, a1
  li a7, 93
  ecall
.section .bss
buf: .zero 2048
)",
             0);
}

TEST(LoaderTest, StackIsUsable) {
  ExpectExit(R"(
.section .text
_start:
  addi sp, sp, -32
  li t0, 77
  sd t0, 0(sp)
  sd t0, 24(sp)
  ld a0, 0(sp)
  addi sp, sp, 32
  addi a0, a0, -77
  li a7, 93
  ecall
)",
             0);
}

TEST(LoaderTest, InstructionLimitStopsRunaway) {
  const auto run = RunGuest(
      ".section .text\n_start:\nspin:\n  j spin\n",
      core::SystemVariant::kFullRoload, /*max_instructions=*/10000);
  EXPECT_EQ(run.result.kind, ExitKind::kInstructionLimit);
  EXPECT_GE(run.result.instructions, 10000u);
}

TEST(LoaderTest, PeakMemoryTracksMappings) {
  const auto small = RunGuest(
      ".text\n_start:\n  li a7, 93\n  ecall\n.data\nx: .zero 4096\n");
  const auto large = RunGuest(
      ".text\n_start:\n  li a7, 93\n  ecall\n.data\nx: .zero 409600\n");
  ASSERT_EQ(small.result.kind, ExitKind::kExited);
  ASSERT_EQ(large.result.kind, ExitKind::kExited);
  EXPECT_GT(large.result.peak_mem_kib, small.result.peak_mem_kib + 300);
}

// Fault discrimination: only the roload-aware kernel attributes ROLoad
// faults (the paper's modified arch/riscv/mm/fault.c).
TEST(FaultTest, DiscriminationMatrix) {
  const std::string bad_key = R"(
.section .text
_start:
  la t0, list
  ld.ro a0, (t0), 8
  li a7, 93
  ecall
.section .rodata.key.9
list: .quad 5
)";
  const auto aware = RunGuest(bad_key, core::SystemVariant::kFullRoload);
  EXPECT_EQ(aware.result.kind, ExitKind::kKilled);
  EXPECT_TRUE(aware.result.roload_violation);
  EXPECT_EQ(aware.result.signal, kSigsegv);

  // A benign (non-ROLoad) segfault must NOT be flagged as a violation.
  const auto benign = RunGuest(
      ".text\n_start:\n  li t0, 0x7000000\n  ld a0, 0(t0)\n");
  EXPECT_EQ(benign.result.kind, ExitKind::kKilled);
  EXPECT_FALSE(benign.result.roload_violation);
  EXPECT_EQ(benign.result.signal, kSigsegv);
}

TEST(MmapKeyTest, GuestBuildsItsOwnAllowlist) {
  // The full userspace flow: mmap RW, publish, mprotect(RO+key), ld.ro.
  ExpectExit(R"(
.section .text
_start:
  li a0, 0
  li a1, 4096
  li a2, 3
  li a7, 222
  ecall
  mv s0, a0
  li t0, 55
  sd t0, 8(s0)
  mv a0, s0
  li a1, 4096
  li a2, 0x150001   # PROT_READ | key 21 << 16
  li a7, 226
  ecall
  addi s1, s0, 8
  ld.ro a0, (s1), 21
  addi a0, a0, -55
  li a7, 93
  ecall
)",
             0);
}

}  // namespace
}  // namespace roload::kernel
