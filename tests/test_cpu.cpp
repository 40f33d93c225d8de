// CPU execution tests: ALU semantics validated against host-computed
// golden values (parameterized property sweeps), load/store widths and
// sign extension, control flow, M-extension edge cases, trap behaviour,
// and the ld.ro execution paths on all system variants.
#include <gtest/gtest.h>

#include "support/rng.h"
#include "support/strings.h"
#include "tests/guest_util.h"

namespace roload {
namespace {

using testing::ExpectExit;
using testing::RunGuest;

std::string ExitWith(const std::string& body) {
  return ".section .text\n_start:\n" + body + "\n  li a7, 93\n  ecall\n";
}

// ---------------------------------------------------------------------------
// ALU property sweep: each op computed by the guest and compared against a
// host-side golden model. Result is reduced mod 64 via two probes (low and
// high bits) so full-width values are checked.
struct AluCase {
  const char* mnemonic;
  std::int64_t (*golden)(std::int64_t, std::int64_t);
};

// Without this gtest prints the raw struct bytes, pointers included, into
// the listed test name, so the name would change with every build.
void PrintTo(const AluCase& test_case, std::ostream* os) {
  *os << test_case.mnemonic;
}

const AluCase kAluCases[] = {
    {"add", [](std::int64_t a, std::int64_t b) { return a + b; }},
    {"sub", [](std::int64_t a, std::int64_t b) { return a - b; }},
    {"and", [](std::int64_t a, std::int64_t b) { return a & b; }},
    {"or", [](std::int64_t a, std::int64_t b) { return a | b; }},
    {"xor", [](std::int64_t a, std::int64_t b) { return a ^ b; }},
    {"mul", [](std::int64_t a, std::int64_t b) { return a * b; }},
    {"slt",
     [](std::int64_t a, std::int64_t b) { return std::int64_t{a < b}; }},
    {"sltu",
     [](std::int64_t a, std::int64_t b) {
       return std::int64_t{static_cast<std::uint64_t>(a) <
                           static_cast<std::uint64_t>(b)};
     }},
    {"sll",
     [](std::int64_t a, std::int64_t b) { return a << (b & 63); }},
    {"srl",
     [](std::int64_t a, std::int64_t b) {
       return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >>
                                        (b & 63));
     }},
    {"sra", [](std::int64_t a, std::int64_t b) { return a >> (b & 63); }},
    {"addw",
     [](std::int64_t a, std::int64_t b) {
       return static_cast<std::int64_t>(static_cast<std::int32_t>(a + b));
     }},
    {"subw",
     [](std::int64_t a, std::int64_t b) {
       return static_cast<std::int64_t>(static_cast<std::int32_t>(a - b));
     }},
    {"mulw",
     [](std::int64_t a, std::int64_t b) {
       return static_cast<std::int64_t>(static_cast<std::int32_t>(a * b));
     }},
};

class AluGoldenTest : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluGoldenTest, MatchesHostSemantics) {
  const AluCase& test_case = GetParam();
  Rng rng(std::string_view(test_case.mnemonic).size() * 977 + 5);
  for (int trial = 0; trial < 8; ++trial) {
    // Operands that fit the li pseudo-expansion (32-bit signed).
    const auto a = static_cast<std::int64_t>(
        static_cast<std::int32_t>(rng.NextU64()));
    const auto b = static_cast<std::int64_t>(
        static_cast<std::int32_t>(rng.NextU64()));
    const std::int64_t golden = test_case.golden(a, b);
    // probe = (golden ^ (golden >> 32)) & 63 exercises both halves.
    const std::int64_t probe = (golden ^ (golden >> 32)) & 63;
    const std::string body = StrFormat(
        "  li t0, %lld\n"
        "  li t1, %lld\n"
        "  %s t2, t0, t1\n"
        "  srai t3, t2, 32\n"
        "  xor a0, t2, t3\n"
        "  andi a0, a0, 63\n",
        static_cast<long long>(a), static_cast<long long>(b),
        test_case.mnemonic);
    ExpectExit(ExitWith(body), probe);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, AluGoldenTest, ::testing::ValuesIn(kAluCases),
                         [](const auto& info) {
                           return std::string(info.param.mnemonic);
                         });

// ---------------------------------------------------------------------------
// Division edge cases (RISC-V defines them, no traps).
TEST(CpuDivTest, DivideByZero) {
  ExpectExit(ExitWith("  li t0, 42\n  li t1, 0\n  div t2, t0, t1\n"
                      "  andi a0, t2, 63\n"),
             63);  // -1 & 63
  ExpectExit(ExitWith("  li t0, 42\n  li t1, 0\n  rem t2, t0, t1\n"
                      "  andi a0, t2, 63\n"),
             42);
  ExpectExit(ExitWith("  li t0, 42\n  li t1, 0\n  divu t2, t0, t1\n"
                      "  andi a0, t2, 63\n"),
             63);
  ExpectExit(ExitWith("  li t0, 42\n  li t1, 0\n  remu t2, t0, t1\n"
                      "  andi a0, t2, 63\n"),
             42);
}

TEST(CpuDivTest, SignedOverflow) {
  // INT64_MIN / -1 = INT64_MIN; INT64_MIN % -1 = 0. Build INT64_MIN as
  // 1 << 63.
  ExpectExit(ExitWith("  li t0, 1\n  slli t0, t0, 63\n  li t1, -1\n"
                      "  div t2, t0, t1\n  srli a0, t2, 58\n"),
             32);  // top bits of INT64_MIN
  ExpectExit(ExitWith("  li t0, 1\n  slli t0, t0, 63\n  li t1, -1\n"
                      "  rem t2, t0, t1\n  andi a0, t2, 63\n"),
             0);
}

// ---------------------------------------------------------------------------
// Loads/stores: width and sign extension through .data.
TEST(CpuMemTest, WidthAndSignExtension) {
  const std::string program = R"(
.section .text
_start:
  la t0, bytes
  lb a0, 0(t0)       # 0xFF -> -1
  lbu a1, 0(t0)      # 0xFF -> 255
  lh a2, 0(t0)       # 0x80FF sign-extended
  lhu a3, 0(t0)      # 0x80FF
  add a0, a0, a1     # -1 + 255 = 254
  add a2, a2, a3     # -32513 + 33023 = 510
  add a0, a0, a2     # 764
  andi a0, a0, 63
  li a7, 93
  ecall
.section .data
bytes:
  .byte 0xFF, 0x80, 0, 0
)";
  testing::ExpectExit(program, 764 & 63);
}

TEST(CpuMemTest, StoreLoadRoundTripAllWidths) {
  const std::string program = R"(
.section .text
_start:
  la t0, buf
  li t1, 0x12345678
  sb t1, 0(t0)
  sh t1, 2(t0)
  sw t1, 4(t0)
  sd t1, 8(t0)
  lbu a0, 0(t0)      # 0x78
  lhu a1, 2(t0)      # 0x5678
  lwu a2, 4(t0)      # 0x12345678
  ld  a3, 8(t0)
  sub a1, a1, a0     # 0x5600
  sub a2, a2, a3     # 0
  add a0, a1, a2
  srli a0, a0, 8     # 0x56
  andi a0, a0, 63
  li a7, 93
  ecall
.section .data
buf:
  .zero 16
)";
  testing::ExpectExit(program, 0x56 & 63);
}

TEST(CpuMemTest, MisalignedLoadTraps) {
  const auto run = RunGuest(ExitWith("  la t0, _start\n  addi t0, t0, 1\n"
                                     "  ld a0, 0(t0)\n"));
  EXPECT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  EXPECT_EQ(run.result.trap_cause, isa::TrapCause::kLoadAddressMisaligned);
}

TEST(CpuMemTest, StoreToCodeTraps) {
  const auto run =
      RunGuest(ExitWith("  la t0, _start\n  li t1, 0\n  sd t1, 0(t0)\n"));
  EXPECT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  EXPECT_EQ(run.result.trap_cause, isa::TrapCause::kStorePageFault);
  EXPECT_EQ(run.result.signal, kernel::kSigsegv);
}

TEST(CpuMemTest, LoadFromUnmappedTraps) {
  const auto run = RunGuest(ExitWith("  li t0, 0x7000000\n  ld a0, 0(t0)\n"));
  EXPECT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  EXPECT_EQ(run.result.trap_cause, isa::TrapCause::kLoadPageFault);
}

// ---------------------------------------------------------------------------
// Control flow.
TEST(CpuControlTest, BranchMatrix) {
  struct Case {
    const char* op;
    std::int64_t a, b;
    bool taken;
  };
  const Case cases[] = {
      {"beq", 5, 5, true},    {"beq", 5, 6, false},
      {"bne", 5, 6, true},    {"bne", 5, 5, false},
      {"blt", -1, 0, true},   {"blt", 0, -1, false},
      {"bge", 0, -1, true},   {"bge", -1, 0, false},
      {"bltu", 0, -1, true},  {"bltu", -1, 0, false},  // unsigned wrap
      {"bgeu", -1, 0, true},  {"bgeu", 0, -1, false},
  };
  for (const Case& test_case : cases) {
    const std::string body = StrFormat(
        "  li t0, %lld\n  li t1, %lld\n  %s t0, t1, taken\n"
        "  li a0, 0\n  j out\ntaken:\n  li a0, 1\nout:\n",
        static_cast<long long>(test_case.a),
        static_cast<long long>(test_case.b), test_case.op);
    ExpectExit(ExitWith(body), test_case.taken ? 1 : 0);
  }
}

TEST(CpuControlTest, CallAndReturn) {
  const std::string program = R"(
.section .text
_start:
  li a0, 20
  call double_it
  call double_it
  li a7, 93
  ecall
double_it:
  add a0, a0, a0
  ret
)";
  testing::ExpectExit(program, 80);
}

TEST(CpuControlTest, IndirectJumpClearsLowBit) {
  // jalr must clear bit 0 of the target (RISC-V semantics).
  const std::string program = R"(
.section .text
_start:
  la t0, target
  addi t0, t0, 1
  jalr ra, 0(t0)
target:
  li a0, 9
  li a7, 93
  ecall
)";
  testing::ExpectExit(program, 9);
}

TEST(CpuControlTest, LoopCycleAccounting) {
  // 1000-iteration countdown; verify instruction count is proportional.
  const auto run = RunGuest(ExitWith(
      "  li t0, 1000\nloop:\n  addi t0, t0, -1\n  bnez t0, loop\n"
      "  li a0, 7\n"));
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kExited);
  EXPECT_GT(run.result.instructions, 2000u);
  EXPECT_LT(run.result.instructions, 2100u);
  EXPECT_GE(run.result.cycles, run.result.instructions);
}

// ---------------------------------------------------------------------------
// ROLoad execution semantics.
std::string RoLoadProgram(unsigned key) {
  return StrFormat(R"(
.section .text
_start:
  la t0, allowlist
  ld.ro a0, (t0), %u
  andi a0, a0, 63
  li a7, 93
  ecall
.section .rodata.key.111
allowlist:
  .quad 42
)",
                   key);
}

TEST(RoLoadExecTest, MatchingKeyLoads) {
  testing::ExpectExit(RoLoadProgram(111), 42);
}

TEST(RoLoadExecTest, WrongKeyRaisesRoLoadFault) {
  const auto run = RunGuest(RoLoadProgram(112));
  EXPECT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  EXPECT_EQ(run.result.trap_cause, isa::TrapCause::kRoLoadPageFault);
  EXPECT_TRUE(run.result.roload_violation);
  EXPECT_EQ(run.result.signal, kernel::kSigsegv);
}

TEST(RoLoadExecTest, WritableTargetRaisesRoLoadFault) {
  const std::string program = R"(
.section .text
_start:
  la t0, writable
  ld.ro a0, (t0), 111
  li a7, 93
  ecall
.section .data
writable:
  .quad 42
)";
  const auto run = RunGuest(program);
  EXPECT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  EXPECT_EQ(run.result.trap_cause, isa::TrapCause::kRoLoadPageFault);
}

TEST(RoLoadExecTest, IllegalOnBaselineProcessor) {
  const auto run =
      RunGuest(RoLoadProgram(111), core::SystemVariant::kBaseline);
  EXPECT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  EXPECT_EQ(run.result.trap_cause, isa::TrapCause::kIllegalInstruction);
  EXPECT_EQ(run.result.signal, kernel::kSigill);
}

TEST(RoLoadExecTest, KeyFaultOnUnmodifiedKernel) {
  // Processor decodes ld.ro but the kernel never tagged the pages.
  const auto run =
      RunGuest(RoLoadProgram(111), core::SystemVariant::kProcessorModified);
  EXPECT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  EXPECT_EQ(run.result.trap_cause, isa::TrapCause::kRoLoadPageFault);
  // The unmodified kernel cannot attribute the fault to ROLoad.
  EXPECT_FALSE(run.result.roload_violation);
}

TEST(RoLoadExecTest, CompressedLdRoWorks) {
  const std::string program = R"(
.section .text
_start:
  la s1, allowlist
  c.ld.ro a5, (s1), 7
  andi a0, a5, 63
  li a7, 93
  ecall
.section .rodata.key.7
allowlist:
  .quad 41
)";
  testing::ExpectExit(program, 41);
}

TEST(RoLoadExecTest, NarrowRoLoadWidths) {
  const std::string program = R"(
.section .text
_start:
  la t0, allowlist
  lw.ro a0, (t0), 9
  la t0, bytes
  lb.ro a1, (t0), 9
  add a0, a0, a1
  andi a0, a0, 63
  li a7, 93
  ecall
.section .rodata.key.9
allowlist:
  .word 30
  .word 0
bytes:
  .byte 12
)";
  testing::ExpectExit(program, 42);
}

TEST(RoLoadExecTest, RoLoadCountsInStats) {
  const auto run = RunGuest(RoLoadProgram(111));
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kExited);
  EXPECT_EQ(run.system->cpu().stats().roload_loads, 1u);
}

TEST(CpuTrapTest, EbreakRaisesBreakpoint) {
  const auto run = RunGuest(ExitWith("  ebreak\n"));
  EXPECT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  EXPECT_EQ(run.result.trap_cause, isa::TrapCause::kBreakpoint);
}

TEST(CpuTrapTest, FaultPcIsReported) {
  const auto run = RunGuest(ExitWith("  li t0, 0x7000000\n  ld a0, 0(t0)\n"));
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  EXPECT_EQ(run.result.fault_addr, 0x7000000u);
  EXPECT_GE(run.result.fault_pc, 0x10000u);
}

// ---------------------------------------------------------------------------
// Host fast path differentials: the decode cache, indexed TLB lookup,
// cache index math and unchecked memory accessors are host-only — a guest
// run with all of them off (the reference simulator) must be bit-identical
// in every architectural and micro-architectural observable.

core::SystemConfig ReferenceConfig() {
  core::SystemConfig config;
  cpu::SetHostFastPaths(&config.cpu, false);
  return config;
}

// Loops over loads, stores, branches and a hot ld.ro against a page the
// guest itself mmaps, publishes and rekeys — every fast path (decode
// cache, both TLBs, both caches, the kernel flush paths) gets traffic.
constexpr char kMixedWorkload[] = R"(
.section .text
_start:
  li a0, 0
  li a1, 4096
  li a2, 3
  li a7, 222
  ecall
  mv s0, a0
  li t0, 1234
  sd t0, 0(s0)
  mv a0, s0
  li a1, 4096
  li a2, 0x150001   # PROT_READ | key 21 << 16
  li a7, 226
  ecall
  li s1, 0
  li s2, 500
loop:
  ld.ro t0, (s0), 21
  add s1, s1, t0
  la t1, table
  ld t2, 0(t1)
  add s1, s1, t2
  la t3, scratch
  sd s1, 0(t3)
  addi s2, s2, -1
  bnez s2, loop
  andi a0, s1, 255
  li a7, 93
  ecall
.section .data
scratch: .zero 8
.section .rodata.key.3
table: .quad 7
)";

TEST(HostFastPathTest, GuestRunBitIdenticalWithFastPathsOff) {
  const auto fast = RunGuest(kMixedWorkload, core::SystemConfig{});
  const auto ref = RunGuest(kMixedWorkload, ReferenceConfig());
  ASSERT_EQ(fast.result.kind, kernel::ExitKind::kExited);
  ASSERT_EQ(ref.result.kind, kernel::ExitKind::kExited);
  EXPECT_EQ(fast.result.exit_code, ref.result.exit_code);
  EXPECT_EQ(fast.result.cycles, ref.result.cycles);
  EXPECT_EQ(fast.result.instructions, ref.result.instructions);
  EXPECT_EQ(fast.result.peak_mem_kib, ref.result.peak_mem_kib);
  const auto& fs = fast.system->cpu().stats();
  const auto& rs = ref.system->cpu().stats();
  EXPECT_EQ(fs.loads, rs.loads);
  EXPECT_EQ(fs.stores, rs.stores);
  EXPECT_EQ(fs.roload_loads, rs.roload_loads);
  EXPECT_EQ(fs.branches, rs.branches);
  EXPECT_EQ(fs.taken_branches, rs.taken_branches);
  EXPECT_EQ(fs.indirect_jumps, rs.indirect_jumps);
  EXPECT_EQ(fast.system->cpu().itlb_stats().hits,
            ref.system->cpu().itlb_stats().hits);
  EXPECT_EQ(fast.system->cpu().itlb_stats().misses,
            ref.system->cpu().itlb_stats().misses);
  EXPECT_EQ(fast.system->cpu().dtlb_stats().hits,
            ref.system->cpu().dtlb_stats().hits);
  EXPECT_EQ(fast.system->cpu().dtlb_stats().misses,
            ref.system->cpu().dtlb_stats().misses);
  EXPECT_EQ(fast.system->cpu().dtlb_stats().key_checks,
            ref.system->cpu().dtlb_stats().key_checks);
  EXPECT_EQ(fast.system->cpu().icache_stats().hits,
            ref.system->cpu().icache_stats().hits);
  EXPECT_EQ(fast.system->cpu().icache_stats().misses,
            ref.system->cpu().icache_stats().misses);
  EXPECT_EQ(fast.system->cpu().dcache_stats().hits,
            ref.system->cpu().dcache_stats().hits);
  EXPECT_EQ(fast.system->cpu().dcache_stats().misses,
            ref.system->cpu().dcache_stats().misses);
  EXPECT_EQ(fast.system->cpu().dcache_stats().writebacks,
            ref.system->cpu().dcache_stats().writebacks);
  // The full telemetry registry in one shot — any counter drift fails.
  EXPECT_EQ(fast.system->trace().counters().Snapshot(),
            ref.system->trace().counters().Snapshot());
}

TEST(HostFastPathTest, FaultBitIdenticalWithFastPathsOff) {
  // A key-mismatch ld.ro: the fault cause, address, pc and cycle count
  // must not depend on which lookup path detected it.
  const std::string source = R"(
.section .text
_start:
  la t0, list
  ld.ro a0, (t0), 8
  li a7, 93
  ecall
.section .rodata.key.9
list: .quad 5
)";
  const auto fast = RunGuest(source, core::SystemConfig{});
  const auto ref = RunGuest(source, ReferenceConfig());
  ASSERT_EQ(fast.result.kind, kernel::ExitKind::kKilled);
  ASSERT_EQ(ref.result.kind, kernel::ExitKind::kKilled);
  EXPECT_TRUE(fast.result.roload_violation);
  EXPECT_EQ(fast.result.trap_cause, ref.result.trap_cause);
  EXPECT_EQ(fast.result.fault_addr, ref.result.fault_addr);
  EXPECT_EQ(fast.result.fault_pc, ref.result.fault_pc);
  EXPECT_EQ(fast.result.cycles, ref.result.cycles);
}

TEST(HostFastPathTest, KeyRotationAfterMprotectIsObserved) {
  // Regression: a hot ld.ro warms the D-TLB last-translation register;
  // the mprotect rekey (sfence.vma path) must drop it so the next ld.ro
  // with the now-stale key faults instead of being served the old PTE.
  const std::string source = R"(
.section .text
_start:
  li a0, 0
  li a1, 4096
  li a2, 3
  li a7, 222
  ecall
  mv s0, a0
  li t0, 55
  sd t0, 0(s0)
  mv a0, s0
  li a1, 4096
  li a2, 0x150001   # PROT_READ | key 21 << 16
  li a7, 226
  ecall
  ld.ro t1, (s0), 21
  mv a0, s0
  li a1, 4096
  li a2, 0x90001    # PROT_READ | key 9 << 16
  li a7, 226
  ecall
  ld.ro t2, (s0), 21
  li a0, 0
  li a7, 93
  ecall
)";
  const auto run = RunGuest(source, core::SystemConfig{});
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  EXPECT_TRUE(run.result.roload_violation);
  EXPECT_EQ(run.result.trap_cause, isa::TrapCause::kRoLoadPageFault);
}

TEST(HostFastPathTest, SelfModifyingCodeIsDecodedFresh) {
  // Regression for the decode cache's raw-bit validation: the guest
  // copies routine f1 into an RWX page, calls it, overwrites the same
  // bytes with f2 and calls again. A decode cache that trusted pc alone
  // would replay f1's decode and exit 14 instead of 16.
  const std::string source = R"(
.section .text
_start:
  li a0, 0
  li a1, 4096
  li a2, 7          # PROT_READ | PROT_WRITE | PROT_EXEC
  li a7, 222
  ecall
  mv s0, a0
  la t0, f1
  ld t1, 0(t0)
  sd t1, 0(s0)
  ld t1, 8(t0)
  sd t1, 8(s0)
  jalr ra, 0(s0)
  mv s1, a0
  la t0, f2
  ld t1, 0(t0)
  sd t1, 0(s0)
  ld t1, 8(t0)
  sd t1, 8(s0)
  jalr ra, 0(s0)
  add a0, a0, s1
  li a7, 93
  ecall
.align 3
f1:
  li a0, 7
  ret
  nop
  nop
.align 3
f2:
  li a0, 9
  ret
  nop
  nop
)";
  const auto fast = RunGuest(source, core::SystemConfig{});
  const auto ref = RunGuest(source, ReferenceConfig());
  ASSERT_EQ(fast.result.kind, kernel::ExitKind::kExited)
      << isa::TrapCauseName(fast.result.trap_cause);
  EXPECT_EQ(fast.result.exit_code, 16);
  ASSERT_EQ(ref.result.kind, kernel::ExitKind::kExited);
  EXPECT_EQ(ref.result.exit_code, 16);
  EXPECT_EQ(fast.result.cycles, ref.result.cycles);
}

TEST(CpuStatsTest, CountersTrackInstructionMix) {
  const auto run = RunGuest(ExitWith(
      "  la t0, _start\n  ld t1, 0(t0)\n  la t2, buf\n  sd t1, 0(t2)\n"
      "  li a0, 0\n.section .data\nbuf: .zero 8\n.section .text\n"));
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kExited);
  const auto& stats = run.system->cpu().stats();
  EXPECT_GE(stats.loads, 1u);
  EXPECT_GE(stats.stores, 1u);
  EXPECT_EQ(stats.roload_loads, 0u);
}

}  // namespace
}  // namespace roload
