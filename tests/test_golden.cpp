// Golden simulation results: fixed cycles, instructions, exit codes, peak
// memory and counter-snapshot digests for a small grid of runs — spec-like
// workloads under every defense, the RPC server at 1/2/4 harts, a
// two-process round-robin run, and the four attacks at 1 and 4 harts.
// The values pin the simulator's observable behaviour so that refactors of
// the machine, the kernel scheduler or the run API can prove they changed
// nothing. A mismatch prints the actual row; a deliberate model change
// must update the table by hand and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "asmtool/assembler.h"
#include "core/toolchain.h"
#include "sec/attack.h"
#include "support/strings.h"
#include "workloads/spec_like.h"

namespace roload {
namespace {

using Snapshot = std::vector<std::pair<std::string, std::uint64_t>>;

// FNV-1a over every "name=value;" pair of a sorted counter snapshot.
std::uint64_t Digest(const Snapshot& counters) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](const std::string& text) {
    for (const char c : text) {
      hash ^= static_cast<std::uint8_t>(c);
      hash *= 0x100000001b3ull;
    }
  };
  for (const auto& [name, value] : counters) {
    mix(name + "=" + std::to_string(value) + ";");
  }
  return hash;
}

std::string RunRow(const std::string& key, const core::RunMetrics& m) {
  return StrFormat("%s cycles=%llu instret=%llu exit=%lld peak_kib=%llu "
                   "digest=%016llx",
                   key.c_str(), static_cast<unsigned long long>(m.cycles),
                   static_cast<unsigned long long>(m.instructions),
                   static_cast<long long>(m.exit_code),
                   static_cast<unsigned long long>(m.peak_mem_kib),
                   static_cast<unsigned long long>(Digest(m.counters)));
}

core::BuildResult MustBuild(const workloads::WorkloadSpec& spec,
                            core::Defense defense) {
  core::BuildOptions options;
  options.defense = defense;
  auto build = core::Build(workloads::Generate(spec), options);
  EXPECT_TRUE(build.ok()) << build.status().ToString();
  return std::move(*build);
}

core::RunMetrics MustRun(const core::BuildResult& build, unsigned harts) {
  auto metrics = core::RunBuild(build, core::SystemVariant::kFullRoload,
                                1ull << 34, {}, cpu::ExecTier::kFast, harts);
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  return std::move(*metrics);
}

void ExpectRows(const std::vector<std::string>& actual,
                const std::vector<std::string>& expected) {
  EXPECT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const std::string want = i < expected.size() ? expected[i] : "";
    EXPECT_EQ(actual[i], want) << "actual row:\n      \"" << actual[i]
                               << "\",";
  }
}

constexpr core::Defense kDefenses[] = {
    core::Defense::kNone, core::Defense::kVCall, core::Defense::kVTint,
    core::Defense::kICall, core::Defense::kClassicCfi};

TEST(GoldenRunTest, SpecLikeWorkloadsOnOneHart) {
  const std::vector<std::string> expected = {
      "401.bzip2_like/none/h1 cycles=329033 instret=100107 exit=4 peak_kib=16668 digest=05af5fe4ab6147ce",
      "401.bzip2_like/VCall/h1 cycles=329033 instret=100107 exit=4 peak_kib=16668 digest=05af5fe4ab6147ce",
      "401.bzip2_like/VTint/h1 cycles=329033 instret=100107 exit=4 peak_kib=16668 digest=05af5fe4ab6147ce",
      "401.bzip2_like/ICall/h1 cycles=332067 instret=100525 exit=4 peak_kib=16692 digest=ef4d6ff9e5cb12c5",
      "401.bzip2_like/CFI/h1 cycles=350887 instret=106708 exit=4 peak_kib=16672 digest=2a66de3ccaa61b42",
      "471.omnetpp_like/none/h1 cycles=457736 instret=130145 exit=8 peak_kib=12640 digest=25eeee74d44c6ca9",
      "471.omnetpp_like/VCall/h1 cycles=458362 instret=130300 exit=8 peak_kib=12652 digest=52e41eccee0356c8",
      "471.omnetpp_like/VTint/h1 cycles=482916 instret=135484 exit=8 peak_kib=12656 digest=813fb633a40d192d",
      "471.omnetpp_like/ICall/h1 cycles=464507 instret=131265 exit=8 peak_kib=12668 digest=c0f983b7d8207f6a",
      "471.omnetpp_like/CFI/h1 cycles=531880 instret=148610 exit=8 peak_kib=12664 digest=3f9472ec98534992",
  };
  const auto suite = workloads::SpecCint2006Suite(0.05);
  std::vector<std::string> actual;
  for (const char* name : {"401.bzip2_like", "471.omnetpp_like"}) {
    const workloads::WorkloadSpec* spec = nullptr;
    for (const auto& candidate : suite) {
      if (candidate.name == name) spec = &candidate;
    }
    ASSERT_NE(spec, nullptr) << name;
    for (const core::Defense defense : kDefenses) {
      const core::BuildResult build = MustBuild(*spec, defense);
      actual.push_back(RunRow(
          StrFormat("%s/%s/h1", name,
                    std::string(core::DefenseName(defense)).c_str()),
          MustRun(build, 1)));
    }
  }
  ExpectRows(actual, expected);
}

TEST(GoldenRunTest, RpcServerAtOneTwoAndFourHarts) {
  const std::vector<std::string> expected = {
      "rpc_server/none/h1 cycles=268992 instret=86357 exit=10 peak_kib=2332 digest=e45d2c118d70bdf4",
      "rpc_server/none/h2 cycles=143330 instret=84251 exit=4 peak_kib=2588 digest=7838d71d13ee9960",
      "rpc_server/none/h4 cycles=82689 instret=86016 exit=46 peak_kib=3100 digest=4b628543548fac1a",
      "rpc_server/ICall/h1 cycles=271025 instret=86907 exit=10 peak_kib=2356 digest=3db2f2cf84c3fe12",
      "rpc_server/ICall/h2 cycles=144659 instret=84768 exit=4 peak_kib=2612 digest=9fa582386fa406a2",
      "rpc_server/ICall/h4 cycles=83454 instret=86547 exit=46 peak_kib=3124 digest=a3001eaf3c13e146",
  };
  std::vector<std::string> actual;
  for (const core::Defense defense :
       {core::Defense::kNone, core::Defense::kICall}) {
    const core::BuildResult build =
        MustBuild(workloads::RpcServerWorkload(200), defense);
    for (const unsigned harts : {1u, 2u, 4u}) {
      actual.push_back(RunRow(
          StrFormat("rpc_server/%s/h%u",
                    std::string(core::DefenseName(defense)).c_str(), harts),
          MustRun(build, harts)));
    }
  }
  ExpectRows(actual, expected);
}

// Two keyed worker processes time-sliced on one hart.
std::string KeyedWorker(unsigned tag, unsigned key, unsigned iters) {
  return StrFormat(R"(
.section .text
_start:
  li s0, %u
  li s2, 0
loop:
  la t0, my_tag
  ld.ro t1, (t0), %u
  add s2, s2, t1
  addi s0, s0, -1
  bnez s0, loop
  andi a0, s2, 63
  li a7, 93
  ecall
.section .rodata.key.%u
my_tag:
  .quad %u
)",
                   iters, key, key, tag);
}

TEST(GoldenRunTest, TwoProcessesTimeSlicedOnOneHart) {
  const std::vector<std::string> expected = {
      "two_process exit=60,4 switches=56 cycles=16518 instret=6910 digest=41f7233d0b9c219f",
  };
  core::System system;
  for (const auto& [tag, iters] : {std::pair{1u, 700u}, {2u, 450u}}) {
    auto image = asmtool::Assemble(KeyedWorker(tag, 100 + tag, iters));
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    ASSERT_TRUE(system.kernel().LoadProcess(*image).ok());
  }
  const auto results = system.kernel().Run(/*max_instructions=*/1 << 22,
                                           /*quantum=*/100);
  ASSERT_EQ(results.size(), 2u);
  const Snapshot counters = system.trace().counters().Snapshot();
  std::vector<std::string> actual = {StrFormat(
      "two_process exit=%lld,%lld switches=%llu cycles=%llu instret=%llu "
      "digest=%016llx",
      static_cast<long long>(results[0].exit_code),
      static_cast<long long>(results[1].exit_code),
      static_cast<unsigned long long>(
          system.trace().counters().Value("kernel.context_switches")),
      static_cast<unsigned long long>(
          system.trace().counters().Value("cpu.cycles")),
      static_cast<unsigned long long>(
          system.trace().counters().Value("cpu.instret")),
      static_cast<unsigned long long>(Digest(counters)))};
  ExpectRows(actual, expected);
}

TEST(GoldenRunTest, AttacksAtOneAndFourHarts) {
  const std::vector<std::string> expected = {
      "vtable-injection/none/h1 missed:hijacked hart=0 exit=12 digest=6e1b92a16de344cb",
      "vtable-injection/none/h4 missed:hijacked hart=0 exit=12 digest=1edba7fefbd4d3ed",
      "vtable-injection/ICall/h1 caught:writable-page@.L_main_body+0x40 hart=0 exit=0 digest=3e6b34ce90e2555a",
      "vtable-injection/ICall/h4 caught:writable-page@.L_main_body+0x40 hart=0 exit=0 digest=4166f626cb65e601",
      "vtable-reuse-cross-hierarchy/none/h1 diverted:in-allowlist hart=0 exit=59 digest=f8cb4f8ba091c11e",
      "vtable-reuse-cross-hierarchy/none/h4 diverted:in-allowlist hart=0 exit=25 digest=e03de6f6e64b34ac",
      "vtable-reuse-cross-hierarchy/ICall/h1 diverted:in-allowlist hart=0 exit=59 digest=de480a1f41de86bd",
      "vtable-reuse-cross-hierarchy/ICall/h4 diverted:in-allowlist hart=0 exit=4 digest=9cc1fb5acbbce60f",
      "fnptr-corrupt-to-evil/none/h1 missed:hijacked hart=0 exit=3 digest=d064c15020c15689",
      "fnptr-corrupt-to-evil/none/h4 missed:hijacked hart=0 exit=52 digest=96ae08404f4d52c5",
      "fnptr-corrupt-to-evil/ICall/h1 caught:load address misaligned@.L_main_body+0x70 hart=0 exit=0 digest=d78a5e925d102cb6",
      "fnptr-corrupt-to-evil/ICall/h4 caught:load address misaligned@.L_main_body+0x70 hart=0 exit=0 digest=8143e61af58768da",
      "fnptr-reuse-same-type/none/h1 diverted:in-allowlist hart=0 exit=31 digest=f8cb4f8ba091c11e",
      "fnptr-reuse-same-type/none/h4 diverted:in-allowlist hart=0 exit=49 digest=e03de6f6e64b34ac",
      "fnptr-reuse-same-type/ICall/h1 diverted:in-allowlist hart=0 exit=63 digest=de480a1f41de86bd",
      "fnptr-reuse-same-type/ICall/h4 diverted:in-allowlist hart=0 exit=44 digest=9cc1fb5acbbce60f",
  };
  std::vector<std::string> actual;
  for (const sec::AttackKind kind :
       {sec::AttackKind::kVtableInjection,
        sec::AttackKind::kVtableReuseCrossHierarchy,
        sec::AttackKind::kFnPtrCorruptToEvil,
        sec::AttackKind::kFnPtrReuseSameType}) {
    for (const core::Defense defense :
         {core::Defense::kNone, core::Defense::kICall}) {
      for (const unsigned harts : {1u, 4u}) {
        const auto result = sec::RunAttackSmp(kind, defense, harts);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        actual.push_back(StrFormat(
            "%s/%s/h%u %s hart=%u exit=%lld digest=%016llx",
            std::string(sec::AttackKindName(kind)).c_str(),
            std::string(core::DefenseName(defense)).c_str(), harts,
            result->classification.c_str(), result->hart,
            static_cast<long long>(result->exit_code),
            static_cast<unsigned long long>(Digest(result->counters))));
      }
    }
  }
  ExpectRows(actual, expected);
}

}  // namespace
}  // namespace roload
