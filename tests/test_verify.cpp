// Static pointee-integrity verifier tests (src/verify).
//
// Three angles, mirroring the verifier's own trust argument:
//  * clean runs — every benchmark × defense × codegen variant verifies;
//  * mutation runs — each deliberately-broken build artifact (the exact
//    bug classes the verifier removes from the TCB: dropped ld->ld.ro
//    rewrite, wrong key, writable allowlist, dropped addi fixup, moved
//    symbol, stripped CFI ID word) is rejected with the right rule id;
//  * lattice unit tests on hand-written assembly — the dispatch proof
//    accepts ld.ro provenance through mv/spill chains and rejects any
//    path that bypasses ld.ro.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "asmtool/assembler.h"
#include "core/toolchain.h"
#include "ir/builder.h"
#include "ir/ir.h"
#include "sec/attack.h"
#include "support/json.h"
#include "verify/binary.h"
#include "verify/gadgets.h"
#include "verify/ir_lint.h"
#include "verify/verify.h"
#include "workloads/spec_like.h"

namespace roload::verify {
namespace {

core::BuildResult MustBuild(const ir::Module& module, core::Defense defense,
                            bool compressed = false) {
  core::BuildOptions options;
  options.defense = defense;
  options.codegen.use_compressed_roload = compressed;
  auto build = core::Build(module, options);
  EXPECT_TRUE(build.ok()) << build.status().ToString();
  return *std::move(build);
}

// Re-verifies `build` after substituting a mutated image, keeping the
// original hardened-IR expectations — exactly what Toolchain::Verify
// would see had the backend/assembler mis-emitted.
Report VerifyMutated(const core::BuildResult& build,
                     const asmtool::LinkImage& image) {
  Report report;
  const Expectations exp = ComputeExpectations(build.hardened);
  BinaryPolicy policy;
  policy.require_protected_dispatch =
      build.options.defense == core::Defense::kICall;
  VerifyImage(image, policy, &exp, &report);
  return report;
}

Report VerifyMutatedAssembly(const core::BuildResult& build,
                             const std::string& assembly) {
  auto image = asmtool::Assemble(assembly);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return VerifyMutated(build, *image);
}

// Removes the first line satisfying pred(line, next_line); returns true
// when a line was removed.
template <typename Pred>
bool RemoveLine(std::string* text, Pred pred) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text->size()) {
    const std::size_t eol = text->find('\n', start);
    if (eol == std::string::npos) {
      lines.push_back(text->substr(start));
      break;
    }
    lines.push_back(text->substr(start, eol - start));
    start = eol + 1;
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& next = i + 1 < lines.size() ? lines[i + 1] : "";
    if (pred(lines[i], next)) {
      lines.erase(lines.begin() + i);
      std::string out;
      for (std::size_t j = 0; j < lines.size(); ++j) {
        out += lines[j];
        if (j + 1 < lines.size()) out += '\n';
      }
      *text = out;
      return true;
    }
  }
  return false;
}

bool ReplaceFirst(std::string* text, const std::string& from,
                  const std::string& to) {
  const std::size_t pos = text->find(from);
  if (pos == std::string::npos) return false;
  text->replace(pos, from.size(), to);
  return true;
}

int SmallestRuleId(const Report& report) { return report.ExitCode(); }

// ---------------------------------------------------------------------------
// Clean runs: the full benchmark matrix.

struct CleanCase {
  core::Defense defense;
  bool compressed;
};

class CleanSuiteTest : public ::testing::TestWithParam<CleanCase> {};

TEST_P(CleanSuiteTest, AllBenchmarksVerify) {
  // Module structure is independent of the run-length scale; a tiny
  // scale keeps the 11 builds fast.
  for (const auto& spec : workloads::SpecCint2006Suite(0.001)) {
    const ir::Module module = workloads::Generate(spec);
    const core::BuildResult build =
        MustBuild(module, GetParam().defense, GetParam().compressed);
    const Report report = core::Verify(build);
    EXPECT_TRUE(report.ok())
        << spec.name << " under "
        << core::DefenseName(GetParam().defense)
        << (GetParam().compressed ? " (compressed)" : "") << ":\n"
        << report.ToText();
    // The full ICall policy must actually *prove* every dispatch, not
    // just fail to find violations.
    if (GetParam().defense == core::Defense::kICall) {
      EXPECT_EQ(report.stats().dispatches,
                report.stats().proven_dispatches)
          << spec.name;
      if (spec.icall_weight + spec.vcall_weight > 0) {
        EXPECT_GT(report.stats().dispatches, 0u) << spec.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDefenses, CleanSuiteTest,
    ::testing::Values(CleanCase{core::Defense::kNone, false},
                      CleanCase{core::Defense::kVCall, false},
                      CleanCase{core::Defense::kVTint, false},
                      CleanCase{core::Defense::kICall, false},
                      CleanCase{core::Defense::kClassicCfi, false},
                      CleanCase{core::Defense::kNone, true},
                      CleanCase{core::Defense::kVCall, true},
                      CleanCase{core::Defense::kVTint, true},
                      CleanCase{core::Defense::kICall, true},
                      CleanCase{core::Defense::kClassicCfi, true}),
    [](const auto& info) {
      return std::string(core::DefenseName(info.param.defense)) +
             (info.param.compressed ? "_compressed" : "");
    });

TEST(CleanVerifyTest, VictimModuleVerifiesUnderEveryDefense) {
  const ir::Module victim = sec::MakeVictimModule();
  for (core::Defense defense :
       {core::Defense::kNone, core::Defense::kVCall, core::Defense::kVTint,
        core::Defense::kICall, core::Defense::kClassicCfi}) {
    const Report report = core::Verify(MustBuild(victim, defense));
    EXPECT_TRUE(report.ok())
        << core::DefenseName(defense) << ":\n" << report.ToText();
  }
}

TEST(CleanVerifyTest, BuildOptionVerifyGatesTheBuild) {
  core::BuildOptions options;
  options.defense = core::Defense::kICall;
  options.verify = true;
  auto build = core::Build(sec::MakeVictimModule(), options);
  EXPECT_TRUE(build.ok()) << build.status().ToString();
}

TEST(CleanVerifyTest, ExpectationsMatchCodegenCounters) {
  for (core::Defense defense :
       {core::Defense::kVCall, core::Defense::kICall}) {
    const auto spec = workloads::SpecCint2006Suite(0.001);
    const ir::Module module = workloads::Generate(spec[0]);
    const core::BuildResult build = MustBuild(module, defense);
    const Expectations exp = ComputeExpectations(build.hardened);
    EXPECT_EQ(exp.roload_loads, build.codegen.roload_instructions)
        << core::DefenseName(defense);
    EXPECT_EQ(exp.addi_fixups, build.codegen.extra_addi_for_roload)
        << core::DefenseName(defense);
  }
}

// ---------------------------------------------------------------------------
// Mutation runs: each bug class the verifier removes from the TCB.

ir::Module CppWorkload() {
  for (const auto& spec : workloads::SpecCint2006Suite(0.001)) {
    if (spec.is_cpp) return workloads::Generate(spec);
  }
  ADD_FAILURE() << "suite has no C++ workload";
  return {};
}

TEST(MutationTest, SkippedRoloadRewriteIsUnprovenDispatch) {
  const core::BuildResult build =
      MustBuild(CppWorkload(), core::Defense::kICall);
  std::string assembly = build.codegen.assembly;
  // Undo one fused ld.ro dispatch load, as if the backend forgot the
  // ld -> ld.ro rewrite. The dispatch is then unproven (rule 24), which
  // outranks the ld.ro count mismatch (25).
  ASSERT_TRUE(ReplaceFirst(&assembly, "ld.ro t2, (t2),", "ld t2, 0(t2) #"));
  const Report report = VerifyMutatedAssembly(build, assembly);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report),
            RuleId(Rule::kBinUnprovenDispatch));
}

TEST(MutationTest, WrongKeyIsCaught) {
  const core::BuildResult build =
      MustBuild(CppWorkload(), core::Defense::kVCall);
  std::string assembly = build.codegen.assembly;
  // Rewrite one vtable-entry load to an unallocated key: no read-only
  // frame carries it, so every execution would fault (rule 22).
  const std::size_t pos = assembly.find("ld.ro t1, (t0), ");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t eol = assembly.find('\n', pos);
  assembly.replace(pos, eol - pos, "ld.ro t1, (t0), 1023");
  const Report report = VerifyMutatedAssembly(build, assembly);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report), RuleId(Rule::kBinKeyUnmapped));
}

TEST(MutationTest, WritableAllowlistSectionIsCaught) {
  const core::BuildResult build =
      MustBuild(CppWorkload(), core::Defense::kVCall);
  asmtool::LinkImage image = build.image;
  bool flipped = false;
  for (auto& section : image.sections) {
    if (section.key != 0) {
      section.perms.write = true;  // a loader/mprotect bug
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped);
  const Report report = VerifyMutated(build, image);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report),
            RuleId(Rule::kBinWritableKeyAlias));
}

TEST(MutationTest, DroppedAddiFixupIsCaught) {
  const core::BuildResult build =
      MustBuild(CppWorkload(), core::Defense::kVCall);
  ASSERT_GT(build.codegen.extra_addi_for_roload, 0u);
  std::string assembly = build.codegen.assembly;
  // Drop the addi that folds a vtable-slot offset into an ld.ro base:
  // the load would read vtable slot 0 instead of the intended method.
  const bool removed =
      RemoveLine(&assembly, [](const std::string& line,
                               const std::string& next) {
        return line.find("addi t0, t0, ") != std::string::npos &&
               next.find(".ro t1") != std::string::npos;
      });
  ASSERT_TRUE(removed);
  const Report report = VerifyMutatedAssembly(build, assembly);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report), RuleId(Rule::kBinMissingFixup));
}

TEST(MutationTest, MisplacedKeyedSymbolIsCaught) {
  const core::BuildResult build =
      MustBuild(CppWorkload(), core::Defense::kICall);
  asmtool::LinkImage image = build.image;
  // Relocate one GFPT symbol into a *different* keyed section (as a
  // buggy linker might): its own ld.ro key no longer guards it.
  const Expectations exp = ComputeExpectations(build.hardened);
  ASSERT_FALSE(exp.keyed_symbols.empty());
  bool moved = false;
  for (const auto& [name, key] : exp.keyed_symbols) {
    for (const auto& section : image.sections) {
      if (section.key != 0 && section.key != key) {
        image.symbols[name] = section.vaddr;
        moved = true;
        break;
      }
    }
    if (moved) break;
  }
  ASSERT_TRUE(moved);
  const Report report = VerifyMutated(build, image);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report),
            RuleId(Rule::kBinSymbolMisplaced));
}

TEST(MutationTest, StrippedCfiIdWordIsCaught) {
  const core::BuildResult build =
      MustBuild(CppWorkload(), core::Defense::kClassicCfi);
  std::string assembly = build.codegen.assembly;
  const bool removed = RemoveLine(
      &assembly, [](const std::string& line, const std::string&) {
        return line.find("lui zero, ") != std::string::npos;
      });
  ASSERT_TRUE(removed);
  const Report report = VerifyMutatedAssembly(build, assembly);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report), RuleId(Rule::kBinMissingCfiId));
}

TEST(MutationTest, MutationsYieldDistinctRuleIds) {
  // The CLI contract: each mutation class has its own exit code.
  const std::vector<Rule> rules = {
      Rule::kBinUnprovenDispatch, Rule::kBinKeyUnmapped,
      Rule::kBinWritableKeyAlias, Rule::kBinMissingFixup,
      Rule::kBinSymbolMisplaced,  Rule::kBinMissingCfiId};
  std::vector<int> ids;
  for (Rule rule : rules) ids.push_back(RuleId(rule));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  for (int id : ids) EXPECT_GT(id, 0);
}

// ---------------------------------------------------------------------------
// IR lint negatives (rules 10-15).

void TagLastLoad(ir::FunctionBuilder* b, std::uint32_t key,
                 ir::Trait trait = ir::Trait::kNone, int trait_id = 0) {
  for (auto& block : b->function()->blocks) {
    for (auto it = block.instrs.rbegin(); it != block.instrs.rend(); ++it) {
      if (it->kind == ir::InstrKind::kLoad) {
        it->has_roload_md = true;
        it->roload_key = key;
        it->trait = trait;
        it->trait_id = trait_id;
        return;
      }
    }
  }
  FAIL() << "no load to tag";
}

ir::Global RoGlobal(const std::string& name, std::uint32_t key,
                    ir::GlobalTrait trait = ir::GlobalTrait::kNone,
                    int trait_id = 0) {
  ir::Global g;
  g.name = name;
  g.read_only = true;
  g.key = key;
  g.trait = trait;
  g.trait_id = trait_id;
  g.quads.push_back(ir::GlobalInit{7, ""});
  return g;
}

Report Lint(const ir::Module& module) {
  Report report;
  LintModule(module, &report);
  return report;
}

TEST(IrLintTest, InvalidKeyOnMdLoad) {
  ir::Module m;
  m.name = "m";
  m.globals.push_back(RoGlobal("al", 5));
  ir::FunctionBuilder b(&m, "main", "i64()", 0);
  b.Ret(b.Load(b.AddrOf("al")));
  TagLastLoad(&b, 0);  // md with key 0: the reserved untagged key
  const Report report = Lint(m);
  EXPECT_EQ(SmallestRuleId(report), RuleId(Rule::kIrKeyInvalid));

  TagLastLoad(&b, 4096);  // beyond the 10-bit PTE field
  EXPECT_EQ(SmallestRuleId(Lint(m)), RuleId(Rule::kIrKeyInvalid));
}

TEST(IrLintTest, KeyedGlobalMustBeReadOnly) {
  ir::Module m;
  m.name = "m";
  ir::Global g = RoGlobal("al", 5);
  g.read_only = false;
  m.globals.push_back(g);
  ir::FunctionBuilder b(&m, "main", "i64()", 0);
  b.Ret(b.Const(0));
  EXPECT_EQ(SmallestRuleId(Lint(m)),
            RuleId(Rule::kIrKeyedGlobalWritable));
}

TEST(IrLintTest, LoadKeyWithoutMatchingGlobal) {
  ir::Module m;
  m.name = "m";
  m.globals.push_back(RoGlobal("al", 5));
  ir::FunctionBuilder b(&m, "main", "i64()", 0);
  b.Ret(b.Load(b.AddrOf("al")));
  TagLastLoad(&b, 7);  // valid key, but nothing is mapped with it
  EXPECT_EQ(SmallestRuleId(Lint(m)),
            RuleId(Rule::kIrLoadKeyMismatch));
}

TEST(IrLintTest, VtableEntryLoadKeyDisagreesWithVtable) {
  ir::Module m;
  m.name = "m";
  m.globals.push_back(RoGlobal("vt_a", 5, ir::GlobalTrait::kVTable, 3));
  m.globals.push_back(RoGlobal("other", 9));
  ir::FunctionBuilder b(&m, "main", "i64()", 0);
  b.Ret(b.Load(b.AddrOf("vt_a")));
  // Keyed like `other` (so the key is mapped) but reaching class 3's
  // vtable, which is keyed 5.
  TagLastLoad(&b, 9, ir::Trait::kVTableEntryLoad, 3);
  EXPECT_EQ(SmallestRuleId(Lint(m)),
            RuleId(Rule::kIrLoadKeyMismatch));
}

TEST(IrLintTest, UnkeyedGfptIsFlagged) {
  ir::Module m;
  m.name = "m";
  ir::Global g;
  g.name = "gfpt_f";
  g.read_only = true;
  g.trait = ir::GlobalTrait::kGfpt;
  g.trait_id = 2;
  g.quads.push_back(ir::GlobalInit{0, ""});
  m.globals.push_back(g);
  ir::FunctionBuilder b(&m, "main", "i64()", 0);
  b.Ret(b.Const(0));
  EXPECT_EQ(SmallestRuleId(Lint(m)),
            RuleId(Rule::kIrSensitiveGlobalUnkeyed));
}

TEST(IrLintTest, IncompatibleFunctionTypesSharingAKey) {
  ir::Module m;
  m.name = "m";
  m.globals.push_back(RoGlobal("gfpt_f", 5, ir::GlobalTrait::kGfpt, 1));
  m.globals.push_back(RoGlobal("gfpt_g", 5, ir::GlobalTrait::kGfpt, 2));
  ir::FunctionBuilder b(&m, "main", "i64()", 0);
  b.Ret(b.Const(0));
  EXPECT_EQ(SmallestRuleId(Lint(m)),
            RuleId(Rule::kIrTypeKeyCollision));
}

TEST(IrLintTest, StructurallyBrokenModule) {
  ir::Module m;
  m.name = "bad";
  ir::Function f;
  f.name = "main";
  f.type_id = m.InternFnType("i64()");
  ir::Block block;
  block.label = "entry";
  ir::Instr ret;
  ret.kind = ir::InstrKind::kRet;
  ret.src1 = 7;  // out of range: the function has no vregs
  block.instrs.push_back(ret);
  f.blocks.push_back(block);
  m.functions.push_back(f);
  EXPECT_EQ(SmallestRuleId(Lint(m)), RuleId(Rule::kIrStructural));
}

TEST(IrLintTest, HardenedSuiteLintsClean) {
  for (const auto& spec : workloads::SpecCint2006Suite(0.001)) {
    for (core::Defense defense :
         {core::Defense::kVCall, core::Defense::kICall}) {
      const core::BuildResult build =
          MustBuild(workloads::Generate(spec), defense);
      const Report report = Lint(build.hardened);
      EXPECT_TRUE(report.ok())
          << spec.name << "/" << core::DefenseName(defense) << ":\n"
          << report.ToText();
    }
  }
}

// ---------------------------------------------------------------------------
// Abstract-interpretation unit tests on hand-written assembly.

asmtool::LinkImage MustAssemble(const char* source) {
  auto image = asmtool::Assemble(source);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return *std::move(image);
}

Report VerifyAsm(const char* source, bool require_dispatch_proof) {
  Report report;
  BinaryPolicy policy;
  policy.name = require_dispatch_proof ? "icall" : "none";
  policy.require_protected_dispatch = require_dispatch_proof;
  VerifyImage(MustAssemble(source), policy, nullptr, &report);
  return report;
}

TEST(BinaryVerifyTest, ProvenanceFlowsThroughSpillAndReload) {
  // The backend's non-fused shape: ld.ro result spilled to a stack slot
  // and reloaded into the dispatch register.
  const char* source = R"(
.section .text
_start:
  addi sp, sp, -32
  la t0, table
  ld.ro t1, (t0), 9
  sd t1, 8(sp)
  ld t2, 8(sp)
  jalr ra, 0(t2)
  addi sp, sp, 32
  li a0, 0
  li a7, 93
  ecall
fn:
  ret
.section .rodata.key.9
table:
  .quad fn
)";
  const Report report = VerifyAsm(source, /*require_dispatch_proof=*/true);
  EXPECT_TRUE(report.ok()) << report.ToText();
  EXPECT_EQ(report.stats().dispatches, 1u);
  EXPECT_EQ(report.stats().proven_dispatches, 1u);
}

TEST(BinaryVerifyTest, ProvenanceFlowsThroughCompressedRoloadAndMv) {
  // The compressed-roload staging shape: c.ld.ro through the popular
  // registers, then mv into the dispatch register.
  const char* source = R"(
.section .text
_start:
  la s1, table
  c.ld.ro a5, (s1), 9
  mv t2, a5
  jalr ra, 0(t2)
  li a0, 0
  li a7, 93
  ecall
fn:
  ret
.section .rodata.key.9
table:
  .quad fn
)";
  const Report report = VerifyAsm(source, /*require_dispatch_proof=*/true);
  EXPECT_TRUE(report.ok()) << report.ToText();
  EXPECT_EQ(report.stats().proven_dispatches, 1u);
}

TEST(BinaryVerifyTest, OneUnprotectedPathDefeatsTheProof) {
  // Diamond: ld.ro on one arm, plain ld on the other. The join must be
  // Unknown — "on all paths" is the whole point.
  const char* source = R"(
.section .text
_start:
  la t0, table
  beq a0, zero, .L_safe
  ld t1, 0(t0)
  j .L_join
.L_safe:
  ld.ro t1, (t0), 9
.L_join:
  mv t2, t1
  jalr ra, 0(t2)
  li a7, 93
  ecall
fn:
  ret
.section .rodata.key.9
table:
  .quad fn
)";
  EXPECT_TRUE(VerifyAsm(source, false).ok());
  const Report report = VerifyAsm(source, true);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report),
            RuleId(Rule::kBinUnprovenDispatch));
  EXPECT_EQ(report.stats().proven_dispatches, 0u);
}

TEST(BinaryVerifyTest, BothPathsProtectedProves) {
  const char* source = R"(
.section .text
_start:
  la t0, table
  beq a0, zero, .L_a
  ld.ro t1, (t0), 9
  j .L_join
.L_a:
  ld.ro t1, (t0), 9
.L_join:
  mv t2, t1
  jalr ra, 0(t2)
  li a7, 93
  ecall
fn:
  ret
.section .rodata.key.9
table:
  .quad fn
)";
  const Report report = VerifyAsm(source, true);
  EXPECT_TRUE(report.ok()) << report.ToText();
  EXPECT_EQ(report.stats().proven_dispatches, 1u);
}

TEST(BinaryVerifyTest, StaticTargetOutsideKeyedSection) {
  // `secret` lives in the key-6 frame but the load names key 5 (which
  // exists, so rule 22 stays quiet — only the resolved-target rule 23
  // can see this bug).
  const char* source = R"(
.section .text
_start:
  la t0, secret
  ld.ro t1, (t0), 5
  li a7, 93
  ecall
.section .rodata.key.5
other:
  .quad 1
.section .rodata.key.6
secret:
  .quad 2
)";
  const Report report = VerifyAsm(source, false);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report),
            RuleId(Rule::kBinStaticTargetMismatch));
}

TEST(BinaryVerifyTest, CallSummaryPreservesDispatchProof) {
  // A call between the ld.ro and the dispatch used to invalidate the
  // spilled proof conservatively. The summary for `helper` proves it
  // never stores outside its own frame, so the slot — and the dispatch
  // proof — survive the call.
  const char* source = R"(
.section .text
_start:
  addi sp, sp, -32
  la t0, table
  ld.ro t1, (t0), 9
  sd t1, 8(sp)
  call helper
  ld t2, 8(sp)
  jalr ra, 0(t2)
  li a7, 93
  ecall
helper:
  ret
fn:
  ret
.section .rodata.key.9
table:
  .quad fn
)";
  const Report report = VerifyAsm(source, true);
  EXPECT_TRUE(report.ok()) << report.ToText();
  EXPECT_EQ(report.stats().proven_dispatches, 1u);
}

TEST(BinaryVerifyTest, FrameUnsafeCalleeDropsDispatchProof) {
  // Same shape, but the helper stores through a non-sp pointer. Its
  // summary is not frame-safe, the caller's spilled slots are dropped
  // across the call, and the dispatch is unproven again.
  const char* source = R"(
.section .text
_start:
  addi sp, sp, -32
  la t0, table
  ld.ro t1, (t0), 9
  sd t1, 8(sp)
  call helper
  ld t2, 8(sp)
  jalr ra, 0(t2)
  li a7, 93
  ecall
helper:
  la t3, buf
  sd zero, 0(t3)
  ret
fn:
  ret
.section .rodata.key.9
table:
  .quad fn
.section .data
buf:
  .quad 0
)";
  const Report report = VerifyAsm(source, true);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report),
            RuleId(Rule::kBinUnprovenDispatch));
}

TEST(BinaryVerifyTest, JsonReportCarriesSchemaAndRuleIds) {
  const char* source = R"(
.section .text
_start:
  la t2, fn
  jalr ra, 0(t2)
  li a7, 93
  ecall
fn:
  ret
)";
  const Report report = VerifyAsm(source, true);
  ASSERT_FALSE(report.ok());
  const std::string json = report.ToJson("rverify", "test.rimg", "icall");
  EXPECT_NE(json.find("\"schema\""), std::string::npos);
  EXPECT_NE(json.find("roload.verify.v1"), std::string::npos);
  EXPECT_NE(json.find("\"rule_id\""), std::string::npos);
  EXPECT_NE(json.find("bin-unproven-dispatch"), std::string::npos);
  EXPECT_NE(json.find("\"exit_code\""), std::string::npos);
  EXPECT_NE(json.find("\"pc\""), std::string::npos);
  EXPECT_NE(json.find("\"violations\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Interprocedural summaries (rules 30-35): call summaries let dispatch
// proofs flow across function boundaries, and the summary rules police
// the assumptions those summaries rest on.

TEST(InterprocVerifyTest, WrapperDispatchProvedAcrossCall) {
  // The canonical wrapper shape: the ld.ro lives in the callee, the
  // jalr in the caller. Intraprocedurally a0 is clobbered by the call;
  // the summary records ret a0 = RoLoaded(9) and the dispatch is proven.
  const char* source = R"(
.section .text
_start:
  addi sp, sp, -16
  call get_handler
  mv t2, a0
  jalr ra, 0(t2)
  addi sp, sp, 16
  li a0, 0
  li a7, 93
  ecall
get_handler:
  la t0, table
  ld.ro a0, (t0), 9
  ret
fn:
  ret
.section .rodata.key.9
table:
  .quad fn
)";
  const Report report = VerifyAsm(source, true);
  EXPECT_TRUE(report.ok()) << report.ToText();
  EXPECT_EQ(report.stats().dispatches, 1u);
  EXPECT_EQ(report.stats().proven_dispatches, 1u);
}

TEST(InterprocVerifyTest, CalleeSavedClobberIsRule30) {
  // `helper` provably leaves s1 holding a constant at its return — the
  // summary the callers rely on (callee-saved preservation) is broken.
  const char* source = R"(
.section .text
_start:
  li a0, 0
  li a7, 93
  ecall
helper:
  li s1, 5
  ret
)";
  const Report report = VerifyAsm(source, false);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report),
            RuleId(Rule::kBinCalleeSavedClobbered));
}

TEST(InterprocVerifyTest, RoLoadedEscapeIsRule31) {
  // Storing an ld.ro result through a non-stack pointer leaks a keyed
  // pointee into mutable memory the verifier cannot track.
  const char* source = R"(
.section .text
_start:
  la t0, table
  ld.ro t1, (t0), 9
  la t3, buf
  sd t1, 0(t3)
  li a7, 93
  ecall
.section .rodata.key.9
table:
  .quad 7
.section .data
buf:
  .quad 0
)";
  const Report report = VerifyAsm(source, false);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report), RuleId(Rule::kBinRoloadEscape));
}

TEST(InterprocVerifyTest, DispatchOnArgumentProvenThroughCaller) {
  // `disp` dispatches on its first argument. The only caller passes an
  // ld.ro result, so the caller-side obligation discharges cleanly.
  const char* source = R"(
.section .text
_start:
  la t0, table
  ld.ro a0, (t0), 9
  call disp
  li a0, 0
  li a7, 93
  ecall
disp:
  jalr ra, 0(a0)
  ret
fn:
  ret
.section .rodata.key.9
table:
  .quad fn
)";
  const Report report = VerifyAsm(source, true);
  EXPECT_TRUE(report.ok()) << report.ToText();
  EXPECT_EQ(report.stats().dispatches, report.stats().proven_dispatches);
}

TEST(InterprocVerifyTest, UnprovenCalleeArgIsRule32) {
  // Same dispatcher, but the caller passes a raw constant where the
  // obligation demands an ld.ro result.
  const char* source = R"(
.section .text
_start:
  li a0, 7
  call disp
  li a0, 0
  li a7, 93
  ecall
disp:
  jalr ra, 0(a0)
  ret
fn:
  ret
.section .rodata.key.9
table:
  .quad fn
)";
  const Report report = VerifyAsm(source, true);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report),
            RuleId(Rule::kBinUnprovenCalleeArg));
}

TEST(InterprocVerifyTest, AddressTakenArgDispatcherIsRule33) {
  // `disp` dispatches on a0 but is itself reachable from a keyed
  // dispatch table — an indirect caller could pass anything, so the
  // obligation can never be discharged.
  const char* source = R"(
.section .text
_start:
  la t0, table
  ld.ro t1, (t0), 9
  mv t2, t1
  jalr ra, 0(t2)
  li a0, 0
  li a7, 93
  ecall
disp:
  jalr ra, 0(a0)
  ret
.section .rodata.key.9
table:
  .quad disp
)";
  const Report report = VerifyAsm(source, true);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report),
            RuleId(Rule::kBinObligationUndischargeable));
}

TEST(InterprocVerifyTest, OverwrittenReturnAddressIsRule34) {
  // `hijack` returns through a constant rather than its caller's ra —
  // a statically visible backward-edge redirect.
  const char* source = R"(
.section .text
_start:
  li a0, 0
  li a7, 93
  ecall
hijack:
  la ra, fn
  ret
fn:
  ret
)";
  const Report report = VerifyAsm(source, false);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report), RuleId(Rule::kBinRetAddrUnproven));
}

TEST(InterprocVerifyTest, SpImbalanceIsRule35) {
  const char* source = R"(
.section .text
_start:
  li a0, 0
  li a7, 93
  ecall
leaky:
  addi sp, sp, -16
  ret
)";
  const Report report = VerifyAsm(source, false);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report), RuleId(Rule::kBinSpImbalance));
}

TEST(InterprocVerifyTest, NewRuleIdsAreStable) {
  EXPECT_EQ(RuleId(Rule::kBinCalleeSavedClobbered), 30);
  EXPECT_EQ(RuleId(Rule::kBinRoloadEscape), 31);
  EXPECT_EQ(RuleId(Rule::kBinUnprovenCalleeArg), 32);
  EXPECT_EQ(RuleId(Rule::kBinObligationUndischargeable), 33);
  EXPECT_EQ(RuleId(Rule::kBinRetAddrUnproven), 34);
  EXPECT_EQ(RuleId(Rule::kBinSpImbalance), 35);
}

// ---------------------------------------------------------------------------
// Multi-violation reporting and parallel determinism.

constexpr const char* kTwoViolationSource = R"(
.section .text
_start:
  la t0, secret
  ld.ro t1, (t0), 5
  la t2, secret
  ld.ro t3, (t2), 999
  li a7, 93
  ecall
.section .rodata.key.5
other:
  .quad 1
.section .rodata.key.6
secret:
  .quad 2
)";

TEST(BinaryVerifyTest, EveryViolationIsPrintedNotJustTheSmallest) {
  // The exit code is the smallest rule id, but the text report must
  // carry one RV0NN line per violation.
  const Report report = VerifyAsm(kTwoViolationSource, false);
  ASSERT_GE(report.violations().size(), 2u);
  EXPECT_EQ(SmallestRuleId(report), RuleId(Rule::kBinKeyUnmapped));
  const std::string text = report.ToText();
  EXPECT_NE(text.find("RV022"), std::string::npos);
  EXPECT_NE(text.find("RV023"), std::string::npos);
}

TEST(BinaryVerifyTest, ParallelVerificationIsBitIdentical) {
  const auto run = [](const asmtool::LinkImage& image, unsigned jobs,
                      bool icall) {
    Report report;
    BinaryPolicy policy;
    policy.name = icall ? "icall" : "none";
    policy.require_protected_dispatch = icall;
    VerifyImageOptions options;
    options.jobs = jobs;
    VerifyImage(image, policy, nullptr, &report, options);
    return report;
  };
  // A clean full build (many functions, proofs across calls)...
  const ir::Module module =
      workloads::Generate(workloads::SpecCint2006Suite(0.001).front());
  const core::BuildResult build = MustBuild(module, core::Defense::kICall);
  const Report serial = run(build.image, 1, true);
  const Report wide = run(build.image, 8, true);
  EXPECT_TRUE(serial.ok()) << serial.ToText();
  EXPECT_EQ(serial.ToText(), wide.ToText());
  EXPECT_EQ(serial.ToJson("t", "img", "icall"),
            wide.ToJson("t", "img", "icall"));
  // ...and a violating image: diagnostics keep their order under fan-out.
  const asmtool::LinkImage bad = MustAssemble(kTwoViolationSource);
  EXPECT_EQ(run(bad, 1, false).ToText(), run(bad, 7, false).ToText());
}

TEST(CleanVerifyTest, RpcServerImageVerifiesUnderICall) {
  // The SMP workload's image is single-image verifiable: its dispatch
  // table loads are ld.ro like any other keyed dispatch.
  const ir::Module module =
      workloads::Generate(workloads::RpcServerWorkload(40));
  for (const core::Defense defense :
       {core::Defense::kNone, core::Defense::kICall}) {
    const core::BuildResult build = MustBuild(module, defense, true);
    const Report report = core::Verify(build);
    EXPECT_TRUE(report.ok()) << report.ToText();
    if (defense == core::Defense::kICall) {
      EXPECT_GT(report.stats().dispatches, 0u);
      EXPECT_EQ(report.stats().dispatches,
                report.stats().proven_dispatches);
    }
  }
}

// ---------------------------------------------------------------------------
// Gadget census.

TEST(GadgetScanTest, FindsRetGadgetInHandAssembly) {
  const asmtool::LinkImage image = MustAssemble(R"(
.section .text
_start:
  li a0, 0
  li a7, 93
  ecall
helper:
  add a0, a0, a1
  ret
)");
  const GadgetCensus census = ScanGadgets(image);
  EXPECT_GT(census.stats.gadgets, 0u);
  EXPECT_GT(census.stats.ret_terminated, 0u);
  bool helper_ret = false;
  for (const Gadget& g : census.gadgets) {
    if (g.function == "helper" && g.kind == Gadget::Kind::kRet) {
      helper_ret = true;
    }
  }
  EXPECT_TRUE(helper_ret);
}

TEST(GadgetScanTest, JsonCensusCarriesSchema) {
  const asmtool::LinkImage image = MustAssemble(R"(
.section .text
_start:
  li a7, 93
  ecall
)");
  const std::string json = ScanGadgets(image).ToJson("tiny.rimg");
  EXPECT_NE(json.find("roload.gadgets.v1"), std::string::npos);
  EXPECT_NE(json.find("\"stats\""), std::string::npos);
  EXPECT_NE(json.find("\"exec_bytes\""), std::string::npos);
}

TEST(GadgetScanTest, CompressedBuildHasCompressedGadgets) {
  // Under ICall+compressed a vtable dispatch is `c.ld.ro; ...; jalr` —
  // the chain through the 16-bit parcel is a compressed gadget, the
  // class the RISC-V ROP literature calls out. Only the unified vtable
  // key fits the compressed encoding's key field, so pick a C++-like
  // benchmark (virtual dispatch), not a C-like one.
  const workloads::WorkloadSpec* spec = nullptr;
  const auto suite = workloads::SpecCint2006Suite(0.001);
  for (const auto& s : suite) {
    if (s.name == "471.omnetpp_like") spec = &s;
  }
  ASSERT_NE(spec, nullptr);
  const ir::Module module = workloads::Generate(*spec);
  const core::BuildResult build =
      MustBuild(module, core::Defense::kICall, /*compressed=*/true);
  const GadgetCensus census = ScanGadgets(build.image);
  EXPECT_GT(census.stats.gadgets, 0u);
  EXPECT_GT(census.stats.ret_terminated, 0u);
  EXPECT_GT(census.stats.compressed, 0u);
}

TEST(GadgetScanTest, CommittedCleanSuiteCensusIsCurrent) {
  // Aggregated gadget stats over the compressed ICall suite, pinned as
  // a committed artifact so attack-surface drift shows up in review.
  // Regenerate with:
  //   ROLOAD_REGEN_GADGETS=1 ./roload_tests \
  //     --gtest_filter='*CommittedCleanSuiteCensusIsCurrent*'
  const auto emit_stats = [](JsonWriter* json, const GadgetStats& s) {
    json->BeginObject();
    json->KV("gadgets", s.gadgets);
    json->KV("ret_terminated", s.ret_terminated);
    json->KV("jalr_terminated", s.jalr_terminated);
    json->KV("misaligned", s.misaligned);
    json->KV("compressed", s.compressed);
    json->KV("in_keyed_ro", s.in_keyed_ro);
    json->KV("in_keyed_target", s.in_keyed_target);
    json->KV("exec_bytes", s.exec_bytes);
    json->EndObject();
  };
  GadgetStats totals;
  JsonWriter json;
  json.BeginObject();
  json.KV("schema", "roload.gadgets.v1");
  json.KV("suite", "cint2006-like icall compressed scale 0.001");
  json.KV("max_insts", static_cast<std::uint64_t>(8));
  json.Key("images");
  json.BeginArray();
  for (const auto& spec : workloads::SpecCint2006Suite(0.001)) {
    const core::BuildResult build =
        MustBuild(workloads::Generate(spec), core::Defense::kICall,
                  /*compressed=*/true);
    const GadgetCensus census = ScanGadgets(build.image);
    json.BeginObject();
    json.KV("name", spec.name);
    json.Key("stats");
    emit_stats(&json, census.stats);
    json.EndObject();
    totals.gadgets += census.stats.gadgets;
    totals.ret_terminated += census.stats.ret_terminated;
    totals.jalr_terminated += census.stats.jalr_terminated;
    totals.misaligned += census.stats.misaligned;
    totals.compressed += census.stats.compressed;
    totals.in_keyed_ro += census.stats.in_keyed_ro;
    totals.in_keyed_target += census.stats.in_keyed_target;
    totals.exec_bytes += census.stats.exec_bytes;
  }
  json.EndArray();
  json.Key("totals");
  emit_stats(&json, totals);
  json.EndObject();
  const std::string current = json.str() + "\n";

  // The acceptance bar: the clean suite exposes at least one
  // compressed-instruction gadget.
  EXPECT_GT(totals.compressed, 0u);

  const std::string path =
      std::string(ROLOAD_TESTS_DATA_DIR) + "/GADGETS_clean_suite.json";
  if (std::getenv("ROLOAD_REGEN_GADGETS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << current;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing committed census: " << path;
  const std::string committed((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  EXPECT_EQ(committed, current)
      << "gadget census drifted; regenerate with ROLOAD_REGEN_GADGETS=1";
}

// ---------------------------------------------------------------------------
// Loader cross-check (rule 29): the kernel-built page tables must map
// every keyed section read-only with the image's key.

constexpr const char* kKeyedGuest = R"(
.section .text
_start:
  la t0, table
  ld.ro t1, (t0), 77
  mv a0, t1
  li a7, 93
  ecall
.section .rodata.key.77
table: .quad 0
)";

TEST(LoaderVerifyTest, RoloadAwareKernelPassesCrossCheck) {
  const asmtool::LinkImage image = MustAssemble(kKeyedGuest);
  core::System system({.variant = core::SystemVariant::kFullRoload});
  ASSERT_TRUE(system.Load(image).ok());
  const Report report = core::VerifyLoadedImage(system.kernel(), image);
  EXPECT_TRUE(report.ok()) << report.ToText();
  EXPECT_GE(report.stats().keyed_sections, 1u);
}

TEST(LoaderVerifyTest, RoloadUnawareKernelIsFlagged) {
  // The processor-modified variant runs an unmodified kernel that knows
  // nothing about section keys and maps everything with key 0 — exactly
  // the deployment mistake rule 29 exists to catch.
  const asmtool::LinkImage image = MustAssemble(kKeyedGuest);
  core::System system({.variant = core::SystemVariant::kProcessorModified});
  ASSERT_TRUE(system.Load(image).ok());
  const Report report = core::VerifyLoadedImage(system.kernel(), image);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report), RuleId(Rule::kLoaderKeyMismatch));
  EXPECT_NE(report.ToText().find("roload-unaware loader?"),
            std::string::npos);
}

TEST(LoaderVerifyTest, RemappedWritableAllowlistIsFlagged) {
  // Sabotage after a clean load: mprotect the allowlist page writable
  // (key dropped to 0). Both defects must be reported.
  const asmtool::LinkImage image = MustAssemble(kKeyedGuest);
  core::System system({.variant = core::SystemVariant::kFullRoload});
  ASSERT_TRUE(system.Load(image).ok());
  std::uint64_t table_vaddr = 0;
  for (const auto& section : image.sections) {
    if (section.key == 77) table_vaddr = section.vaddr;
  }
  ASSERT_NE(table_vaddr, 0u);
  ASSERT_TRUE(system.kernel()
                  .address_space()
                  ->Protect(table_vaddr, 1, kernel::PageProt::Rw())
                  .ok());
  const Report report = core::VerifyLoadedImage(system.kernel(), image);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report), RuleId(Rule::kLoaderKeyMismatch));
  EXPECT_NE(report.ToText().find("mapped writable"), std::string::npos);
}

TEST(LoaderVerifyTest, RequiresALoadedProcess) {
  const asmtool::LinkImage image = MustAssemble(kKeyedGuest);
  core::System system({.variant = core::SystemVariant::kFullRoload});
  const Report report = core::VerifyLoadedImage(system.kernel(), image);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(SmallestRuleId(report), RuleId(Rule::kLoaderKeyMismatch));
}

}  // namespace
}  // namespace roload::verify
