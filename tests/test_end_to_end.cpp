// End-to-end pipeline tests: IR -> hardening pass -> codegen -> assemble ->
// load -> simulate, checking functional results and defense behaviour.
#include <gtest/gtest.h>

#include "core/toolchain.h"
#include "ir/builder.h"

namespace roload {
namespace {

using core::BuildOptions;
using core::CompileAndRun;
using core::Defense;
using core::SystemVariant;

// A program with a virtual call and an indirect call:
//   class Base { virtual long get() }; Derived::get returns 41
//   long add_one(long) // address-taken, called indirectly
//   main: obj.get() + add_one(1) == 42 -> exit code 42
ir::Module MakeVcallIcallModule() {
  ir::Module module;
  module.name = "e2e";
  const int class_id = module.InternClass("Derived");

  // Object storage: one quad (the vptr), patched at startup.
  ir::Global object;
  object.name = "the_object";
  object.read_only = false;
  object.quads.push_back(ir::GlobalInit{0, "vtable_Derived"});
  module.globals.push_back(object);

  ir::Global vtable;
  vtable.name = "vtable_Derived";
  vtable.read_only = true;
  vtable.trait = ir::GlobalTrait::kVTable;
  vtable.trait_id = class_id;
  vtable.quads.push_back(ir::GlobalInit{0, "Derived_get"});
  module.globals.push_back(vtable);

  // A writable slot holding a function pointer.
  ir::Global fptr_slot;
  fptr_slot.name = "fptr_slot";
  fptr_slot.read_only = false;
  fptr_slot.quads.push_back(ir::GlobalInit{0, ""});
  module.globals.push_back(fptr_slot);

  {
    ir::FunctionBuilder b(&module, "Derived_get", "i64(ptr)", 1);
    b.Ret(b.Const(40));
  }
  {
    ir::FunctionBuilder b(&module, "add_one", "i64(i64)", 1);
    b.Ret(b.BinImm(ir::BinOp::kAdd, b.Param(0), 1));
  }
  {
    ir::FunctionBuilder b(&module, "main", "i64()", 0);
    // fptr_slot = &add_one
    const int fp = b.AddrOf("add_one");
    const int slot = b.AddrOf("fptr_slot");
    b.Store(slot, fp);
    // Virtual call: vptr = load obj; fn = load [vptr+0]; r1 = fn(obj)
    const int obj = b.AddrOf("the_object");
    const int vptr =
        b.Load(obj, 0, 8, ir::Trait::kVPtrLoad, /*trait_id=*/0);
    const int method =
        b.Load(vptr, 0, 8, ir::Trait::kVTableEntryLoad, /*trait_id=*/0);
    const int r1 = b.ICall(method, {obj}, module.InternFnType("i64(ptr)"),
                           /*has_result=*/true, /*is_vcall=*/true);
    // Indirect call: fn2 = load fptr_slot; r2 = fn2(1)
    const int one = b.Const(1);
    const int fn2 = b.Load(slot, 0, 8, ir::Trait::kFnPtrLoad,
                           module.InternFnType("i64(i64)"));
    const int r2 = b.ICall(fn2, {one}, module.InternFnType("i64(i64)"));
    b.Ret(b.Bin(ir::BinOp::kAdd, r1, r2));
  }
  module.RecomputeAddressTaken();
  return module;
}

class EndToEndTest : public ::testing::TestWithParam<Defense> {};

TEST_P(EndToEndTest, HardenedProgramStillComputes42) {
  BuildOptions options;
  options.defense = GetParam();
  auto metrics = CompileAndRun(MakeVcallIcallModule(), options,
                               SystemVariant::kFullRoload);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_TRUE(metrics->completed);
  EXPECT_EQ(metrics->exit_code, 42);
}

INSTANTIATE_TEST_SUITE_P(AllDefenses, EndToEndTest,
                         ::testing::ValuesIn(core::kAllDefenses),
                         [](const auto& info) {
                           return std::string(
                               core::DefenseName(info.param));
                         });

TEST(EndToEndTest, RoLoadDefensesEmitRoLoadInstructions) {
  for (Defense defense : {Defense::kVCall, Defense::kICall}) {
    BuildOptions options;
    options.defense = defense;
    auto metrics = CompileAndRun(MakeVcallIcallModule(), options,
                                 SystemVariant::kFullRoload);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    EXPECT_GT(metrics->roload_loads, 0u)
        << core::DefenseName(defense);
  }
}

TEST(EndToEndTest, BaselineDefenseExecutesNoRoLoad) {
  BuildOptions options;
  options.defense = Defense::kVTint;
  auto metrics = CompileAndRun(MakeVcallIcallModule(), options,
                               SystemVariant::kFullRoload);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->roload_loads, 0u);
}

TEST(EndToEndTest, HardenedBinaryFaultsOnBaselineProcessor) {
  // A VCall-hardened binary contains ld.ro, which the unmodified core
  // decodes as an illegal instruction.
  BuildOptions options;
  options.defense = Defense::kVCall;
  auto metrics = CompileAndRun(MakeVcallIcallModule(), options,
                               SystemVariant::kBaseline);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_FALSE(metrics->completed);
}

TEST(EndToEndTest, HardenedBinaryFaultsOnUnmodifiedKernel) {
  // The processor-modified system decodes ld.ro, but the unmodified kernel
  // never tagged the allowlist pages, so the key check fails.
  BuildOptions options;
  options.defense = Defense::kVCall;
  auto metrics = CompileAndRun(MakeVcallIcallModule(), options,
                               SystemVariant::kProcessorModified);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_FALSE(metrics->completed);
}

TEST(EndToEndTest, UnhardenedBinaryRunsOnAllVariants) {
  for (SystemVariant variant :
       {SystemVariant::kBaseline, SystemVariant::kProcessorModified,
        SystemVariant::kFullRoload}) {
    BuildOptions options;
    auto metrics = CompileAndRun(MakeVcallIcallModule(), options, variant);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    EXPECT_TRUE(metrics->completed);
    EXPECT_EQ(metrics->exit_code, 42);
  }
}

}  // namespace
}  // namespace roload
