// Backend tests: lowering correctness at the assembly-text level — the
// ROLoad machine pass (ld + roload-md -> ld.ro, addi insertion), the
// icall fusion peephole, frame construction, runtime stubs, and the
// compressed-encoding option.
#include <gtest/gtest.h>

#include "backend/codegen.h"
#include "ir/builder.h"

namespace roload::backend {
namespace {

// A function whose only interesting content is one load with metadata.
ir::Module LoadModule(std::int64_t offset, bool with_md,
                      std::uint32_t key = 111) {
  ir::Module module;
  module.name += "t";
  ir::Global g;
  g.name = "g";
  g.read_only = true;
  g.key = with_md ? key : 0;
  g.quads.push_back(ir::GlobalInit{5, ""});
  module.globals.push_back(g);
  ir::FunctionBuilder b(&module, "main", "i64()", 0);
  const int addr = b.AddrOf("g");
  const int v = b.Load(addr, offset);
  b.Ret(v);
  if (with_md) {
    for (auto& block : module.functions[0].blocks) {
      for (auto& instr : block.instrs) {
        if (instr.kind == ir::InstrKind::kLoad) {
          instr.has_roload_md = true;
          instr.roload_key = key;
        }
      }
    }
  }
  return module;
}

TEST(CodegenTest, PlainLoadKeepsOffsetInline) {
  auto result = Generate(LoadModule(16, /*with_md=*/false));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->assembly.find("ld t1, 16(t0)"), std::string::npos);
  EXPECT_EQ(result->assembly.find("ld.ro"), std::string::npos);
  EXPECT_EQ(result->roload_instructions, 0u);
}

TEST(CodegenTest, MdLoadBecomesLdRo) {
  auto result = Generate(LoadModule(0, /*with_md=*/true));
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->assembly.find("ld.ro t1, (t0), 111"), std::string::npos);
  EXPECT_EQ(result->roload_instructions, 1u);
  EXPECT_EQ(result->extra_addi_for_roload, 0u);
}

TEST(CodegenTest, MdLoadWithOffsetInsertsAddi) {
  auto result = Generate(LoadModule(24, /*with_md=*/true));
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->assembly.find("addi t0, t0, 24"), std::string::npos);
  EXPECT_NE(result->assembly.find("ld.ro t1, (t0), 111"), std::string::npos);
  EXPECT_EQ(result->extra_addi_for_roload, 1u);
}

TEST(CodegenTest, KeyedGlobalLandsInKeyedSection) {
  auto result = Generate(LoadModule(0, /*with_md=*/true, 345));
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->assembly.find(".section .rodata.key.345"),
            std::string::npos);
}

TEST(CodegenTest, RuntimeStubsEmitted) {
  auto result = Generate(LoadModule(0, false));
  ASSERT_TRUE(result.ok());
  for (const char* stub : {"_start:", "__rt_exit:", "__rt_abort:",
                           "__rt_write:", "__rt_mmap:", "__rt_mprotect:"}) {
    EXPECT_NE(result->assembly.find(stub), std::string::npos) << stub;
  }
}

// Fusion: a roload-md load consumed only by the following icall collapses
// into the two-instruction sequence of Listing 3.
ir::Module IcallModule(bool reuse_loaded_value) {
  ir::Module module;
  module.name = "t";
  const int cb = module.InternFnType("i64(i64)");
  ir::Global slot;
  slot.name = "slot";
  slot.quads.push_back(ir::GlobalInit{0, "callee"});
  module.globals.push_back(slot);
  {
    ir::FunctionBuilder b(&module, "callee", "i64(i64)", 1);
    b.Ret(b.Param(0));
  }
  ir::FunctionBuilder b(&module, "main", "i64()", 0);
  const int addr = b.AddrOf("slot");
  const int target = b.Load(addr, 0, 8, ir::Trait::kFnPtrLoad, cb);
  const int arg = b.Const(1);
  const int r = b.ICall(target, {arg}, cb);
  const int out = reuse_loaded_value ? b.Bin(ir::BinOp::kAdd, r, target) : r;
  b.Ret(out);
  // Tag the fn-ptr load like the ICall pass would.
  for (auto& block : module.FindFunction("main")->blocks) {
    for (auto& instr : block.instrs) {
      if (instr.kind == ir::InstrKind::kLoad) {
        instr.has_roload_md = true;
        instr.roload_key = 300;
      }
    }
  }
  module.RecomputeAddressTaken();
  return module;
}

TEST(CodegenTest, FusionAvoidsSpillForSoleConsumer) {
  // Move the load adjacent to the icall: build a module where they are
  // adjacent (no const in between).
  ir::Module module;
  const int cb = module.InternFnType("i64(i64)");
  ir::Global slot;
  slot.name = "slot";
  slot.quads.push_back(ir::GlobalInit{0, "callee"});
  module.globals.push_back(slot);
  {
    ir::FunctionBuilder b(&module, "callee", "i64(i64)", 1);
    b.Ret(b.Param(0));
  }
  ir::FunctionBuilder b(&module, "main", "i64()", 0);
  const int arg = b.Const(1);
  const int addr = b.AddrOf("slot");
  const int target = b.Load(addr, 0, 8, ir::Trait::kFnPtrLoad, cb);
  const int r = b.ICall(target, {arg}, cb);
  b.Ret(r);
  for (auto& block : module.FindFunction("main")->blocks) {
    for (auto& instr : block.instrs) {
      if (instr.kind == ir::InstrKind::kLoad) {
        instr.has_roload_md = true;
        instr.roload_key = 300;
      }
    }
  }
  module.RecomputeAddressTaken();
  auto result = Generate(module);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->assembly.find("ld.ro t2, (t2), 300"), std::string::npos)
      << result->assembly;
}

TEST(CodegenTest, NoFusionWhenValueReusedElsewhere) {
  auto result = Generate(IcallModule(/*reuse_loaded_value=*/true));
  ASSERT_TRUE(result.ok());
  // Falls back to the generic spill path: ld.ro lands in t1.
  EXPECT_NE(result->assembly.find("ld.ro t1, (t0), 300"), std::string::npos)
      << result->assembly;
}

TEST(CodegenTest, CompressedRoLoadOption) {
  CodegenOptions options;
  options.use_compressed_roload = true;
  auto result = Generate(LoadModule(0, /*with_md=*/true, /*key=*/7),
                         options);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->assembly.find("c.ld.ro a5, (s1), 7"), std::string::npos);
  // Keys above 31 cannot use the compressed form.
  auto wide = Generate(LoadModule(0, true, 300), options);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->assembly.find("c.ld.ro"), std::string::npos);
  EXPECT_NE(wide->assembly.find("ld.ro"), std::string::npos);
}

TEST(CodegenTest, CfiLabelEmittedBeforePrologue) {
  ir::Module module;
  ir::FunctionBuilder b(&module, "main", "i64()", 0);
  b.Ret(b.Const(0));
  ir::Instr label;
  label.kind = ir::InstrKind::kCfiLabel;
  label.imm = 0x105;
  auto& entry = module.functions[0].blocks[0].instrs;
  entry.insert(entry.begin(), label);
  auto result = Generate(module);
  ASSERT_TRUE(result.ok());
  const std::size_t label_pos = result->assembly.find("lui zero, 0x105");
  const std::size_t prologue_pos = result->assembly.find("addi sp, sp, -");
  ASSERT_NE(label_pos, std::string::npos);
  ASSERT_NE(prologue_pos, std::string::npos);
  EXPECT_LT(label_pos, prologue_pos);
  EXPECT_EQ(result->cfi_id_words, 1u);
}

TEST(CodegenTest, RejectsUnverifiableModule) {
  ir::Module module;
  ir::FunctionBuilder b(&module, "main", "i64()", 0);
  b.Br("nowhere");
  EXPECT_FALSE(Generate(module).ok());
}

TEST(CodegenTest, FrameTooLargeIsError) {
  ir::Module module;
  ir::FunctionBuilder b(&module, "main", "i64()", 0);
  int v = b.Const(0);
  for (int i = 0; i < 300; ++i) v = b.BinImm(ir::BinOp::kAdd, v, 1);
  b.Ret(v);
  auto result = Generate(module);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("frame"), std::string::npos);
}

TEST(CodegenTest, CallArgumentsLoadIntoArgRegisters) {
  ir::Module module;
  {
    ir::FunctionBuilder b(&module, "f", "i64(i64,i64,i64)", 3);
    b.Ret(b.Param(2));
  }
  ir::FunctionBuilder b(&module, "main", "i64()", 0);
  const int a = b.Const(1);
  const int c = b.Const(2);
  const int d = b.Const(3);
  const int r = b.Call("f", {a, c, d});
  b.Ret(r);
  auto result = Generate(module);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->assembly.find("ld a0, "), std::string::npos);
  EXPECT_NE(result->assembly.find("ld a1, "), std::string::npos);
  EXPECT_NE(result->assembly.find("ld a2, "), std::string::npos);
  EXPECT_NE(result->assembly.find("call f"), std::string::npos);
}

}  // namespace
}  // namespace roload::backend
