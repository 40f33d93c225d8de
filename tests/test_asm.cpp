// Assembler tests: syntax coverage, pseudo-instruction expansion, section
// attributes (including .rodata.key.<K>), layout/symbol resolution, the
// auto-defined __rodata bounds, and error reporting with line numbers.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "asmtool/assembler.h"
#include "isa/disasm.h"
#include "isa/encoding.h"
#include "isa/registers.h"
#include "mem/phys_memory.h"
#include "support/strings.h"
#include "tests/guest_util.h"

namespace roload::asmtool {
namespace {

LinkImage MustAssemble(const std::string& source) {
  auto image = Assemble(source);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return image.ok() ? *image : LinkImage{};
}

// Decodes the instruction at byte offset `offset` of the .text section.
isa::Instruction DecodeAt(const LinkImage& image, std::uint64_t offset) {
  const Section* text = image.FindSection(".text");
  EXPECT_NE(text, nullptr);
  std::uint32_t word = 0;
  for (unsigned b = 0; b < 4 && offset + b < text->bytes.size(); ++b) {
    word |= static_cast<std::uint32_t>(text->bytes[offset + b]) << (8 * b);
  }
  auto inst = isa::Decode(word);
  EXPECT_TRUE(inst.has_value());
  return inst.value_or(isa::Instruction{});
}

TEST(AssemblerTest, BasicInstructionsEncode) {
  const LinkImage image = MustAssemble(
      ".section .text\n_start:\n  addi a0, a1, -4\n  ld a2, 8(sp)\n"
      "  sd a2, 16(sp)\n");
  const isa::Instruction addi = DecodeAt(image, 0);
  EXPECT_EQ(addi.op, isa::Opcode::kAddi);
  EXPECT_EQ(addi.rd, 10);
  EXPECT_EQ(addi.rs1, 11);
  EXPECT_EQ(addi.imm, -4);
  const isa::Instruction ld = DecodeAt(image, 4);
  EXPECT_EQ(ld.op, isa::Opcode::kLd);
  EXPECT_EQ(ld.imm, 8);
  const isa::Instruction sd = DecodeAt(image, 8);
  EXPECT_EQ(sd.op, isa::Opcode::kSd);
  EXPECT_EQ(sd.imm, 16);
}

TEST(AssemblerTest, RoLoadSyntax) {
  const LinkImage image = MustAssemble(
      ".section .text\n_start:\n  ld.ro a0, (a1), 111\n"
      "  lw.ro a2, (a3), 1023\n");
  const isa::Instruction ldro = DecodeAt(image, 0);
  EXPECT_EQ(ldro.op, isa::Opcode::kLdRo);
  EXPECT_EQ(ldro.rd, 10);
  EXPECT_EQ(ldro.rs1, 11);
  EXPECT_EQ(ldro.key, 111u);
  const isa::Instruction lwro = DecodeAt(image, 4);
  EXPECT_EQ(lwro.op, isa::Opcode::kLwRo);
  EXPECT_EQ(lwro.key, 1023u);
}

TEST(AssemblerTest, RoLoadRejectsOffset) {
  auto image = Assemble(".section .text\n_start:\n  ld.ro a0, 8(a1), 1\n");
  EXPECT_FALSE(image.ok());
  EXPECT_NE(image.status().message().find("no address offset"),
            std::string::npos);
}

TEST(AssemblerTest, RoLoadRejectsOutOfRangeKey) {
  EXPECT_FALSE(Assemble(".text\n_start:\n  ld.ro a0, (a1), 1024\n").ok());
  EXPECT_FALSE(Assemble(".text\n_start:\n  c.ld.ro a0, (a1), 32\n").ok());
}

TEST(AssemblerTest, CompressedRoLoadIsTwoBytes) {
  const LinkImage image = MustAssemble(
      ".section .text\n_start:\n  c.ld.ro a0, (a1), 7\n  addi a0, a0, 0\n");
  const Section* text = image.FindSection(".text");
  ASSERT_NE(text, nullptr);
  // First parcel compressed (2 bytes), second at offset 2.
  EXPECT_EQ(isa::ParcelLength(static_cast<std::uint16_t>(
                text->bytes[0] | (text->bytes[1] << 8))),
            2u);
  EXPECT_EQ(DecodeAt(image, 2).op, isa::Opcode::kAddi);
}

TEST(AssemblerTest, CompressedRoLoadRejectsNonRvcRegisters) {
  EXPECT_FALSE(Assemble(".text\n_start:\n  c.ld.ro t0, (a1), 7\n").ok());
}

TEST(AssemblerTest, SectionAttributesFollowNames) {
  const LinkImage image = MustAssemble(R"(
.section .text
_start:
  nop
.section .rodata
r1: .quad 1
.section .rodata.key.77
r2: .quad 2
.section .data
d1: .quad 3
)");
  const Section* text = image.FindSection(".text");
  ASSERT_NE(text, nullptr);
  EXPECT_TRUE(text->perms.exec);
  EXPECT_FALSE(text->perms.write);
  const Section* rodata = image.FindSection(".rodata");
  ASSERT_NE(rodata, nullptr);
  EXPECT_FALSE(rodata->perms.write);
  EXPECT_EQ(rodata->key, 0u);
  const Section* keyed = image.FindSection(".rodata.key.77");
  ASSERT_NE(keyed, nullptr);
  EXPECT_FALSE(keyed->perms.write);
  EXPECT_EQ(keyed->key, 77u);
  const Section* data = image.FindSection(".data");
  ASSERT_NE(data, nullptr);
  EXPECT_TRUE(data->perms.write);
}

TEST(AssemblerTest, SectionsArePageAlignedAndDisjoint) {
  const LinkImage image = MustAssemble(
      ".text\n_start:\n  nop\n.data\nx: .quad 1\n.rodata\ny: .quad 2\n");
  for (const Section& section : image.sections) {
    EXPECT_EQ(section.vaddr % mem::kPageSize, 0u) << section.name;
  }
  for (std::size_t i = 0; i + 1 < image.sections.size(); ++i) {
    EXPECT_GE(image.sections[i + 1].vaddr,
              image.sections[i].vaddr + image.sections[i].size);
  }
}

TEST(AssemblerTest, LaAndBranchRelocations) {
  const LinkImage image = MustAssemble(R"(
.section .text
_start:
  la a0, value
  beq a0, a0, next
next:
  jal ra, next
.section .data
value: .quad 9
)");
  const auto value_addr = image.symbols.at("value");
  const isa::Instruction lui = DecodeAt(image, 0);
  const isa::Instruction addi = DecodeAt(image, 4);
  EXPECT_EQ(lui.op, isa::Opcode::kLui);
  EXPECT_EQ(addi.op, isa::Opcode::kAddi);
  const std::uint64_t materialized =
      static_cast<std::uint64_t>((lui.imm << 12) + addi.imm);
  EXPECT_EQ(materialized, value_addr);
  const isa::Instruction beq = DecodeAt(image, 8);
  EXPECT_EQ(beq.imm, 4);  // next is the following instruction
  const isa::Instruction jal = DecodeAt(image, 12);
  EXPECT_EQ(jal.imm, 0);  // jumps to itself
}

TEST(AssemblerTest, LiExpansions) {
  const LinkImage small = MustAssemble(".text\n_start:\n  li a0, 100\n  nop\n");
  EXPECT_EQ(DecodeAt(small, 0).op, isa::Opcode::kAddi);
  const LinkImage large =
      MustAssemble(".text\n_start:\n  li a0, 0x12345678\n");
  EXPECT_EQ(DecodeAt(large, 0).op, isa::Opcode::kLui);
  EXPECT_EQ(DecodeAt(large, 4).op, isa::Opcode::kAddiw);
  // Wider constants: lui+addiw builds the high part, slli shifts it into
  // place and addi adds the low 12 bits.
  const LinkImage wide =
      MustAssemble(".text\n_start:\n  li a0, 0x123456789\n");
  EXPECT_EQ(DecodeAt(wide, 0).op, isa::Opcode::kLui);
  EXPECT_EQ(DecodeAt(wide, 4).op, isa::Opcode::kAddiw);
  EXPECT_EQ(DecodeAt(wide, 8).op, isa::Opcode::kSlli);
  EXPECT_EQ(DecodeAt(wide, 12).op, isa::Opcode::kAddi);
}

// li materializes any 64-bit constant: each one is loaded into a0 and read
// back through the simulator as the guest's full 64-bit exit code.
TEST(AssemblerTest, LiRoundTripsEdgeConstants) {
  for (const std::int64_t value :
       {std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max(), std::int64_t{0x80000000},
        std::int64_t{-0x80000001}, std::int64_t{0xFFFFFFFF},
        std::int64_t{-0x80000000}, std::int64_t{0x7FFFF800},
        std::int64_t{0x123456789}, std::int64_t{0x0000123400000000},
        std::int64_t{-0x7FFFFFFFFFFFF001}}) {
    SCOPED_TRACE(value);
    testing::ExpectExit(
        StrFormat(".text\n_start:\n  li a0, %lld\n  li a7, 93\n  ecall\n",
                  static_cast<long long>(value)),
        value);
  }
  testing::ExpectExit(
      ".text\n_start:\n  li a0, 0xFFFFFFFFFFFFFFFF\n  li a7, 93\n  ecall\n",
      -1);
}

TEST(AssemblerTest, PseudoInstructions) {
  const LinkImage image = MustAssemble(R"(
.text
_start:
  mv a0, a1
  not a2, a3
  neg a4, a5
  seqz a6, a7
  snez t0, t1
  j _start
  ret
  nop
)");
  EXPECT_EQ(DecodeAt(image, 0).op, isa::Opcode::kAddi);
  EXPECT_EQ(DecodeAt(image, 4).op, isa::Opcode::kXori);
  EXPECT_EQ(DecodeAt(image, 4).imm, -1);
  EXPECT_EQ(DecodeAt(image, 8).op, isa::Opcode::kSub);
  EXPECT_EQ(DecodeAt(image, 12).op, isa::Opcode::kSltiu);
  EXPECT_EQ(DecodeAt(image, 16).op, isa::Opcode::kSltu);
  EXPECT_EQ(DecodeAt(image, 20).op, isa::Opcode::kJal);
  EXPECT_EQ(DecodeAt(image, 20).rd, 0);
  const isa::Instruction ret = DecodeAt(image, 24);
  EXPECT_EQ(ret.op, isa::Opcode::kJalr);
  EXPECT_EQ(ret.rs1, isa::kRa);
}

TEST(AssemblerTest, DataDirectives) {
  const LinkImage image = MustAssemble(R"(
.data
bytes: .byte 1, 2, 3
.align 3
quads: .quad 0x1122334455667788, sym
half: .half 0x1234
word: .word -1
z: .zero 5
s: .asciz "hi"
.text
sym:
_start:
  nop
)");
  const Section* data = image.FindSection(".data");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->bytes[0], 1);
  EXPECT_EQ(data->bytes[2], 3);
  const std::uint64_t quads_off = image.symbols.at("quads") - data->vaddr;
  EXPECT_EQ(quads_off % 8, 0u);
  EXPECT_EQ(data->bytes[quads_off], 0x88);
  EXPECT_EQ(data->bytes[quads_off + 7], 0x11);
  // Second quad holds sym's address.
  std::uint64_t sym_value = 0;
  for (int b = 7; b >= 0; --b) {
    sym_value = (sym_value << 8) | data->bytes[quads_off + 8 + b];
  }
  EXPECT_EQ(sym_value, image.symbols.at("sym"));
  const std::uint64_t s_off = image.symbols.at("s") - data->vaddr;
  EXPECT_EQ(data->bytes[s_off], 'h');
  EXPECT_EQ(data->bytes[s_off + 2], 0);  // NUL terminator
}

TEST(AssemblerTest, EntrySymbolSelection) {
  const LinkImage image =
      MustAssemble(".text\nfoo:\n  nop\n_start:\n  nop\n");
  EXPECT_EQ(image.entry, image.symbols.at("_start"));
  AssemblerOptions options;
  options.entry_symbol = "foo";
  auto custom = Assemble(".text\nfoo:\n  nop\n", options);
  ASSERT_TRUE(custom.ok());
  EXPECT_EQ(custom->entry, custom->symbols.at("foo"));
}

TEST(AssemblerTest, RodataBoundsSymbols) {
  const LinkImage image = MustAssemble(R"(
.text
_start:
  nop
.rodata
a: .quad 1
.section .rodata.key.5
b: .quad 2
)");
  const std::uint64_t start = image.symbols.at("__rodata_start");
  const std::uint64_t end = image.symbols.at("__rodata_end");
  EXPECT_LT(start, end);
  EXPECT_LE(start, image.symbols.at("a"));
  EXPECT_GT(end, image.symbols.at("b"));
  // All keyed/plain rodata falls inside; text does not.
  EXPECT_TRUE(image.symbols.at("_start") < start ||
              image.symbols.at("_start") >= end);
}

TEST(AssemblerErrorTest, ReportsLineNumbers) {
  auto bad = Assemble("  nop\n  bogus a0, a1\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(AssemblerErrorTest, CommonMistakes) {
  EXPECT_FALSE(Assemble(".text\nx:\nx:\n  nop\n").ok());   // duplicate label
  EXPECT_FALSE(Assemble(".text\n_start:\n  addi a0, a1\n").ok());
  EXPECT_FALSE(Assemble(".text\n_start:\n  addi q0, a1, 0\n").ok());
  EXPECT_FALSE(Assemble(".text\n_start:\n  j nowhere\n").ok());
  EXPECT_FALSE(Assemble(".text\n_start:\n  .bogusdirective 1\n").ok());
  EXPECT_FALSE(Assemble(".data\nx: .quad undefined_sym\n").ok());
}

TEST(AssemblerTest, CommentsAndBlankLines) {
  const LinkImage image = MustAssemble(
      "# leading comment\n\n.text\n_start:  # trailing\n  nop # mid\n");
  EXPECT_EQ(DecodeAt(image, 0).op, isa::Opcode::kAddi);
}

TEST(ImageTest, MappedAndCodeBytes) {
  const LinkImage image = MustAssemble(
      ".text\n_start:\n  nop\n.data\nx: .zero 5000\n");
  // text rounds to 1 page; data (5000B) rounds to 2 pages.
  EXPECT_EQ(image.MappedBytes(), 3 * mem::kPageSize);
  EXPECT_EQ(image.CodeBytes(), 4u);
}

TEST(ImageTest, AttrsForSectionNamePolicy) {
  EXPECT_TRUE(AttrsForSectionName(".text.hot").perms.exec);
  EXPECT_EQ(AttrsForSectionName(".rodata.key.123").key, 123u);
  EXPECT_FALSE(AttrsForSectionName(".rodata.key.123").perms.write);
  EXPECT_EQ(AttrsForSectionName(".rodata").key, 0u);
  EXPECT_TRUE(AttrsForSectionName(".bss").perms.write);
  EXPECT_TRUE(AttrsForSectionName("unknown").perms.write);
}

}  // namespace
}  // namespace roload::asmtool

namespace roload::asmtool {
namespace {

TEST(AssemblerTest, AscizEscapeSequences) {
  auto image = Assemble(".data\ns: .asciz \"a\\n\\t\\\\b\"\n.text\n_start:\n  nop\n");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  const Section* data = image->FindSection(".data");
  ASSERT_NE(data, nullptr);
  const std::string expected = "a\n\t\\b";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(data->bytes[i], static_cast<std::uint8_t>(expected[i])) << i;
  }
  EXPECT_EQ(data->bytes[expected.size()], 0);  // NUL
  EXPECT_FALSE(Assemble(".data\ns: .asciz \"bad\\q\"\n").ok());
}

}  // namespace
}  // namespace roload::asmtool
