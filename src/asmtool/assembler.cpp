#include "asmtool/assembler.h"

#include <bit>
#include <map>
#include <string>
#include <vector>

#include "isa/encoding.h"
#include "isa/registers.h"
#include "mem/phys_memory.h"
#include "support/bits.h"
#include "support/strings.h"

namespace roload::asmtool {
namespace {

using isa::Instruction;
using isa::Opcode;

// Relocation attached to one machine instruction.
enum class RelocKind : std::uint8_t {
  kNone,
  kBranch,  // B-format pc-relative to symbol
  kJal,     // J-format pc-relative to symbol
  kAbsHi,   // %hi(symbol): bits [31:12] of absolute address (w/ rounding)
  kAbsLo,   // %lo(symbol): signed low 12 bits
};

struct MachineInst {
  Instruction inst;
  RelocKind reloc = RelocKind::kNone;
  std::string symbol;
  int line = 0;
};

struct DataChunk {
  unsigned width = 8;          // bytes per element
  std::vector<std::int64_t> literals;  // used when symbols[i] empty
  std::vector<std::string> symbols;    // per-element symbol or ""
};

struct Item {
  enum class Kind { kInst, kData, kZero, kAlign, kAsciz } kind;
  MachineInst mi;       // kInst
  DataChunk data;       // kData
  std::uint64_t count = 0;  // kZero: bytes; kAlign: alignment
  std::string text;     // kAsciz payload (NUL appended on emit)
  std::uint64_t offset = 0;  // assigned in pass 1
  int line = 0;
};

struct PendingSection {
  std::string name;
  SectionAttrs attrs;
  std::vector<Item> items;
  std::uint64_t size = 0;
  std::uint64_t vaddr = 0;
};

class Assembler {
 public:
  explicit Assembler(const AssemblerOptions& options) : options_(options) {}

  Status Run(std::string_view source, LinkImage* image);

 private:
  Status Error(int line, const std::string& message) const {
    return Status::InvalidArgument(
        StrFormat("line %d: %s", line, message.c_str()));
  }

  PendingSection& CurrentSection() {
    if (sections_.empty()) {
      sections_.push_back(
          {".text", AttrsForSectionName(".text"), {}, 0, 0});
      section_index_[".text"] = 0;
    }
    return sections_[current_section_];
  }

  Status SwitchSection(const std::string& name);
  Status ParseLine(std::string_view line, int line_no);
  Status ParseDirective(std::string_view head, std::string_view rest,
                        int line_no);
  Status ParseInstruction(std::string_view head, std::string_view rest,
                          int line_no);
  Status EmitInst(const MachineInst& mi) {
    Item item;
    item.kind = Item::Kind::kInst;
    item.mi = mi;
    item.line = mi.line;
    CurrentSection().items.push_back(std::move(item));
    return Status::Ok();
  }

  // Expands the `li rd, value` pseudo-op for any 64-bit constant.
  Status EmitLoadImmediate(std::uint8_t rd, std::int64_t value, int line_no);

  // Operand helpers -------------------------------------------------------
  StatusOr<unsigned> ParseReg(std::string_view text, int line_no) const;
  StatusOr<std::int64_t> ParseImm(std::string_view text, int line_no) const;

  Status Layout();
  Status Resolve(LinkImage* image);

  AssemblerOptions options_;
  std::vector<PendingSection> sections_;
  std::map<std::string, std::size_t> section_index_;
  std::size_t current_section_ = 0;
  // symbol -> (section index, item index at definition point, offset known
  // after layout). We record (section, size-at-definition) during parsing.
  struct SymbolDef {
    std::size_t section;
    std::size_t item_index;  // index of next item at definition time
  };
  std::map<std::string, SymbolDef> symbol_defs_;
  std::map<std::string, std::uint64_t> symbol_addrs_;
};

Status Assembler::SwitchSection(const std::string& name) {
  auto it = section_index_.find(name);
  if (it == section_index_.end()) {
    section_index_[name] = sections_.size();
    sections_.push_back({name, AttrsForSectionName(name), {}, 0, 0});
    current_section_ = sections_.size() - 1;
  } else {
    current_section_ = it->second;
  }
  return Status::Ok();
}

StatusOr<unsigned> Assembler::ParseReg(std::string_view text,
                                       int line_no) const {
  auto reg = isa::ParseRegName(StripWhitespace(text));
  if (!reg) {
    return Error(line_no,
                 StrFormat("bad register '%.*s'",
                           static_cast<int>(text.size()), text.data()));
  }
  return *reg;
}

Status Assembler::EmitLoadImmediate(std::uint8_t rd, std::int64_t value,
                                     int line_no) {
  auto emit = [&](Opcode op, std::uint8_t rs1, std::int64_t imm) {
    MachineInst mi;
    mi.line = line_no;
    mi.inst = Instruction{.op = op, .rd = rd, .rs1 = rs1, .imm = imm};
    return EmitInst(mi);
  };
  if (FitsSigned(value, 12)) return emit(Opcode::kAddi, 0, value);
  if (FitsSigned(value, 32)) {
    // lui loads bits [31:12]; addiw adds the signed low 12, so round up
    // the high part when the low part is negative.
    const std::int64_t hi = (value + 0x800) >> 12;
    const std::int64_t lo = value - (hi << 12);
    ROLOAD_RETURN_IF_ERROR(emit(Opcode::kLui, 0, hi & 0xFFFFF));
    return emit(Opcode::kAddiw, rd, lo);
  }
  // Wider constants, as the RISC-V pseudo-op expands them: materialize the
  // high part with its trailing zero bits dropped, shift it into place,
  // then add the sign-extended low 12 bits. The arithmetic is modulo 2^64,
  // as in the registers.
  const std::uint64_t bits = static_cast<std::uint64_t>(value);
  const std::int64_t lo = SignExtend(bits, 12);
  std::int64_t hi =
      static_cast<std::int64_t>(bits - static_cast<std::uint64_t>(lo)) >> 12;
  const int zeros = std::countr_zero(static_cast<std::uint64_t>(hi));
  hi >>= zeros;
  ROLOAD_RETURN_IF_ERROR(EmitLoadImmediate(rd, hi, line_no));
  ROLOAD_RETURN_IF_ERROR(emit(Opcode::kSlli, rd, 12 + zeros));
  if (lo == 0) return Status::Ok();
  return emit(Opcode::kAddi, rd, lo);
}

StatusOr<std::int64_t> Assembler::ParseImm(std::string_view text,
                                           int line_no) const {
  auto value = ParseInt(StripWhitespace(text));
  if (!value) {
    return Error(line_no,
                 StrFormat("bad immediate '%.*s'",
                           static_cast<int>(text.size()), text.data()));
  }
  return *value;
}

Status Assembler::ParseDirective(std::string_view head,
                                 std::string_view rest, int line_no) {
  if (head == ".section") {
    return SwitchSection(std::string(StripWhitespace(rest)));
  }
  if (head == ".text" || head == ".data" || head == ".bss" ||
      head == ".rodata") {
    return SwitchSection(std::string(head));
  }
  if (head == ".globl" || head == ".global" || head == ".type" ||
      head == ".size" || head == ".option" || head == ".attribute") {
    return Status::Ok();  // accepted for compatibility; all symbols global
  }
  if (head == ".align" || head == ".balign" || head == ".p2align") {
    auto value = ParseImm(rest, line_no);
    if (!value.ok()) return value.status();
    std::uint64_t align = static_cast<std::uint64_t>(*value);
    if (head != ".balign") align = std::uint64_t{1} << align;
    if (!IsPowerOfTwo(align) || align > mem::kPageSize) {
      return Error(line_no, "bad alignment");
    }
    Item item;
    item.kind = Item::Kind::kAlign;
    item.count = align;
    item.line = line_no;
    CurrentSection().items.push_back(std::move(item));
    return Status::Ok();
  }
  if (head == ".zero" || head == ".skip" || head == ".space") {
    auto value = ParseImm(rest, line_no);
    if (!value.ok()) return value.status();
    if (*value < 0) return Error(line_no, "negative .zero size");
    Item item;
    item.kind = Item::Kind::kZero;
    item.count = static_cast<std::uint64_t>(*value);
    item.line = line_no;
    CurrentSection().items.push_back(std::move(item));
    return Status::Ok();
  }
  if (head == ".asciz" || head == ".string") {
    std::string_view text = StripWhitespace(rest);
    if (text.size() < 2 || text.front() != '"' || text.back() != '"') {
      return Error(line_no, ".asciz expects a quoted string");
    }
    text = text.substr(1, text.size() - 2);
    // Process the common escape sequences.
    std::string unescaped;
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] != '\\' || i + 1 == text.size()) {
        unescaped.push_back(text[i]);
        continue;
      }
      ++i;
      switch (text[i]) {
        case 'n':
          unescaped.push_back('\n');
          break;
        case 't':
          unescaped.push_back('\t');
          break;
        case 'r':
          unescaped.push_back('\r');
          break;
        case '0':
          unescaped.push_back('\0');
          break;
        case '\\':
          unescaped.push_back('\\');
          break;
        case '"':
          unescaped.push_back('"');
          break;
        default:
          return Error(line_no, "unsupported escape in string literal");
      }
    }
    Item item;
    item.kind = Item::Kind::kAsciz;
    item.text = std::move(unescaped);
    item.line = line_no;
    CurrentSection().items.push_back(std::move(item));
    return Status::Ok();
  }
  unsigned width = 0;
  if (head == ".quad" || head == ".dword") width = 8;
  if (head == ".word") width = 4;
  if (head == ".half") width = 2;
  if (head == ".byte") width = 1;
  if (width != 0) {
    Item item;
    item.kind = Item::Kind::kData;
    item.data.width = width;
    item.line = line_no;
    for (std::string_view field : SplitString(rest, ',')) {
      field = StripWhitespace(field);
      if (auto value = ParseInt(field)) {
        item.data.literals.push_back(*value);
        item.data.symbols.emplace_back();
      } else {
        if (width != 8) {
          return Error(line_no, "symbol data requires .quad");
        }
        item.data.literals.push_back(0);
        item.data.symbols.emplace_back(field);
      }
    }
    if (item.data.literals.empty()) {
      return Error(line_no, "empty data directive");
    }
    CurrentSection().items.push_back(std::move(item));
    return Status::Ok();
  }
  return Error(line_no, StrFormat("unknown directive '%.*s'",
                                  static_cast<int>(head.size()),
                                  head.data()));
}

Status Assembler::ParseInstruction(std::string_view head,
                                   std::string_view rest, int line_no) {
  const std::string mnemonic(head);
  std::vector<std::string_view> ops;
  for (std::string_view field : SplitString(rest, ',')) {
    ops.push_back(StripWhitespace(field));
  }

  MachineInst mi;
  mi.line = line_no;

  auto reg = [&](std::size_t index) { return ParseReg(ops[index], line_no); };
  auto imm = [&](std::size_t index) { return ParseImm(ops[index], line_no); };
  auto need = [&](std::size_t n) -> Status {
    if (ops.size() != n) {
      return Error(line_no, StrFormat("'%s' expects %zu operands",
                                      mnemonic.c_str(), n));
    }
    return Status::Ok();
  };
  // Parses "off(reg)" or "(reg)" or "symbol-less off" memory operands.
  auto parse_mem = [&](std::string_view text, std::int64_t* offset,
                       unsigned* base) -> Status {
    const std::size_t lparen = text.find('(');
    if (lparen == std::string_view::npos || text.back() != ')') {
      return Error(line_no, "expected mem operand 'off(reg)'");
    }
    std::string_view off_text = StripWhitespace(text.substr(0, lparen));
    std::string_view reg_text =
        text.substr(lparen + 1, text.size() - lparen - 2);
    *offset = 0;
    if (!off_text.empty()) {
      auto value = ParseInt(off_text);
      if (!value) return Error(line_no, "bad mem offset");
      *offset = *value;
    }
    auto base_reg = ParseReg(reg_text, line_no);
    if (!base_reg.ok()) return base_reg.status();
    *base = *base_reg;
    return Status::Ok();
  };

  // ---- ROLoad family: "ld.ro rd, (rs1), key" ---------------------------
  if (mnemonic == "lb.ro" || mnemonic == "lh.ro" || mnemonic == "lw.ro" ||
      mnemonic == "ld.ro" || mnemonic == "c.ld.ro") {
    ROLOAD_RETURN_IF_ERROR(need(3));
    auto rd = reg(0);
    if (!rd.ok()) return rd.status();
    std::int64_t offset = 0;
    unsigned base = 0;
    ROLOAD_RETURN_IF_ERROR(parse_mem(ops[1], &offset, &base));
    if (offset != 0) {
      return Error(line_no, "ROLoad instructions carry no address offset");
    }
    auto key = imm(2);
    if (!key.ok()) return key.status();
    const std::uint32_t max_key = mnemonic == "c.ld.ro"
                                      ? isa::kNumCompressedKeys
                                      : isa::kNumPageKeys;
    if (*key < 0 || static_cast<std::uint64_t>(*key) >= max_key) {
      return Error(line_no, "ROLoad key out of range");
    }
    mi.inst.op = *isa::ParseOpcodeName(mnemonic);
    mi.inst.rd = static_cast<std::uint8_t>(*rd);
    mi.inst.rs1 = static_cast<std::uint8_t>(base);
    mi.inst.key = static_cast<std::uint32_t>(*key);
    mi.inst.length = mnemonic == "c.ld.ro" ? 2 : 4;
    if (mnemonic == "c.ld.ro" &&
        (mi.inst.rd < 8 || mi.inst.rd >= 16 || mi.inst.rs1 < 8 ||
         mi.inst.rs1 >= 16)) {
      return Error(line_no, "c.ld.ro requires registers s0-s1/a0-a5");
    }
    return EmitInst(mi);
  }

  // ---- Pseudo-instructions ----------------------------------------------
  if (mnemonic == "nop") {
    ROLOAD_RETURN_IF_ERROR(need(0));
    mi.inst = Instruction{.op = Opcode::kAddi};
    return EmitInst(mi);
  }
  if (mnemonic == "li") {
    ROLOAD_RETURN_IF_ERROR(need(2));
    auto rd = reg(0);
    if (!rd.ok()) return rd.status();
    auto value = imm(1);
    if (!value.ok()) return value.status();
    return EmitLoadImmediate(static_cast<std::uint8_t>(*rd), *value, line_no);
  }
  if (mnemonic == "la") {
    ROLOAD_RETURN_IF_ERROR(need(2));
    auto rd = reg(0);
    if (!rd.ok()) return rd.status();
    const std::string symbol(ops[1]);
    mi.inst = Instruction{.op = Opcode::kLui,
                          .rd = static_cast<std::uint8_t>(*rd)};
    mi.reloc = RelocKind::kAbsHi;
    mi.symbol = symbol;
    ROLOAD_RETURN_IF_ERROR(EmitInst(mi));
    MachineInst add;
    add.line = line_no;
    add.inst = Instruction{.op = Opcode::kAddi,
                           .rd = static_cast<std::uint8_t>(*rd),
                           .rs1 = static_cast<std::uint8_t>(*rd)};
    add.reloc = RelocKind::kAbsLo;
    add.symbol = symbol;
    return EmitInst(add);
  }
  if (mnemonic == "mv" || mnemonic == "not" || mnemonic == "neg" ||
      mnemonic == "seqz" || mnemonic == "snez" || mnemonic == "sext.w") {
    ROLOAD_RETURN_IF_ERROR(need(2));
    auto rd = reg(0);
    if (!rd.ok()) return rd.status();
    auto rs = reg(1);
    if (!rs.ok()) return rs.status();
    const auto rd8 = static_cast<std::uint8_t>(*rd);
    const auto rs8 = static_cast<std::uint8_t>(*rs);
    if (mnemonic == "mv") {
      mi.inst = Instruction{.op = Opcode::kAddi, .rd = rd8, .rs1 = rs8};
    } else if (mnemonic == "not") {
      mi.inst =
          Instruction{.op = Opcode::kXori, .rd = rd8, .rs1 = rs8, .imm = -1};
    } else if (mnemonic == "neg") {
      mi.inst = Instruction{.op = Opcode::kSub, .rd = rd8, .rs2 = rs8};
    } else if (mnemonic == "seqz") {
      mi.inst =
          Instruction{.op = Opcode::kSltiu, .rd = rd8, .rs1 = rs8, .imm = 1};
    } else if (mnemonic == "snez") {
      mi.inst = Instruction{.op = Opcode::kSltu, .rd = rd8, .rs2 = rs8};
    } else {  // sext.w
      mi.inst = Instruction{.op = Opcode::kAddiw, .rd = rd8, .rs1 = rs8};
    }
    return EmitInst(mi);
  }
  if (mnemonic == "j" || mnemonic == "call" || mnemonic == "tail") {
    ROLOAD_RETURN_IF_ERROR(need(1));
    mi.inst = Instruction{.op = Opcode::kJal};
    mi.inst.rd = mnemonic == "call" ? isa::kRa : isa::kZero;
    mi.reloc = RelocKind::kJal;
    mi.symbol = std::string(ops[0]);
    return EmitInst(mi);
  }
  if (mnemonic == "jr") {
    ROLOAD_RETURN_IF_ERROR(need(1));
    auto rs = reg(0);
    if (!rs.ok()) return rs.status();
    mi.inst = Instruction{.op = Opcode::kJalr,
                          .rs1 = static_cast<std::uint8_t>(*rs)};
    return EmitInst(mi);
  }
  if (mnemonic == "ret") {
    ROLOAD_RETURN_IF_ERROR(need(0));
    mi.inst = Instruction{.op = Opcode::kJalr, .rs1 = isa::kRa};
    return EmitInst(mi);
  }
  if (mnemonic == "beqz" || mnemonic == "bnez" || mnemonic == "bltz" ||
      mnemonic == "bgez" || mnemonic == "bgtz" || mnemonic == "blez") {
    ROLOAD_RETURN_IF_ERROR(need(2));
    auto rs = reg(0);
    if (!rs.ok()) return rs.status();
    const auto rs8 = static_cast<std::uint8_t>(*rs);
    mi.reloc = RelocKind::kBranch;
    mi.symbol = std::string(ops[1]);
    if (mnemonic == "beqz") {
      mi.inst = Instruction{.op = Opcode::kBeq, .rs1 = rs8};
    } else if (mnemonic == "bnez") {
      mi.inst = Instruction{.op = Opcode::kBne, .rs1 = rs8};
    } else if (mnemonic == "bltz") {
      mi.inst = Instruction{.op = Opcode::kBlt, .rs1 = rs8};
    } else if (mnemonic == "bgez") {
      mi.inst = Instruction{.op = Opcode::kBge, .rs1 = rs8};
    } else if (mnemonic == "bgtz") {
      mi.inst = Instruction{.op = Opcode::kBlt, .rs2 = rs8};
    } else {  // blez
      mi.inst = Instruction{.op = Opcode::kBge, .rs2 = rs8};
    }
    return EmitInst(mi);
  }

  // ---- Real mnemonics ----------------------------------------------------
  auto opcode = isa::ParseOpcodeName(mnemonic);
  if (!opcode) {
    return Error(line_no,
                 StrFormat("unknown mnemonic '%s'", mnemonic.c_str()));
  }
  mi.inst.op = *opcode;
  switch (isa::OpcodeFormat(*opcode)) {
    case isa::Format::kR: {
      ROLOAD_RETURN_IF_ERROR(need(3));
      auto rd = reg(0);
      auto rs1 = reg(1);
      auto rs2 = reg(2);
      if (!rd.ok()) return rd.status();
      if (!rs1.ok()) return rs1.status();
      if (!rs2.ok()) return rs2.status();
      mi.inst.rd = static_cast<std::uint8_t>(*rd);
      mi.inst.rs1 = static_cast<std::uint8_t>(*rs1);
      mi.inst.rs2 = static_cast<std::uint8_t>(*rs2);
      return EmitInst(mi);
    }
    case isa::Format::kI:
    case isa::Format::kIShift: {
      if (*opcode == Opcode::kJalr) {
        // Forms: "jalr rs" / "jalr rd, off(rs1)".
        if (ops.size() == 1) {
          auto rs = reg(0);
          if (!rs.ok()) return rs.status();
          mi.inst.rd = isa::kRa;
          mi.inst.rs1 = static_cast<std::uint8_t>(*rs);
          return EmitInst(mi);
        }
        ROLOAD_RETURN_IF_ERROR(need(2));
        auto rd = reg(0);
        if (!rd.ok()) return rd.status();
        std::int64_t offset = 0;
        unsigned base = 0;
        ROLOAD_RETURN_IF_ERROR(parse_mem(ops[1], &offset, &base));
        mi.inst.rd = static_cast<std::uint8_t>(*rd);
        mi.inst.rs1 = static_cast<std::uint8_t>(base);
        mi.inst.imm = offset;
        return EmitInst(mi);
      }
      ROLOAD_RETURN_IF_ERROR(need(3));
      auto rd = reg(0);
      auto rs1 = reg(1);
      if (!rd.ok()) return rd.status();
      if (!rs1.ok()) return rs1.status();
      mi.inst.rd = static_cast<std::uint8_t>(*rd);
      mi.inst.rs1 = static_cast<std::uint8_t>(*rs1);
      // %lo(sym) is allowed as an addi immediate (used by la-style code).
      std::string_view imm_text = ops[2];
      if (StartsWith(imm_text, "%lo(") && imm_text.back() == ')') {
        mi.reloc = RelocKind::kAbsLo;
        mi.symbol = std::string(imm_text.substr(4, imm_text.size() - 5));
        return EmitInst(mi);
      }
      auto value = imm(2);
      if (!value.ok()) return value.status();
      mi.inst.imm = *value;
      return EmitInst(mi);
    }
    case isa::Format::kILoad: {
      ROLOAD_RETURN_IF_ERROR(need(2));
      auto rd = reg(0);
      if (!rd.ok()) return rd.status();
      std::int64_t offset = 0;
      unsigned base = 0;
      ROLOAD_RETURN_IF_ERROR(parse_mem(ops[1], &offset, &base));
      mi.inst.rd = static_cast<std::uint8_t>(*rd);
      mi.inst.rs1 = static_cast<std::uint8_t>(base);
      mi.inst.imm = offset;
      return EmitInst(mi);
    }
    case isa::Format::kS: {
      ROLOAD_RETURN_IF_ERROR(need(2));
      auto rs2 = reg(0);
      if (!rs2.ok()) return rs2.status();
      std::int64_t offset = 0;
      unsigned base = 0;
      ROLOAD_RETURN_IF_ERROR(parse_mem(ops[1], &offset, &base));
      mi.inst.rs2 = static_cast<std::uint8_t>(*rs2);
      mi.inst.rs1 = static_cast<std::uint8_t>(base);
      mi.inst.imm = offset;
      return EmitInst(mi);
    }
    case isa::Format::kB: {
      ROLOAD_RETURN_IF_ERROR(need(3));
      auto rs1 = reg(0);
      auto rs2 = reg(1);
      if (!rs1.ok()) return rs1.status();
      if (!rs2.ok()) return rs2.status();
      mi.inst.rs1 = static_cast<std::uint8_t>(*rs1);
      mi.inst.rs2 = static_cast<std::uint8_t>(*rs2);
      mi.reloc = RelocKind::kBranch;
      mi.symbol = std::string(ops[2]);
      return EmitInst(mi);
    }
    case isa::Format::kU: {
      ROLOAD_RETURN_IF_ERROR(need(2));
      auto rd = reg(0);
      if (!rd.ok()) return rd.status();
      mi.inst.rd = static_cast<std::uint8_t>(*rd);
      std::string_view imm_text = ops[1];
      if (StartsWith(imm_text, "%hi(") && imm_text.back() == ')') {
        mi.reloc = RelocKind::kAbsHi;
        mi.symbol = std::string(imm_text.substr(4, imm_text.size() - 5));
        return EmitInst(mi);
      }
      auto value = imm(1);
      if (!value.ok()) return value.status();
      mi.inst.imm = *value;
      return EmitInst(mi);
    }
    case isa::Format::kJ: {
      ROLOAD_RETURN_IF_ERROR(need(2));
      auto rd = reg(0);
      if (!rd.ok()) return rd.status();
      mi.inst.rd = static_cast<std::uint8_t>(*rd);
      mi.reloc = RelocKind::kJal;
      mi.symbol = std::string(ops[1]);
      return EmitInst(mi);
    }
    case isa::Format::kSystem:
      ROLOAD_RETURN_IF_ERROR(need(0));
      return EmitInst(mi);
    case isa::Format::kRoLoad:
    case isa::Format::kCRoLoad:
      break;  // handled above
  }
  return Error(line_no, "unsupported instruction form");
}

Status Assembler::ParseLine(std::string_view line, int line_no) {
  // Strip comments.
  const std::size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  line = StripWhitespace(line);
  if (line.empty()) return Status::Ok();

  // Labels (possibly several) prefixing a statement. Don't confuse a ':'
  // inside a quoted string with a label separator.
  while (true) {
    const std::size_t colon = line.find(':');
    const std::size_t quote = line.find('"');
    if (colon == std::string_view::npos ||
        (quote != std::string_view::npos && quote < colon)) {
      break;
    }
    std::string label(StripWhitespace(line.substr(0, colon)));
    if (label.empty()) return Error(line_no, "empty label");
    if (symbol_defs_.contains(label)) {
      return Error(line_no, StrFormat("duplicate label '%s'", label.c_str()));
    }
    CurrentSection();  // ensure a section exists
    symbol_defs_[label] =
        SymbolDef{current_section_, sections_[current_section_].items.size()};
    line = StripWhitespace(line.substr(colon + 1));
    if (line.empty()) return Status::Ok();
  }

  // Split the head token from the operands.
  std::size_t space = line.find_first_of(" \t");
  std::string_view head = space == std::string_view::npos
                              ? line
                              : line.substr(0, space);
  std::string_view rest =
      space == std::string_view::npos ? "" : line.substr(space + 1);

  if (head.front() == '.' && !isa::ParseOpcodeName(head)) {
    // ".section" etc.; note "ld.ro"-style mnemonics never start with '.'.
    return ParseDirective(head, rest, line_no);
  }
  return ParseInstruction(head, rest, line_no);
}

Status Assembler::Layout() {
  std::uint64_t cursor = options_.base_vaddr;
  for (PendingSection& section : sections_) {
    cursor = AlignUp(cursor, mem::kPageSize);
    section.vaddr = cursor;
    std::uint64_t offset = 0;
    for (Item& item : section.items) {
      switch (item.kind) {
        case Item::Kind::kAlign:
          offset = AlignUp(offset, item.count);
          break;
        case Item::Kind::kInst:
          offset = AlignUp(offset, 2);
          item.offset = offset;
          offset += item.mi.inst.length;
          break;
        case Item::Kind::kData:
          offset = AlignUp(offset, item.data.width);
          item.offset = offset;
          offset += static_cast<std::uint64_t>(item.data.width) *
                    item.data.literals.size();
          break;
        case Item::Kind::kZero:
          item.offset = offset;
          offset += item.count;
          break;
        case Item::Kind::kAsciz:
          item.offset = offset;
          offset += item.text.size() + 1;
          break;
      }
      if (item.kind == Item::Kind::kAlign) item.offset = offset;
    }
    section.size = offset;
    cursor += AlignUp(offset, mem::kPageSize);
  }

  // Resolve symbol addresses: a label points at the offset of the item it
  // precedes (or the section end when trailing).
  for (const auto& [name, def] : symbol_defs_) {
    const PendingSection& section = sections_[def.section];
    std::uint64_t offset = section.size;
    if (def.item_index < section.items.size()) {
      offset = section.items[def.item_index].offset;
    }
    symbol_addrs_[name] = section.vaddr + offset;
  }

  // Linker-style bounds over all read-only data sections (used by the
  // VTint defense's range checks), unless the program defined its own.
  std::uint64_t ro_start = ~std::uint64_t{0};
  std::uint64_t ro_end = 0;
  for (const PendingSection& section : sections_) {
    if (!StartsWith(section.name, ".rodata")) continue;
    ro_start = ro_start < section.vaddr ? ro_start : section.vaddr;
    const std::uint64_t end =
        section.vaddr + AlignUp(section.size, mem::kPageSize);
    ro_end = ro_end > end ? ro_end : end;
  }
  if (ro_start > ro_end) ro_start = ro_end = options_.base_vaddr;
  symbol_addrs_.try_emplace("__rodata_start", ro_start);
  symbol_addrs_.try_emplace("__rodata_end", ro_end);
  return Status::Ok();
}

Status Assembler::Resolve(LinkImage* image) {
  for (PendingSection& pending : sections_) {
    Section section;
    section.name = pending.name;
    section.vaddr = pending.vaddr;
    section.size = pending.size;
    section.perms = pending.attrs.perms;
    section.key = pending.attrs.key;
    section.bytes.assign(pending.size, 0);

    for (const Item& item : pending.items) {
      switch (item.kind) {
        case Item::Kind::kAlign:
          break;
        case Item::Kind::kZero:
          break;
        case Item::Kind::kAsciz: {
          for (std::size_t i = 0; i < item.text.size(); ++i) {
            section.bytes[item.offset + i] =
                static_cast<std::uint8_t>(item.text[i]);
          }
          break;
        }
        case Item::Kind::kData: {
          std::uint64_t offset = item.offset;
          for (std::size_t i = 0; i < item.data.literals.size(); ++i) {
            std::uint64_t value =
                static_cast<std::uint64_t>(item.data.literals[i]);
            if (!item.data.symbols[i].empty()) {
              auto it = symbol_addrs_.find(item.data.symbols[i]);
              if (it == symbol_addrs_.end()) {
                return Error(item.line,
                             StrFormat("undefined symbol '%s'",
                                       item.data.symbols[i].c_str()));
              }
              value = it->second;
            }
            for (unsigned b = 0; b < item.data.width; ++b) {
              section.bytes[offset + b] =
                  static_cast<std::uint8_t>(value >> (8 * b));
            }
            offset += item.data.width;
          }
          break;
        }
        case Item::Kind::kInst: {
          Instruction inst = item.mi.inst;
          const std::uint64_t inst_addr = pending.vaddr + item.offset;
          if (item.mi.reloc != RelocKind::kNone) {
            auto it = symbol_addrs_.find(item.mi.symbol);
            if (it == symbol_addrs_.end()) {
              return Error(item.line, StrFormat("undefined symbol '%s'",
                                                item.mi.symbol.c_str()));
            }
            const std::uint64_t target = it->second;
            switch (item.mi.reloc) {
              case RelocKind::kBranch: {
                const std::int64_t delta =
                    static_cast<std::int64_t>(target - inst_addr);
                if (!FitsSigned(delta, 13)) {
                  return Error(item.mi.line, "branch target out of range");
                }
                inst.imm = delta;
                break;
              }
              case RelocKind::kJal: {
                const std::int64_t delta =
                    static_cast<std::int64_t>(target - inst_addr);
                if (!FitsSigned(delta, 21)) {
                  return Error(item.mi.line, "jal target out of range");
                }
                inst.imm = delta;
                break;
              }
              case RelocKind::kAbsHi: {
                const std::int64_t value = static_cast<std::int64_t>(target);
                if (!FitsSigned(value, 32)) {
                  return Error(item.mi.line, "address exceeds 32 bits");
                }
                inst.imm = ((value + 0x800) >> 12) & 0xFFFFF;
                break;
              }
              case RelocKind::kAbsLo: {
                const std::int64_t value = static_cast<std::int64_t>(target);
                inst.imm = SignExtend(static_cast<std::uint64_t>(value), 12);
                break;
              }
              case RelocKind::kNone:
                break;
            }
          }
          // Validate immediates before encoding so malformed input yields
          // a diagnostic instead of tripping the encoder's invariants.
          switch (isa::OpcodeFormat(inst.op)) {
            case isa::Format::kI:
            case isa::Format::kILoad:
            case isa::Format::kS:
              if (!FitsSigned(inst.imm, 12)) {
                return Error(item.mi.line, "immediate out of 12-bit range");
              }
              break;
            case isa::Format::kIShift:
              if (inst.imm < 0 || inst.imm > 63) {
                return Error(item.mi.line, "shift amount out of range");
              }
              break;
            case isa::Format::kU:
              if (!FitsSigned(inst.imm, 20) &&
                  !FitsUnsigned(static_cast<std::uint64_t>(inst.imm), 20)) {
                return Error(item.mi.line, "upper immediate out of range");
              }
              break;
            default:
              break;
          }
          const std::uint32_t word = isa::Encode(inst);
          for (unsigned b = 0; b < inst.length; ++b) {
            section.bytes[item.offset + b] =
                static_cast<std::uint8_t>(word >> (8 * b));
          }
          break;
        }
      }
    }
    image->sections.push_back(std::move(section));
  }

  image->symbols = symbol_addrs_;
  auto entry = symbol_addrs_.find(options_.entry_symbol);
  image->entry = entry != symbol_addrs_.end()
                     ? entry->second
                     : (image->sections.empty() ? options_.base_vaddr
                                                : image->sections[0].vaddr);
  return Status::Ok();
}

Status Assembler::Run(std::string_view source, LinkImage* image) {
  int line_no = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= source.size(); ++i) {
    if (i == source.size() || source[i] == '\n') {
      ++line_no;
      ROLOAD_RETURN_IF_ERROR(
          ParseLine(source.substr(start, i - start), line_no));
      start = i + 1;
    }
  }
  ROLOAD_RETURN_IF_ERROR(Layout());
  return Resolve(image);
}

}  // namespace

StatusOr<LinkImage> Assemble(std::string_view source,
                             const AssemblerOptions& options) {
  Assembler assembler(options);
  LinkImage image;
  Status status = assembler.Run(source, &image);
  if (!status.ok()) return status;
  return image;
}

}  // namespace roload::asmtool
