#include "verify/gadgets.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>

#include "isa/encoding.h"
#include "isa/instruction.h"
#include "isa/opcodes.h"
#include "isa/registers.h"
#include "support/json.h"
#include "support/strings.h"
#include "verify/callgraph.h"

namespace roload::verify {
namespace {

using asmtool::LinkImage;
using asmtool::Section;
using isa::Instruction;
using isa::Opcode;

constexpr std::uint8_t kRa = static_cast<std::uint8_t>(isa::Reg::kRa);

bool IsRet(const Instruction& inst) {
  return inst.op == Opcode::kJalr && inst.rd == 0 && inst.rs1 == kRa &&
         inst.imm == 0;
}

// Control flow other than the terminating jalr breaks the straight-line
// property a gadget needs (direct jumps and branches go where the static
// target says, not where the attacker's chain points).
bool BreaksChain(const Instruction& inst) {
  return inst.op == Opcode::kJal || inst.op == Opcode::kEbreak ||
         isa::IsBranch(inst.op);
}

}  // namespace

GadgetCensus ScanGadgets(const LinkImage& image, unsigned max_insts) {
  GadgetCensus census;
  census.max_insts = max_insts;

  const CallGraph cg = BuildCallGraph(image);

  for (const Section& sec : image.sections) {
    if (!sec.perms.exec) continue;
    census.stats.exec_bytes += sec.bytes.size();

    // The compiler's intended instruction starts in this section.
    std::set<std::uint64_t> intended;
    for (const DecodedFunc& fn : cg.funcs) {
      if (fn.span.start < sec.vaddr ||
          fn.span.start >= sec.vaddr + sec.size) {
        continue;
      }
      intended.insert(fn.pcs.begin(), fn.pcs.end());
    }

    for (std::uint64_t start = sec.vaddr;
         start + 2 <= sec.vaddr + sec.bytes.size(); start += 2) {
      Gadget g;
      g.start = start;
      std::uint64_t pc = start;
      bool terminated = false;
      for (unsigned n = 0; n < max_insts; ++n) {
        const std::uint64_t off = pc - sec.vaddr;
        if (off + 2 > sec.bytes.size()) break;
        std::uint32_t raw = 0;
        const std::uint64_t avail =
            std::min<std::uint64_t>(4, sec.bytes.size() - off);
        std::memcpy(&raw, sec.bytes.data() + off, avail);
        const unsigned len =
            isa::ParcelLength(static_cast<std::uint16_t>(raw));
        if (off + len > sec.bytes.size()) break;
        const std::optional<Instruction> inst = isa::Decode(raw);
        if (!inst.has_value()) break;
        if (BreaksChain(*inst)) break;
        if (intended.count(pc) == 0) g.misaligned = true;
        if (inst->length == 2) g.compressed = true;
        ++g.length;
        pc += inst->length;
        if (inst->op == Opcode::kJalr) {
          g.kind = IsRet(*inst) ? Gadget::Kind::kRet : Gadget::Kind::kJalr;
          g.end = pc;
          terminated = true;
          break;
        }
      }
      if (!terminated) continue;

      g.section = sec.name;
      g.in_keyed_ro = sec.key != 0;
      for (std::size_t f = 0; f < cg.funcs.size(); ++f) {
        const FuncSpan& span = cg.funcs[f].span;
        if (g.start >= span.start && g.start < span.end) {
          g.function = span.name;
          g.in_keyed_target = cg.keyed_target[f];
          break;
        }
      }

      ++census.stats.gadgets;
      if (g.kind == Gadget::Kind::kRet) {
        ++census.stats.ret_terminated;
      } else {
        ++census.stats.jalr_terminated;
      }
      if (g.misaligned) ++census.stats.misaligned;
      if (g.compressed) ++census.stats.compressed;
      if (g.in_keyed_ro) ++census.stats.in_keyed_ro;
      if (g.in_keyed_target) ++census.stats.in_keyed_target;
      census.gadgets.push_back(std::move(g));
    }
  }
  return census;
}

std::string GadgetCensus::ToJson(std::string_view image_name) const {
  JsonWriter json;
  json.BeginObject();
  json.KV("schema", "roload.gadgets.v1");
  json.KV("image", image_name);
  json.KV("max_insts", static_cast<std::uint64_t>(max_insts));
  json.Key("stats");
  json.BeginObject();
  json.KV("gadgets", stats.gadgets);
  json.KV("ret_terminated", stats.ret_terminated);
  json.KV("jalr_terminated", stats.jalr_terminated);
  json.KV("misaligned", stats.misaligned);
  json.KV("compressed", stats.compressed);
  json.KV("in_keyed_ro", stats.in_keyed_ro);
  json.KV("in_keyed_target", stats.in_keyed_target);
  json.KV("exec_bytes", stats.exec_bytes);
  json.EndObject();
  json.Key("gadgets");
  json.BeginArray();
  for (const Gadget& g : gadgets) {
    json.BeginObject();
    json.KV("start", Hex(g.start));
    json.KV("kind", g.kind == Gadget::Kind::kRet ? "ret" : "jalr");
    json.KV("len", static_cast<std::uint64_t>(g.length));
    json.KV("misaligned", g.misaligned);
    json.KV("compressed", g.compressed);
    json.KV("in_keyed_ro", g.in_keyed_ro);
    json.KV("in_keyed_target", g.in_keyed_target);
    json.KV("section", g.section);
    json.KV("function", g.function);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace roload::verify
