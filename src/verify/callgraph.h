// Whole-image function carving, linear decode, and the call graph the
// interprocedural verifier and the gadget scanner share.
//
// Functions are carved from the symbol table of every executable section
// (non-.L symbols, spans running to the next symbol or the section's code
// end) and decoded linearly. On top of the decoded bodies, BuildCallGraph
// resolves every `jal` call/tail edge whose target is a carved function
// entry, records indirect (`jalr`) sites, scans data sections for
// address-taken function entries (8-byte little-endian windows at every
// byte offset, so handler tables and vtables are found without
// relocations), marks the functions reachable from *keyed* read-only
// sections (the only entries an ld.ro-proven dispatch can reach), and
// computes a Tarjan SCC condensation with a bottom-up order so call
// summaries can be folded callees-first.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "asmtool/image.h"
#include "isa/instruction.h"

namespace roload::verify {

inline constexpr std::size_t kNoFunc = static_cast<std::size_t>(-1);

// A function carved out of an executable section's symbol table.
struct FuncSpan {
  std::string name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

// Linearly decoded function body.
struct DecodedFunc {
  FuncSpan span;
  std::vector<std::uint64_t> pcs;
  std::vector<isa::Instruction> insts;
  std::map<std::uint64_t, std::size_t> index_of;  // pc -> insts index
};

std::vector<FuncSpan> CarveFunctions(const asmtool::LinkImage& image);
// Nonzero key, mapped R-- (the only shape rule 21 admits for keyed data).
bool IsKeyedRoSection(const asmtool::Section& sec);
DecodedFunc DecodeFunc(const asmtool::Section& sec, const FuncSpan& span);
const asmtool::Section* ExecSectionFor(const asmtool::LinkImage& image,
                                       const FuncSpan& span);

struct CallGraph {
  std::vector<DecodedFunc> funcs;
  // Entry pc -> index. Hashed: the address-taken sweep looks up every
  // byte window of the data sections, and a tree walk there ran 30% faster
  // or slower with the code's placement in the binary.
  std::unordered_map<std::uint64_t, std::size_t> func_by_entry;
  // Deduped direct callees (call or tail) per function, by index.
  std::vector<std::vector<std::size_t>> callees;
  // Entry address found in non-executable section bytes (handler tables,
  // vtables, spilled literals) — the function's address escaped into data.
  std::vector<bool> address_taken;
  // Entry address found specifically in keyed read-only section bytes:
  // the targets an ld.ro-proven dispatch can actually reach.
  std::vector<bool> keyed_target;
  std::size_t entry_func = kNoFunc;  // function containing image.entry
  std::vector<std::size_t> scc_id;   // per function; callee SCCs number lower
  std::vector<std::size_t> bottom_up;  // function indices, callees first

  // Index of the carved function whose entry is exactly `pc`, or kNoFunc.
  std::size_t FuncAt(std::uint64_t pc) const {
    auto it = func_by_entry.find(pc);
    return it == func_by_entry.end() ? kNoFunc : it->second;
  }
};

CallGraph BuildCallGraph(const asmtool::LinkImage& image);

}  // namespace roload::verify
