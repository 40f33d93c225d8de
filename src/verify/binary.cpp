#include "verify/binary.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/parallel.h"
#include "isa/instruction.h"
#include "isa/opcodes.h"
#include "isa/registers.h"
#include "support/strings.h"
#include "verify/callgraph.h"
#include "verify/summary.h"

namespace roload::verify {
namespace {

using asmtool::LinkImage;
using asmtool::Section;
using isa::Instruction;
using isa::Opcode;

constexpr std::uint64_t kPageSize = 4096;
constexpr std::uint8_t kRa = static_cast<std::uint8_t>(isa::Reg::kRa);
constexpr std::uint8_t kA0 = static_cast<std::uint8_t>(isa::Reg::kA0);

const Section* SectionContaining(const LinkImage& image, std::uint64_t addr,
                                 std::uint64_t size) {
  for (const Section& sec : image.sections) {
    if (addr >= sec.vaddr && addr + size <= sec.vaddr + sec.size) return &sec;
  }
  return nullptr;
}

// Is `jalr` a plain return? (The assembler's `ret` pseudo.)
bool IsRet(const Instruction& inst) {
  return inst.op == Opcode::kJalr && inst.rd == 0 && inst.rs1 == kRa &&
         inst.imm == 0;
}

// ---------------------------------------------------------------------------
// Rule checks.

// Rules 20 + 21 on the section table, and 21's alias sweep.
void CheckSections(const LinkImage& image, Report* report) {
  for (const Section& sec : image.sections) {
    ++report->stats().sections;
    if (sec.key != 0) ++report->stats().keyed_sections;
    const bool keyed_name = sec.name.rfind(".rodata.key.", 0) == 0;
    if (keyed_name) {
      const std::uint32_t named_key =
          asmtool::AttrsForSectionName(sec.name).key;
      if (named_key != sec.key) {
        report->Add(Rule::kBinSectionAttrs, sec.name,
                    StrFormat("section named for key %u but mapped with "
                              "key %u",
                              named_key, sec.key));
      }
    } else if (sec.key != 0) {
      report->Add(Rule::kBinSectionAttrs, sec.name,
                  StrFormat("key %u on a section outside the "
                            ".rodata.key.<K> namespace",
                            sec.key));
    }
    if (sec.key != 0 && (sec.perms.write || sec.perms.exec || !sec.perms.read)) {
      report->Add(Rule::kBinWritableKeyAlias, sec.name,
                  StrFormat("keyed section must be R-- but is %c%c%c",
                            sec.perms.read ? 'r' : '-',
                            sec.perms.write ? 'w' : '-',
                            sec.perms.exec ? 'x' : '-'));
    }
  }
  // No writable mapping may share a page with a keyed frame: the PTE key
  // is per page, so such overlap would make the "read-only" pages
  // attacker-writable.
  for (const Section& keyed : image.sections) {
    if (keyed.key == 0 || keyed.size == 0) continue;
    const std::uint64_t klo = keyed.vaddr / kPageSize;
    const std::uint64_t khi = (keyed.vaddr + keyed.size - 1) / kPageSize;
    for (const Section& w : image.sections) {
      if (&w == &keyed || !w.perms.write || w.size == 0) continue;
      const std::uint64_t wlo = w.vaddr / kPageSize;
      const std::uint64_t whi = (w.vaddr + w.size - 1) / kPageSize;
      if (wlo <= khi && klo <= whi) {
        report->Add(Rule::kBinWritableKeyAlias, keyed.name,
                    StrFormat("writable section %s shares pages "
                              "0x%llx..0x%llx with this keyed frame",
                              w.name.c_str(),
                              static_cast<unsigned long long>(
                                  std::max(klo, wlo) * kPageSize),
                              static_cast<unsigned long long>(
                                  (std::min(khi, whi) + 1) * kPageSize - 1)));
      }
    }
  }
}

// Rule 27: every keyed IR global must have landed in an R-- section
// carrying exactly its key.
void CheckKeyedSymbols(const LinkImage& image, const Expectations& exp,
                       Report* report) {
  for (const auto& [name, key] : exp.keyed_symbols) {
    auto it = image.symbols.find(name);
    if (it == image.symbols.end()) {
      report->Add(Rule::kBinSymbolMisplaced, name,
                  StrFormat("keyed global (key %u) missing from the "
                            "image symbol table",
                            key));
      continue;
    }
    const Section* sec = SectionContaining(image, it->second, 1);
    if (sec == nullptr || !IsKeyedRoSection(*sec) || sec->key != key) {
      report->Add(
          Rule::kBinSymbolMisplaced, name,
          StrFormat("expected key-%u read-only placement but symbol is "
                    "in %s (key %u)",
                    key, sec == nullptr ? "no section" : sec->name.c_str(),
                    sec == nullptr ? 0 : sec->key));
    }
  }
}

// Rule 28: classic-CFI functions must begin with the exact ID word.
void CheckCfiIds(const std::vector<DecodedFunc>& funcs,
                 const Expectations& exp, Report* report) {
  std::map<std::string, const DecodedFunc*> by_name;
  for (const DecodedFunc& fn : funcs) by_name[fn.span.name] = &fn;
  for (const auto& [name, id] : exp.cfi_ids) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      report->Add(Rule::kBinMissingCfiId, name,
                  "CFI-checked function not found among decoded functions");
      continue;
    }
    const DecodedFunc& fn = *it->second;
    const Instruction* first =
        fn.insts.empty() ? nullptr : &fn.insts.front();
    if (first == nullptr || first->op != Opcode::kLui || first->rd != 0 ||
        (static_cast<std::uint32_t>(first->imm) & 0xFFFFF) != id) {
      report->AddAt(Rule::kBinMissingCfiId, name, fn.span.start,
                    StrFormat("entry must carry ID word `lui zero, 0x%x`",
                              id));
    }
  }
}

// Rule 26 helper: does the ld.ro at `idx` sit behind an addi offset
// fixup? Walks the mv (addi rd,rs,0) copy chain the compressed-roload
// staging introduces, then recognizes `addi b, b, imm` immediately
// feeding the base.
bool HasAddiFixup(const DecodedFunc& fn, std::size_t idx) {
  std::uint8_t base = fn.insts[idx].rs1;
  for (std::size_t j = idx; j-- > 0;) {
    const Instruction& inst = fn.insts[j];
    if (inst.op != Opcode::kAddi || inst.rd != base || inst.rd == 0) {
      return false;  // base defined by something else (e.g. ld from slot)
    }
    if (inst.imm == 0) {
      base = inst.rs1;  // mv: follow the copy
      continue;
    }
    return inst.rs1 == inst.rd;  // addi b, b, off — the folded offset
  }
  return false;
}

// ---------------------------------------------------------------------------
// Per-function checking (phase C — the parallel phase).

std::string DescribeVal(const AbsVal& v) {
  switch (v.kind) {
    case AbsVal::Kind::kConst:
      return StrFormat("a constant (0x%llx)",
                       static_cast<unsigned long long>(v.bits));
    case AbsVal::Kind::kRoLoaded:
      return StrFormat("an ld.ro result (key %llu)",
                       static_cast<unsigned long long>(v.bits));
    case AbsVal::Kind::kEntry:
      return StrFormat("the caller-provided value of %s",
                       std::string(isa::RegName(static_cast<std::uint8_t>(
                                       v.bits)))
                           .c_str());
    default:
      return "an unknown value";
  }
}

// A direct call (or direct tail call) with the caller's abstract argument
// registers at the site — the raw material of the rule 32/33 obligation
// discharge pass.
struct DirectCallSite {
  std::size_t callee = kNoFunc;
  std::uint64_t pc = 0;
  AbsVal args[8];
};

// A dispatch consuming an entry argument: provable only through callers.
struct ObligationSite {
  std::uint64_t pc = 0;
  int bit = 0;  // a0 + bit
};

struct FuncCheck {
  std::vector<Violation> violations;
  std::uint64_t instructions = 0;
  std::uint64_t roloads = 0;
  std::uint64_t fixups = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t proven = 0;
  std::vector<DirectCallSite> calls;
  std::vector<ObligationSite> obligations;
};

FuncCheck CheckFunction(const LinkImage& image, const CallGraph& cg,
                        const SummarySet& sums, const BinaryPolicy& policy,
                        const std::set<std::uint32_t>& mapped_keys,
                        std::size_t idx) {
  const DecodedFunc& fn = cg.funcs[idx];
  FuncCheck out;
  out.instructions = fn.insts.size();
  auto add = [&out](Rule rule, const std::string& where, std::uint64_t pc,
                    std::string message) {
    out.violations.push_back(
        Violation{rule, where, pc, true, std::move(message)});
  };

  // Syntactic sweep: every decoded ld.ro, reachable or not, must name a
  // mapped key; count ld.ro and fixups for the manifest rules.
  for (std::size_t i = 0; i < fn.insts.size(); ++i) {
    const Instruction& inst = fn.insts[i];
    if (!isa::IsRoLoad(inst.op)) continue;
    ++out.roloads;
    if (HasAddiFixup(fn, i)) ++out.fixups;
    if (mapped_keys.count(inst.key) == 0) {
      add(Rule::kBinKeyUnmapped, fn.span.name, fn.pcs[i],
          StrFormat("%s key %u names no keyed read-only section; every "
                    "execution would fault",
                    std::string(isa::OpcodeName(inst.op)).c_str(),
                    inst.key));
    }
  }

  const AnalysisContext ctx{&cg, &sums.summaries, &sums.keyed_join, idx};
  const FuncAnalysis analysis = Analyze(ctx, fn);

  // Semantic pass over the converged abstract states.
  for (std::size_t i = 0; i < fn.insts.size(); ++i) {
    const State& in = analysis.in[i];
    if (!in.reached) continue;
    const Instruction& inst = fn.insts[i];
    const std::uint64_t pc = fn.pcs[i];

    if (isa::IsRoLoad(inst.op)) {
      // Rule 23: statically-resolvable target must land inside the
      // matching keyed frame.
      const AbsVal base = in.regs[inst.rs1];
      if (base.kind == AbsVal::Kind::kConst) {
        const Section* target = SectionContaining(
            image, base.bits, isa::MemAccessBytes(inst.op));
        if (target == nullptr || !IsKeyedRoSection(*target) ||
            target->key != inst.key) {
          add(Rule::kBinStaticTargetMismatch, fn.span.name, pc,
              StrFormat("ld.ro key %u reads 0x%llx which is %s",
                        inst.key,
                        static_cast<unsigned long long>(base.bits),
                        target == nullptr
                            ? "unmapped"
                            : StrFormat("in %s (key %u, %s)",
                                        target->name.c_str(), target->key,
                                        target->perms.write ? "writable"
                                                            : "read-only")
                                  .c_str()));
        }
      }
      continue;
    }

    if (inst.op == Opcode::kJal) {
      // Record direct call/tail-call argument snapshots for the
      // obligation pass (rules 32/33).
      const std::uint64_t target = pc + inst.imm;
      if (inst.rd == 0 && fn.index_of.count(target) != 0) continue;
      const std::size_t callee = cg.FuncAt(target);
      if (callee != kNoFunc) {
        DirectCallSite site;
        site.callee = callee;
        site.pc = pc;
        for (int k = 0; k < 8; ++k) site.args[k] = in.regs[kA0 + k];
        out.calls.push_back(site);
      }
      continue;
    }

    if (inst.op == Opcode::kJalr && !IsRet(inst)) {
      ++out.dispatches;
      const AbsVal target = in.regs[inst.rs1];
      const bool proven =
          target.kind == AbsVal::Kind::kRoLoaded && inst.imm == 0;
      if (proven) {
        ++out.proven;
      } else if (policy.require_protected_dispatch) {
        if (target.kind == AbsVal::Kind::kEntry && inst.imm == 0 &&
            target.bits >= kA0 && target.bits < kA0 + 8) {
          // Dispatch on an argument register: the proof obligation moves
          // to every caller — resolved by the serial obligation pass.
          out.obligations.push_back(
              ObligationSite{pc, static_cast<int>(target.bits - kA0)});
        } else {
          add(Rule::kBinUnprovenDispatch, fn.span.name, pc,
              StrFormat("dispatch target in %s is not an ld.ro result on "
                        "all paths (%s)",
                        std::string(isa::RegName(inst.rs1)).c_str(),
                        target.kind == AbsVal::Kind::kConst
                            ? "constant"
                            : inst.imm != 0
                                  ? "nonzero jalr offset"
                                  : target.kind == AbsVal::Kind::kEntry
                                        ? "caller-provided value"
                                        : "unknown provenance"));
        }
      }
    }
  }

  // Interprocedural effect rules over the same converged states.
  const FuncEffects fx = ScanEffects(ctx, fn, analysis);

  // Rule 31: an ld.ro result written outside the function's own frame
  // escapes to memory whose integrity the scheme cannot vouch for.
  for (const EscapeStore& esc : fx.escapes) {
    if (!esc.roload_value) continue;
    const Instruction& inst = fn.insts[esc.inst];
    add(Rule::kBinRoloadEscape, fn.span.name, fn.pcs[esc.inst],
        StrFormat("ld.ro result in %s stored through %s outside the "
                  "function's own frame: keyed pointer escapes to memory",
                  std::string(isa::RegName(inst.rs2)).c_str(),
                  std::string(isa::RegName(inst.rs1)).c_str()));
  }

  // Rules 30/34/35 at every reachable exit. Only *provable* violations
  // are reported; an unprovable fact keeps the ABI assumption.
  for (const ExitPoint& exit : fx.exits) {
    const State& st = exit.state;
    const std::uint64_t pc = fn.pcs[exit.inst];
    for (int r = 0; r < 32; ++r) {
      if (IsCalleeSaved(r) &&
          ProvablyClobbered(st.regs[r], static_cast<std::uint8_t>(r))) {
        add(Rule::kBinCalleeSavedClobbered, fn.span.name, pc,
            StrFormat("callee-saved %s reaches this exit holding %s "
                      "instead of its entry value",
                      std::string(isa::RegName(static_cast<std::uint8_t>(r)))
                          .c_str(),
                      DescribeVal(st.regs[r]).c_str()));
      }
    }
    if (ProvablyClobbered(st.regs[kRa], kRa)) {
      add(Rule::kBinRetAddrUnproven, fn.span.name, pc,
          StrFormat("ra at this exit holds %s, provably not the caller's "
                    "return address",
                    DescribeVal(st.regs[kRa]).c_str()));
    }
    if (st.sp_valid && st.sp_off != 0) {
      add(Rule::kBinSpImbalance, fn.span.name, pc,
          StrFormat("exit reached with sp displaced %lld bytes from its "
                    "entry value",
                    static_cast<long long>(st.sp_off)));
    }
  }

  return out;
}

// ---------------------------------------------------------------------------
// Rule 32/33 obligation discharge (serial; needs every call site).
//
// ob[f] is the set of argument registers function f dispatches on,
// closed transitively: if f dispatches on a_k and caller g forwards its
// own a_j into that slot, then g's callers owe a proof for a_j too.
// A bit is *tainted* when some path can feed it an unproven value:
// address-taken/entry roots (no caller-side proof can cover indirect or
// boot callers) and call sites passing a value that is neither an ld.ro
// result nor a forwarded argument.
void DischargeObligations(const CallGraph& cg, const SummarySet& sums,
                          std::vector<FuncCheck>* checks, Report* report) {
  const std::size_t n = cg.funcs.size();
  std::vector<std::uint8_t> ob(n, 0);
  for (std::size_t f = 0; f < n; ++f) ob[f] = sums.summaries[f].dispatch_args;

  // Close the obligation sets over argument forwarding.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t g = 0; g < n; ++g) {
      for (const DirectCallSite& site : (*checks)[g].calls) {
        for (int k = 0; k < 8; ++k) {
          if (((ob[site.callee] >> k) & 1) == 0) continue;
          const AbsVal& v = site.args[k];
          if (v.kind != AbsVal::Kind::kEntry) continue;
          if (v.bits < kA0 || v.bits >= kA0 + 8) continue;
          const std::uint8_t bit =
              static_cast<std::uint8_t>(1u << (v.bits - kA0));
          if ((ob[g] & bit) == 0) {
            ob[g] |= bit;
            changed = true;
          }
        }
      }
    }
  }

  // Classify every call site against the closed obligation sets; collect
  // forwarding edges for the taint fixpoint.
  std::vector<std::uint8_t> taint(n, 0);
  struct Edge {
    std::size_t from;  // caller
    int from_bit;
    std::size_t to;  // callee
    int to_bit;
  };
  std::vector<Edge> edges;
  for (std::size_t g = 0; g < n; ++g) {
    for (const DirectCallSite& site : (*checks)[g].calls) {
      for (int k = 0; k < 8; ++k) {
        if (((ob[site.callee] >> k) & 1) == 0) continue;
        const AbsVal& v = site.args[k];
        if (v.kind == AbsVal::Kind::kRoLoaded) continue;  // discharged
        if (v.kind == AbsVal::Kind::kEntry && v.bits >= kA0 &&
            v.bits < kA0 + 8) {
          edges.push_back(Edge{g, static_cast<int>(v.bits - kA0),
                               site.callee, k});
          continue;
        }
        taint[site.callee] |= static_cast<std::uint8_t>(1u << k);
        report->AddAt(
            Rule::kBinUnprovenCalleeArg, cg.funcs[g].span.name, site.pc,
            StrFormat("call to %s passes %s in %s, which %s dispatches "
                      "on; the proof obligation is not discharged",
                      cg.funcs[site.callee].span.name.c_str(),
                      DescribeVal(v).c_str(),
                      std::string(isa::RegName(
                                      static_cast<std::uint8_t>(kA0 + k)))
                          .c_str(),
                      cg.funcs[site.callee].span.name.c_str()));
      }
    }
  }

  // Roots: a dispatching argument of an address-taken or entry function
  // can be fed by callers no summary sees.
  for (std::size_t f = 0; f < n; ++f) {
    if (ob[f] == 0) continue;
    if (!cg.address_taken[f] && f != cg.entry_func) continue;
    for (int k = 0; k < 8; ++k) {
      if (((ob[f] >> k) & 1) == 0) continue;
      taint[f] |= static_cast<std::uint8_t>(1u << k);
      report->AddAt(
          Rule::kBinObligationUndischargeable, cg.funcs[f].span.name,
          cg.funcs[f].span.start,
          StrFormat("dispatch on %s cannot be proven by callers: the "
                    "function is %s",
                    std::string(isa::RegName(
                                    static_cast<std::uint8_t>(kA0 + k)))
                        .c_str(),
                    cg.address_taken[f] ? "address-taken"
                                        : "the image entry point"));
    }
  }

  // Taint flows along forwarding edges (caller's bit feeds callee's).
  changed = true;
  while (changed) {
    changed = false;
    for (const Edge& e : edges) {
      const std::uint8_t from_bit =
          static_cast<std::uint8_t>(1u << e.from_bit);
      const std::uint8_t to_bit = static_cast<std::uint8_t>(1u << e.to_bit);
      if ((taint[e.from] & from_bit) != 0 && (taint[e.to] & to_bit) == 0) {
        taint[e.to] |= to_bit;
        changed = true;
      }
    }
  }

  // Every untainted obligation dispatch is proven; tainted ones already
  // carry a rule 32/33 violation naming the offending path.
  for (std::size_t f = 0; f < n; ++f) {
    for (const ObligationSite& site : (*checks)[f].obligations) {
      if ((taint[f] & (1u << site.bit)) == 0) ++(*checks)[f].proven;
    }
  }
}

}  // namespace

void VerifyImage(const LinkImage& image, const BinaryPolicy& policy,
                 const Expectations* expectations, Report* report,
                 const VerifyImageOptions& options) {
  CheckSections(image, report);

  // Keys that actually map to a keyed read-only frame (for rule 22).
  std::set<std::uint32_t> mapped_keys;
  for (const Section& sec : image.sections) {
    if (IsKeyedRoSection(sec)) mapped_keys.insert(sec.key);
  }

  // Phase A (serial): carve, decode, build the call graph.
  const CallGraph cg = BuildCallGraph(image);
  // Phase B (serial): bottom-up call summaries over the SCC condensation.
  const SummarySet sums = ComputeSummaries(cg);

  // Phase C (parallel): per-function rule checks. Each function's check
  // is pure — shared inputs are const — and results are merged in
  // function index order, so diagnostics are bit-identical at any job
  // count.
  std::vector<FuncCheck> checks = campaign::ParallelMap<FuncCheck>(
      cg.funcs.size(), options.jobs, [&](std::size_t i) {
        return CheckFunction(image, cg, sums, policy, mapped_keys, i);
      });

  std::uint64_t roload_count = 0;
  std::uint64_t fixup_count = 0;
  for (const FuncCheck& check : checks) {
    ++report->stats().functions;
    report->stats().instructions += check.instructions;
    report->stats().roload_instructions += check.roloads;
    roload_count += check.roloads;
    fixup_count += check.fixups;
    report->stats().dispatches += check.dispatches;
    for (const Violation& v : check.violations) {
      report->AddAt(v.rule, v.where, v.pc, v.message);
    }
  }

  // Serial post-pass: discharge cross-function dispatch obligations
  // (rules 32/33) and settle the proven count.
  if (policy.require_protected_dispatch) {
    DischargeObligations(cg, sums, &checks, report);
  }
  for (const FuncCheck& check : checks) {
    report->stats().proven_dispatches += check.proven;
  }

  if (expectations != nullptr) {
    if (roload_count != expectations->roload_loads) {
      report->Add(Rule::kBinRoloadCountMismatch, "",
                  StrFormat("image has %llu ld.ro-family instructions but "
                            "the hardened IR carries %llu roload-md loads",
                            static_cast<unsigned long long>(roload_count),
                            static_cast<unsigned long long>(
                                expectations->roload_loads)));
    }
    if (fixup_count != expectations->addi_fixups) {
      report->Add(Rule::kBinMissingFixup, "",
                  StrFormat("found %llu addi offset fixups feeding ld.ro "
                            "but the hardened IR folds %llu offsets",
                            static_cast<unsigned long long>(fixup_count),
                            static_cast<unsigned long long>(
                                expectations->addi_fixups)));
    }
    CheckKeyedSymbols(image, *expectations, report);
    CheckCfiIds(cg.funcs, *expectations, report);
  }
}

}  // namespace roload::verify
