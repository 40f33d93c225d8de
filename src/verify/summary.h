// Interprocedural layer of the binary verifier: the abstract domain the
// per-function fixpoint runs over, and per-function call summaries folded
// bottom-up over the CallGraph's SCC condensation.
//
// The value lattice is
//     Bottom | Const(u64) | RoLoaded(key) | Entry(reg) | Unknown
// where Entry(r) means "still exactly the value register r held at
// function entry". Entry provenance is what makes summaries compositional:
// a callee that returns Entry(a0) is an identity wrapper (the caller
// substitutes its own pre-call a0), callee-saved registers that reach an
// exit as Entry(s) are proven preserved, and a `ret` whose ra is Entry(ra)
// provably returns to its caller.
//
// A FuncSummary records only what was *proven* about a function; every
// "couldn't prove" answer degrades to the same ABI assumptions the old
// intraprocedural verifier hard-coded (caller-saved clobbered,
// callee-saved preserved, frame unknown -> spill slots dropped), so
// summaries only ever add precision, never new assumptions.
//
// Summaries are computed in two deterministic passes: pass 1 runs with no
// model for indirect calls, then the summaries of every *keyed-target*
// function (entry address present in keyed read-only bytes — the only
// values an ld.ro-proven dispatch can produce) are joined into one
// `keyed_join` summary, and pass 2 re-folds every function using that
// join at proven-RoLoaded `jalr` sites. The rule-checking phase re-runs
// the same context, so checking and summaries cannot disagree.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "verify/callgraph.h"

namespace roload::verify {

struct AbsVal {
  enum class Kind : std::uint8_t {
    kBottom,
    kConst,
    kRoLoaded,
    kEntry,
    kUnknown,
  };
  Kind kind = Kind::kBottom;
  std::uint64_t bits = 0;  // kConst: value; kRoLoaded: key; kEntry: reg id

  static AbsVal Bottom() { return {}; }
  static AbsVal Const(std::uint64_t v) { return {Kind::kConst, v}; }
  static AbsVal RoLoaded(std::uint32_t key) { return {Kind::kRoLoaded, key}; }
  static AbsVal Entry(std::uint8_t reg) { return {Kind::kEntry, reg}; }
  static AbsVal Unknown() { return {Kind::kUnknown, 0}; }

  bool operator==(const AbsVal&) const = default;
};

AbsVal Join(const AbsVal& a, const AbsVal& b);

// Machine state at one program point: the 32 integer registers, the
// stack-pointer displacement from function entry, and the abstract
// contents of sp-relative 8-byte slots (keyed by entry-relative offset).
struct State {
  AbsVal regs[32];
  bool reached = false;
  bool sp_valid = true;
  std::int64_t sp_off = 0;  // sp == entry_sp + sp_off
  std::map<std::int64_t, AbsVal> slots;
};

void DropSlots(State* s);
void InvalidateSp(State* s);
// Joins `from` into `into`; returns true when `into` changed.
bool Merge(State* into, const State& from);

// What one bottom-up fold proved about a function. Default-constructed
// (analyzed == false) means "no summary": callers fall back to the plain
// ABI clobber model.
struct FuncSummary {
  bool analyzed = false;
  // Some exit returns to the caller (ret, or a tail call that returns).
  bool returns = false;
  // Join of a0/a1 over all returning exits. Entry(r) values are relative
  // to *this* function's entry, i.e. the caller's pre-call registers.
  AbsVal ret_a0 = AbsVal::Bottom();
  AbsVal ret_a1 = AbsVal::Bottom();
  // Callee-saved registers (s0-s11) *provably* not preserved on some exit
  // (bit index == register number). Unset bits keep the ABI assumption.
  std::uint32_t clobbered_mask = 0;
  // Proven: no reachable store (transitively through calls) writes
  // outside this function's own frame, so the caller's spill slots — and
  // the dispatch proofs living in them — survive the call.
  bool frame_safe = false;
  // Provably returns with sp != entry sp (summary side of rule 35).
  bool sp_broken = false;
  // Bit k set: some reachable dispatch consumes Entry(a_k) — the proof
  // obligation is delegated to every caller (rules 32/33).
  std::uint8_t dispatch_args = 0;
};

// Everything a per-function fixpoint needs to model calls. `summaries`
// null = clobber every call (the old intraprocedural behavior);
// `keyed_join` null = clobber every indirect call.
struct AnalysisContext {
  const CallGraph* cg = nullptr;
  const std::vector<FuncSummary>* summaries = nullptr;
  const FuncSummary* keyed_join = nullptr;
  std::size_t func = kNoFunc;  // index of the function being analyzed
};

// How one call/tail site resolves under a context. kConservative: known
// or unknown callee but no usable summary (in-SCC edge, unanalyzed, or
// unproven indirect target) — apply the ABI clobber model.
struct CalleeRef {
  enum class Kind : std::uint8_t { kNone, kSummary, kConservative };
  Kind kind = Kind::kNone;
  const FuncSummary* summary = nullptr;
  std::size_t callee = kNoFunc;  // resolved direct callee, if any
};

CalleeRef ResolveCallee(const AnalysisContext& ctx, const DecodedFunc& fn,
                        std::uint64_t pc, const isa::Instruction& inst,
                        const State& s);

struct Successors {
  std::uint64_t pcs[2];
  int count = 0;
  void Add(std::uint64_t pc) { pcs[count++] = pc; }
};

// Applies `inst` at `pc` to `s`; returns the intra-function successors.
Successors Step(const AnalysisContext& ctx, const DecodedFunc& fn,
                std::uint64_t pc, const isa::Instruction& inst, State* s);

struct FuncAnalysis {
  std::vector<State> in;  // converged state *before* each instruction
};

FuncAnalysis Analyze(const AnalysisContext& ctx, const DecodedFunc& fn);

// One walk over the converged states, classifying every reachable exit
// point and escaping store. Both the summary fold and the rule checks
// consume this same walk, so they cannot disagree.
struct ExitPoint {
  enum class Kind : std::uint8_t { kRet, kTailDirect, kTailIndirect };
  Kind kind = Kind::kRet;
  std::size_t inst = 0;  // index into fn.insts
  CalleeRef tail;        // resolved target for tail exits
  State state;           // converged in-state at the exit instruction
};

struct EscapeStore {
  std::size_t inst = 0;
  bool roload_value = false;  // the stored value carries ld.ro provenance
};

struct FuncEffects {
  std::vector<ExitPoint> exits;
  // Stores not provably contained in the function's own frame.
  std::vector<EscapeStore> escapes;
  // Some call or tail target may write beyond its own frame.
  bool calls_unsafe = false;
  // Bit k set: a reachable dispatch consumes Entry(a_k).
  std::uint8_t dispatch_entry_args = 0;
};

FuncEffects ScanEffects(const AnalysisContext& ctx, const DecodedFunc& fn,
                        const FuncAnalysis& analysis);

// Callee-saved register provably not holding its entry value.
bool ProvablyClobbered(const AbsVal& v, std::uint8_t reg);
// s0-s11 (x8, x9, x18-x27).
bool IsCalleeSaved(int r);

struct SummarySet {
  std::vector<FuncSummary> summaries;  // final (pass 2) summaries
  // The pass-2 indirect-call model: join over keyed-target functions.
  // analyzed == false when the image has no keyed targets.
  FuncSummary keyed_join;
};

SummarySet ComputeSummaries(const CallGraph& cg);

}  // namespace roload::verify
