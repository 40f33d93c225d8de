// Translation-tier introspection: the pure-data model and exporters of
// the `roload.jit.v1` schema. The translation tier (src/cpu/translate.h)
// fills a JitReport with its aggregate counters, the per-reason deopt
// attribution and (when TraceConfig::jit collected them) per-block
// rows; FinalizeJitReport computes the hot/cold census that measures the
// one-shot cold-code floor the ROADMAP's 10× follow-on needs.
//
// Everything here is host-only telemetry. None of it is registered in the
// CounterRegistry: the registry snapshot is part of the bit-identity
// contract between execute tiers, and these numbers exist only in the
// translated tier. AppendJitCounters produces "jit.*" pairs for the
// cross-run CounterMerger (campaign aggregation) instead.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace roload::trace {

// Why a block entry deopted to the interpreter — one bucket per guard-fail
// site in cpu::Cpu::BlockGuardsPass. Every guard-fail increment lands in
// exactly one bucket, so the per-reason counts always sum to the
// translator's guard_fails total (a pinned invariant, see
// tests/test_translate.cpp).
enum class DeoptReason : std::uint8_t {
  kStaleBlock,   // dead block or address-space-root mismatch at entry
  kItlbMiss,     // pinned I-TLB entry gone and the re-probe missed too
  kPageRemap,    // page remapped or re-keyed: decoded bytes are stale
  kCodeVersion,  // code-page version bumped (self- or cross-hart write)
  kIcacheLine,   // a pinned I-cache line was evicted
  kNumDeoptReasons,
};

inline constexpr std::size_t kNumDeoptReasons =
    static_cast<std::size_t>(DeoptReason::kNumDeoptReasons);

std::string_view DeoptReasonName(DeoptReason reason);

// One superblock's row: the lifetime totals of every block translated for
// one (root, head_pc) across rebuilds. `symbol` stays empty until a
// caller holding the link image fills it (the cpu layer cannot see the
// image; see audit::Symbolizer).
struct JitBlockRow {
  std::uint64_t head_pc = 0;
  std::uint64_t root_ppn = 0;
  unsigned hart = 0;
  std::uint64_t builds = 0;
  std::uint64_t retires = 0;
  std::uint64_t entries = 0;   // guard-proven executions
  std::uint64_t chained = 0;   // of which entered via direct chaining
  std::uint64_t replayed = 0;  // micro-ops replayed by this block
  std::string symbol;          // nearest-symbol attribution ("" unresolved)
};

// The roload.jit.v1 report: per-hart translator aggregates summed
// together, plus the per-block rows and the census.
struct JitReport {
  unsigned harts = 0;  // harts whose translation tier contributed

  // Aggregate translator counters (cpu::TranslatorStats, summed).
  std::uint64_t blocks_built = 0;
  std::uint64_t blocks_retired = 0;
  std::uint64_t block_entries = 0;
  std::uint64_t chained_entries = 0;
  std::uint64_t guard_fails = 0;
  std::uint64_t ops_replayed = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t evictions = 0;
  std::uint64_t deopt[kNumDeoptReasons] = {};

  // Soft exits: block runs that ended early without a guard fail (so not
  // part of the guard_fails sum) plus the per-site inline-cache misses.
  std::uint64_t chain_breaks = 0;        // chain slot missed after a chained run
  std::uint64_t dtlb_memo_misses = 0;    // per-site D-TLB inline-cache misses
  std::uint64_t dcache_memo_misses = 0;  // per-site D-cache inline-cache misses
  std::uint64_t roload_fault_exits = 0;  // runs ended by an ld.ro key fault
  std::uint64_t trap_exits = 0;          // runs ended by any other trap
  std::uint64_t smc_exits = 0;           // runs ended by a self-modifying store

  // Retired instructions of the whole run (cpu.instret summed over harts):
  // the census denominator.
  std::uint64_t total_instructions = 0;

  // Hot/cold census, computed by FinalizeJitReport. "Cold" is the work a
  // cheaper cold path could reclaim: instructions that stayed in the
  // interpreter plus ops replayed in one-shot blocks (entered once, never
  // re-entered — building them cost about as much as interpreting them).
  // Exact to ± the trapping-op counts: a replayed op that trapped is
  // counted in ops_replayed but never retired.
  std::uint64_t interpreted_instructions = 0;
  std::uint64_t one_shot_blocks = 0;
  std::uint64_t one_shot_replayed = 0;
  std::uint64_t cold_instructions = 0;
  std::uint64_t hot_instructions = 0;

  // Per-block rows. FinalizeJitReport sorts them by replayed descending
  // and folds the tail past top_n into omitted_* so nothing is silently
  // dropped.
  std::vector<JitBlockRow> blocks;
  std::uint64_t omitted_blocks = 0;
  std::uint64_t omitted_replayed = 0;
  bool finalized = false;
};

// Computes the census, sorts the block rows (replayed descending,
// (hart, root, pc) tie-break for determinism) and truncates to the top_n
// hottest, folding the tail into omitted_blocks/omitted_replayed.
void FinalizeJitReport(JitReport* report, std::size_t top_n = 256);

// {"schema":"roload.jit.v1",...} — deterministic for a deterministic run.
std::string ExportJitJson(const JitReport& report);

// Human summary: aggregates, deopt taxonomy, census, and a "top blocks"
// table (at most top_rows rows) with symbol attribution.
std::string ExportJitText(const JitReport& report, std::size_t top_rows = 32);

// Flat "jit.*" name/value pairs for cross-run aggregation via
// CounterMerger. Deliberately NOT a CounterRegistry source (see the file
// comment). Requires a finalized report (the census keys are included).
void AppendJitCounters(
    const JitReport& report,
    std::vector<std::pair<std::string, std::uint64_t>>* out);

}  // namespace roload::trace
