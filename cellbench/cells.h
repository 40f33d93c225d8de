// The four benchmark workloads, their ops, and the checks every op's
// output must pass. An op runs either through the public entry point the
// repo's tools use (RunOp: campaign::RunCampaign for a cell, core::Build
// with BuildOptions::verify for a verdict, sec::RunAttackSmp for an
// attack) or, in the traced run, through the layer functions underneath
// it with a span around each call (RunOpTraced).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/spec.h"
#include "ledger.h"
#include "sec/attack.h"
#include "support/status.h"
#include "verify/verify.h"

namespace cellbench {

enum class OpKind : std::uint8_t {
  kCell,    // one campaign cell: build, then run on a fresh machine
  kVerify,  // one hardened build through the static verifier
  kAttack,  // one attack x defense cell at 4 harts
  kVictim,  // the unattacked victim at 4 harts (traced run only)
};

struct Op {
  std::string name;  // "<workload>/<program>/<defense>", unique
  OpKind kind = OpKind::kCell;
  // kCell/kVerify: the program, build options, tier and hart count.
  // kVictim/kAttack: build.defense only.
  roload::campaign::RunSpec run;
  roload::sec::AttackKind attack = roload::sec::AttackKind::kVtableInjection;
  unsigned inject_hart = 0;
};

struct Workload {
  std::string name;
  unsigned clients = 1;
  // Host seconds one pass of `ops` took on the machine the benchmark was
  // tuned on (4 cores); a run makes round(seconds / pass_seconds) passes.
  double pass_seconds = 1.0;
  std::vector<Op> ops;         // one pass, canonical order
  std::vector<Op> ledger_ops;  // extra ops of the traced run
};

inline constexpr std::string_view kWorkloadNames[] = {
    "fig4_cells", "long_translated", "verify_gate", "smp_attack"};
inline constexpr unsigned kAttackHarts = 4;

// `size` scales every program's iteration count (1 for the benchmark,
// tiny for the self-test). Seed 0 keeps each program's own seed, so the
// cells are exactly the figure cells; any other seed derives a distinct
// program per suite entry.
roload::StatusOr<Workload> MakeWorkload(std::string_view name,
                                        std::uint64_t seed,
                                        double size = 1.0);

// The simulated and static facts of one op that the checks compare.
struct Facts {
  std::string error;  // build/load error or abnormal guest exit
  std::uint64_t image_bytes = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::int64_t exit_code = 0;
  std::uint64_t counters_digest = 0;
  // Digest of every counter but the three a D-TLB lookup moves
  // (cpu.cycles, tlb.d.hit, tlb.d.miss), and those two TLB counts.
  std::uint64_t stable_digest = 0;
  std::uint64_t dtlb_hits = 0;
  std::uint64_t dtlb_misses = 0;
  std::string verdict;  // kVerify: "ok" or the failure text
  bool has_stats = false;
  roload::verify::ReportStats stats;
  std::string outcome;  // kAttack
  std::string classification;
  bool roload_kill = false;
  std::uint64_t tlb_shootdowns = 0;
};

Facts RunOp(const Op& op);
Facts RunOpTraced(const Op& op, OpRecorder* recorder);

// Expected facts of one op. Cells carry interpreter-tier facts; verify
// ops carry the stored verdict statistics when the reference has them.
struct Expected {
  bool has_sim = false;
  std::uint64_t image_bytes = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::int64_t exit_code = 0;
  std::uint64_t counters_digest = 0;
  std::uint64_t stable_digest = 0;
  std::uint64_t dtlb_hits = 0;
  std::uint64_t dtlb_misses = 0;
  bool has_stats = false;
  roload::verify::ReportStats stats;
};

struct Reference {
  std::map<std::string, Expected> ops;
  // Attack outcome per "<attack kind>/<defense>", from the paper's claims.
  std::map<std::string, std::string> attacks;
};

// The expected attack table of Sections V-C2 and V-D.
std::map<std::string, std::string> PaperAttackTable();
std::string AttackKey(roload::sec::AttackKind kind,
                      roload::core::Defense defense);

// Facts of every cell and verify op of `workload`, with cells run on the
// reference interpreter tier, in parallel on `jobs` threads.
Reference DeriveReference(const Workload& workload, unsigned jobs);
std::string ReferenceToJson(const Reference& reference, std::uint64_t seed);
roload::StatusOr<Reference> LoadReference(const std::string& path);

// Mismatches of `facts` against the reference, one line each. A
// translated-tier cell whose facts differ from the interpreter's only in
// D-TLB lookups resolved the other way (hits traded for misses, each
// with one page walk's cycles), with every other counter equal, is a
// known translated-tier divergence: it is described in `*divergence`
// instead of failing the op, so fixing the tier changes a count rather
// than the benchmark's verdict.
std::vector<std::string> Check(const Op& op, const Facts& facts,
                               const Reference& reference,
                               std::string* divergence);
// Mismatches of a traced op against its untraced twin.
std::vector<std::string> CompareTwin(const Facts& untraced,
                                     const Facts& traced);

}  // namespace cellbench
