// Section V-C2 + V-D: security evaluation. Runs the attack-injection
// campaign (arbitrary-write adversary) against the victim program under
// every defense, and reports the allowlist sizes that bound the residual
// pointee-reuse surface.
//
// Expected matrix (paper claims):
//  * no defense: vtable injection and fnptr corruption hijack control.
//  * VCall blocks vtable injection AND cross-hierarchy vtable reuse
//    (strictly stronger than VTint, which only enforces read-only-ness).
//  * ICall blocks fnptr hijack to arbitrary code; the residual surface is
//    reuse of same-type allowlist entries (Section V-D).
//  * Classic CFI blocks wrong-type targets but also allows same-type reuse.
#include <cstddef>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "campaign/runner.h"
#include "sec/attack.h"
#include "support/json.h"
#include "support/strings.h"
#include "trace/exporters.h"
#include "trace/merge.h"
#include "verify/verify.h"
#include "workloads/spec_like.h"

using namespace roload;

namespace {

// One cell of the attack × defense grid (ParallelMap slots must be
// default-constructible, which StatusOr is not).
struct AttackCell {
  Status status = Status::Ok();
  sec::AttackResult result;
};

}  // namespace

int main() {
  trace::TelemetrySession session("security_matrix");
  const sec::AttackKind kinds[] = {
      sec::AttackKind::kVtableInjection,
      sec::AttackKind::kVtableReuseCrossHierarchy,
      sec::AttackKind::kFnPtrCorruptToEvil,
      sec::AttackKind::kFnPtrReuseSameType,
  };
  const core::Defense defenses[] = {
      core::Defense::kNone, core::Defense::kVCall, core::Defense::kVTint,
      core::Defense::kICall, core::Defense::kClassicCfi,
  };
  constexpr std::size_t kDefenseCount = std::size(defenses);

  // The attack-injection campaign is an embarrassingly parallel grid just
  // like the figure sweeps; it goes through the same deterministic
  // parallel map (each cell builds and runs its own victim System).
  const std::vector<AttackCell> cells =
      campaign::ParallelMap<AttackCell>(
          std::size(kinds) * kDefenseCount, bench::BenchJobs(),
          [&](std::size_t i) {
            AttackCell cell;
            auto run = sec::RunAttackSmp(kinds[i / kDefenseCount],
                                         defenses[i % kDefenseCount]);
            if (run.ok()) {
              cell.result = *run;
            } else {
              cell.status = run.status();
            }
            return cell;
          });

  // Forensic aggregation across the grid: every cell ran with the audit
  // layer on, so each result carries a counter snapshot (census totals,
  // per-key TLB checks) and, for ROLoad-blocked cells, the autopsy facts.
  trace::CounterMerger merger;

  std::printf("Security matrix (attack outcome per defense)\n\n");
  std::printf("%-30s", "attack \\ defense");
  for (core::Defense defense : defenses) {
    std::printf(" %-10s", core::DefenseName(defense).data());
  }
  std::printf("\n");
  bool any_error = false;
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    std::printf("%-30s", sec::AttackKindName(kinds[k]).data());
    for (std::size_t d = 0; d < kDefenseCount; ++d) {
      const AttackCell& cell = cells[k * kDefenseCount + d];
      const std::string key = std::string("attack.") +
                              std::string(sec::AttackKindName(kinds[k])) +
                              "." +
                              std::string(core::DefenseName(defenses[d]));
      if (!cell.status.ok()) {
        std::printf(" %-10s", "ERROR");
        session.Record(key, "ERROR");
        any_error = true;
        continue;
      }
      std::printf(" %-10s",
                  sec::AttackOutcomeName(cell.result.outcome).data());
      session.Record(key, sec::AttackOutcomeName(cell.result.outcome));
      merger.Add(std::string(sec::AttackKindName(kinds[k])) + "/" +
                     std::string(core::DefenseName(defenses[d])),
                 cell.result.counters);
    }
    std::printf("\n");
  }

  // The forensic view of the same grid: not just *whether* each attack was
  // stopped, but the audit layer's explanation of *how* — which check
  // tripped ("caught:key-mismatch@dispatch", "caught:writable-page@..."),
  // or why not ("missed:hijacked", "diverted:in-allowlist").
  std::printf("\nForensic classification (audit layer)\n\n");
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    std::printf("%-30s\n", sec::AttackKindName(kinds[k]).data());
    for (std::size_t d = 0; d < kDefenseCount; ++d) {
      const AttackCell& cell = cells[k * kDefenseCount + d];
      const std::string key = std::string("forensic.") +
                              std::string(sec::AttackKindName(kinds[k])) +
                              "." +
                              std::string(core::DefenseName(defenses[d]));
      if (!cell.status.ok()) {
        session.Record(key, "ERROR");
        continue;
      }
      std::string detail = cell.result.classification;
      if (cell.result.has_autopsy) {
        detail += StrFormat(" [pc=0x%llx va=0x%llx inst_key=%u pte_key=%u]",
                            static_cast<unsigned long long>(
                                cell.result.fault_pc),
                            static_cast<unsigned long long>(
                                cell.result.fault_va),
                            cell.result.inst_key, cell.result.pte_key);
      }
      std::printf("    %-10s %s\n", core::DefenseName(defenses[d]).data(),
                  detail.c_str());
      session.Record(key, cell.result.classification);
    }
  }

  // Under load: the same attacks launched on hart 0 of a 4-hart machine
  // while harts 1-3 keep serving the victim's dispatch loops
  // (sec::RunAttackSmp). The defense verdicts must not change under
  // traffic, and the blocked cells must attribute the kill to the hart
  // the scheduler actually dispatched into the corrupted table first.
  constexpr unsigned kLoadHarts = 4;
  const core::Defense load_defenses[] = {
      core::Defense::kNone, core::Defense::kVCall, core::Defense::kICall};
  constexpr std::size_t kLoadDefenseCount = std::size(load_defenses);
  const std::vector<AttackCell> load_cells =
      campaign::ParallelMap<AttackCell>(
          std::size(kinds) * kLoadDefenseCount, bench::BenchJobs(),
          [&](std::size_t i) {
            AttackCell cell;
            auto run = sec::RunAttackSmp(kinds[i / kLoadDefenseCount],
                                         load_defenses[i % kLoadDefenseCount],
                                         kLoadHarts);
            if (run.ok()) {
              cell.result = *run;
            } else {
              cell.status = run.status();
            }
            return cell;
          });

  std::printf("\nUnder load (attack while %u harts serve RPC-style "
              "dispatch)\n\n", kLoadHarts);
  std::printf("%-30s", "attack \\ defense");
  for (core::Defense defense : load_defenses) {
    std::printf(" %-14s", core::DefenseName(defense).data());
  }
  std::printf("\n");
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    std::printf("%-30s", sec::AttackKindName(kinds[k]).data());
    for (std::size_t d = 0; d < kLoadDefenseCount; ++d) {
      const AttackCell& cell = load_cells[k * kLoadDefenseCount + d];
      const std::string key =
          std::string("attack_load.") +
          std::string(sec::AttackKindName(kinds[k])) + "." +
          std::string(core::DefenseName(load_defenses[d]));
      if (!cell.status.ok()) {
        std::printf(" %-14s", "ERROR");
        session.Record(key, "ERROR");
        any_error = true;
        continue;
      }
      std::string verdict(sec::AttackOutcomeName(cell.result.outcome));
      if (cell.result.roload_violation) {
        verdict += "@hart" + std::to_string(cell.result.hart);
      }
      std::printf(" %-14s", verdict.c_str());
      session.Record(key, verdict);
      session.Record(key + ".hart",
                     static_cast<std::uint64_t>(cell.result.hart));
      merger.Add(std::string(sec::AttackKindName(kinds[k])) + "/" +
                     std::string(core::DefenseName(load_defenses[d])) +
                     "/h" + std::to_string(kLoadHarts),
                 cell.result.counters);
    }
    std::printf("\n");
  }
  std::printf("\n");

  // The same under-load grid with the corruption injected through the LAST
  // hart's debug port instead of hart 0. The address space is shared, so
  // every verdict (and the catching hart) must match the hart-0 rows —
  // any divergence is an attribution bug and fails the bench.
  constexpr unsigned kInjectHart = kLoadHarts - 1;
  const std::vector<AttackCell> inject_cells =
      campaign::ParallelMap<AttackCell>(
          std::size(kinds) * kLoadDefenseCount, bench::BenchJobs(),
          [&](std::size_t i) {
            AttackCell cell;
            auto run = sec::RunAttackSmp(kinds[i / kLoadDefenseCount],
                                         load_defenses[i % kLoadDefenseCount],
                                         kLoadHarts,
                                         core::SystemVariant::kFullRoload,
                                         kInjectHart);
            if (run.ok()) {
              cell.result = *run;
            } else {
              cell.status = run.status();
            }
            return cell;
          });

  std::printf("Under load, corruption injected from hart %u (parity with "
              "hart-0 injection)\n\n", kInjectHart);
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    std::printf("%-30s", sec::AttackKindName(kinds[k]).data());
    for (std::size_t d = 0; d < kLoadDefenseCount; ++d) {
      const AttackCell& cell = inject_cells[k * kLoadDefenseCount + d];
      const AttackCell& base = load_cells[k * kLoadDefenseCount + d];
      const std::string key =
          std::string("attack_inject_h") + std::to_string(kInjectHart) +
          "." + std::string(sec::AttackKindName(kinds[k])) + "." +
          std::string(core::DefenseName(load_defenses[d]));
      if (!cell.status.ok()) {
        std::printf(" %-14s", "ERROR");
        session.Record(key, "ERROR");
        any_error = true;
        continue;
      }
      std::string verdict(sec::AttackOutcomeName(cell.result.outcome));
      if (cell.result.roload_violation) {
        verdict += "@hart" + std::to_string(cell.result.hart);
      }
      const bool parity =
          base.status.ok() &&
          cell.result.outcome == base.result.outcome &&
          cell.result.hart == base.result.hart &&
          cell.result.classification == base.result.classification;
      if (!parity) {
        verdict += "!=h0";
        any_error = true;
      }
      std::printf(" %-14s", verdict.c_str());
      session.Record(key, verdict);
      session.Record(key + ".parity", static_cast<std::uint64_t>(parity));
    }
    std::printf("\n");
  }
  std::printf("\n");

  // Static verdicts next to the dynamic ones: the src/verify proof over
  // the very build each attack ran against. "proven" = zero violations
  // and every dispatch shown to consume an ld.ro result; "partial" =
  // zero violations but only some dispatches carry the proof (expected
  // for VCall, which covers virtual calls only, and for defenses that
  // never dispatch through ld.ro); "REJECT" = the verifier found a
  // violation (never expected here).
  std::printf("%-30s", "statically proven");
  const ir::Module victim = sec::MakeVictimModule();
  for (core::Defense defense : defenses) {
    core::BuildOptions options;
    options.defense = defense;
    auto build = core::Build(victim, options);
    const std::string prefix =
        std::string("static.") + std::string(core::DefenseName(defense));
    if (!build.ok()) {
      std::printf(" %-10s", "ERROR");
      session.Record(prefix + ".verdict", "ERROR");
      any_error = true;
      continue;
    }
    const verify::Report report = core::Verify(*build);
    const auto& stats = report.stats();
    std::string verdict;
    if (!report.ok()) {
      verdict = "REJECT";
      any_error = true;
    } else if (stats.dispatches == stats.proven_dispatches &&
               stats.dispatches > 0) {
      verdict = "proven";
    } else {
      verdict = StrFormat(
          "%llu/%llu",
          static_cast<unsigned long long>(stats.proven_dispatches),
          static_cast<unsigned long long>(stats.dispatches));
    }
    std::printf(" %-10s", verdict.c_str());
    session.Record(prefix + ".verdict", verdict);
    session.Record(prefix + ".ok", static_cast<std::uint64_t>(report.ok()));
    session.Record(prefix + ".dispatches", stats.dispatches);
    session.Record(prefix + ".proven_dispatches", stats.proven_dispatches);
    session.Record(prefix + ".roload_instructions",
                   stats.roload_instructions);
  }
  std::printf("\n");

  // Residual attack surface: average allowlist size per key (Section V-D:
  // "attackers can only feed values in the specific allowlists").
  std::printf("\nResidual pointee-reuse surface (average legal targets per "
              "indirect-call site):\n");
  for (const auto& spec : workloads::SpecCppSubset(1.0)) {
    const ir::Module module = workloads::Generate(spec);
    std::size_t address_taken = 0;
    std::vector<std::size_t> per_type(module.fn_type_names.size(), 0);
    for (const auto& fn : module.functions) {
      if (!fn.address_taken) continue;
      ++address_taken;
      per_type[static_cast<std::size_t>(fn.type_id)]++;
    }
    std::size_t used_types = 0;
    std::size_t sum = 0;
    for (std::size_t n : per_type) {
      if (n > 0) {
        ++used_types;
        sum += n;
      }
    }
    std::printf("  %-24s address-taken fns: %4zu; coarse-CFI allowlist: "
                "%4zu; type-keyed allowlist (avg): %.1f  (%.1fx smaller)\n",
                spec.name.c_str(), address_taken, address_taken,
                static_cast<double>(sum) / static_cast<double>(used_types),
                static_cast<double>(address_taken) * used_types /
                    static_cast<double>(sum));
    session.Record("residual." + spec.name + ".address_taken",
                   static_cast<std::uint64_t>(address_taken));
    session.Record("residual." + spec.name + ".typed_allowlist_avg",
                   static_cast<double>(sum) /
                       static_cast<double>(used_types));
  }

  // Machine-readable forensics artifact: one roload.audit.v1 document for
  // the whole grid — per-cell verdict + autopsy facts, plus the merged
  // end-of-run counters (CounterMerger over every cell's snapshot).
  {
    JsonWriter writer;
    writer.BeginObject();
    writer.KV("schema", "roload.audit.v1");
    writer.KV("source", "security_matrix");
    writer.Key("cells").BeginArray();
    for (std::size_t k = 0; k < std::size(kinds); ++k) {
      for (std::size_t d = 0; d < kDefenseCount; ++d) {
        const AttackCell& cell = cells[k * kDefenseCount + d];
        writer.BeginObject();
        writer.KV("attack", sec::AttackKindName(kinds[k]));
        writer.KV("defense", core::DefenseName(defenses[d]));
        if (!cell.status.ok()) {
          writer.KV("error", cell.status.ToString());
          writer.EndObject();
          continue;
        }
        writer.KV("outcome", sec::AttackOutcomeName(cell.result.outcome));
        writer.KV("classification", cell.result.classification);
        writer.KV("roload_violation", cell.result.roload_violation);
        writer.KV("has_autopsy", cell.result.has_autopsy);
        if (cell.result.has_autopsy) {
          writer.Key("autopsy").BeginObject();
          writer.KV("fault_pc",
                    StrFormat("0x%llx", static_cast<unsigned long long>(
                                            cell.result.fault_pc)));
          writer.KV("fault_va",
                    StrFormat("0x%llx", static_cast<unsigned long long>(
                                            cell.result.fault_va)));
          writer.KV("inst_key",
                    static_cast<std::uint64_t>(cell.result.inst_key));
          writer.KV("pte_key",
                    static_cast<std::uint64_t>(cell.result.pte_key));
          writer.KV("page_mapped", cell.result.page_mapped);
          writer.KV("page_writable", cell.result.page_writable);
          writer.EndObject();
        }
        writer.EndObject();
      }
    }
    writer.EndArray();
    writer.Key("merged_counters").BeginObject();
    for (const auto& [name, aggregate] : merger.Merged()) {
      writer.Key(name).BeginObject();
      writer.KV("sum", aggregate.sum);
      writer.KV("min", aggregate.min);
      writer.KV("max", aggregate.max);
      writer.KV("runs", aggregate.runs);
      writer.EndObject();
    }
    writer.EndObject();
    writer.EndObject();
    const std::string path = "AUDIT_security_matrix.json";
    if (Status status = trace::WriteFile(path, writer.str()); !status.ok()) {
      std::fprintf(stderr, "bench: %s\n", status.ToString().c_str());
    } else {
      std::printf("wrote %s\n", path.c_str());
    }
  }

  bench::WriteBenchJson(session);
  return any_error ? 1 : 0;
}
