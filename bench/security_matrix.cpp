// Section V-C2 + V-D: security evaluation. Runs the attack-injection
// campaign (arbitrary-write adversary) against the victim program under
// every defense, and reports the allowlist sizes that bound the residual
// pointee-reuse surface.
//
// Every 1-hart and 4-hart cell is checked against the paper's verdict
// (sec::PaperOutcome); a mismatch is marked "!=paper" and fails the bench.
#include <cstddef>
#include <cstdio>
#include <span>
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

// One cell of the attack grid: what to run, and what it gave (ParallelMap
// slots must be default-constructible, which StatusOr is not).
struct AttackCell {
  sec::AttackKind kind = sec::AttackKind::kVtableInjection;
  core::Defense defense = core::Defense::kNone;
  unsigned harts = 1;
  unsigned inject_hart = 0;
  Status status = Status::Ok();
  sec::AttackResult result;
};

std::string CellName(const AttackCell& cell) {
  return std::string(sec::AttackKindName(cell.kind)) + "." +
         std::string(core::DefenseName(cell.defense));
}

bool MatchesPaper(const AttackCell& cell) {
  return cell.result.outcome == sec::PaperOutcome(cell.kind, cell.defense);
}

// The printed verdict of a cell that ran: its outcome, the hart that
// caught a ROLoad block on a multi-hart machine, and "!=paper" when the
// outcome is not the paper's.
std::string Verdict(const AttackCell& cell) {
  std::string verdict(sec::AttackOutcomeName(cell.result.outcome));
  if (cell.harts > 1 && cell.result.roload_violation) {
    verdict += "@hart" + std::to_string(cell.result.hart);
  }
  if (!MatchesPaper(cell)) verdict += "!=paper";
  return verdict;
}

}  // namespace

int main() {
  trace::TelemetrySession session("security_matrix");
  constexpr std::size_t kDefenseCount = std::size(core::kAllDefenses);
  // Under load: the same attacks on a 4-hart machine while the other harts
  // keep serving the victim's dispatch loops, injected through hart 0 and
  // again through the last hart's debug port.
  constexpr unsigned kLoadHarts = 4;
  constexpr unsigned kInjectHart = kLoadHarts - 1;
  const core::Defense load_defenses[] = {
      core::Defense::kNone, core::Defense::kVCall, core::Defense::kICall};
  constexpr std::size_t kLoadDefenseCount = std::size(load_defenses);

  // The whole campaign is one embarrassingly parallel grid, like the
  // figure sweeps: kind-major rows of each table, the tables back to back
  // (each cell builds and runs its own victim System).
  std::vector<AttackCell> grid;
  auto add_table = [&grid](std::span<const core::Defense> defenses,
                           unsigned harts, unsigned inject_hart) {
    const std::size_t first = grid.size();
    for (sec::AttackKind kind : sec::kAttackKinds) {
      for (core::Defense defense : defenses) {
        grid.push_back({kind, defense, harts, inject_hart, Status::Ok(), {}});
      }
    }
    return first;
  };
  const std::size_t serial = add_table(core::kAllDefenses, 1, 0);
  const std::size_t load = add_table(load_defenses, kLoadHarts, 0);
  const std::size_t inject =
      add_table(load_defenses, kLoadHarts, kInjectHart);
  const std::vector<AttackCell> cells = campaign::ParallelMap<AttackCell>(
      grid.size(), campaign::JobsFromEnv(), [&grid](std::size_t i) {
        AttackCell cell = grid[i];
        auto run = sec::RunAttackSmp(cell.kind, cell.defense, cell.harts,
                                     core::SystemVariant::kFullRoload,
                                     cell.inject_hart);
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
  for (core::Defense defense : core::kAllDefenses) {
    std::printf(" %-10s", core::DefenseName(defense).data());
  }
  std::printf("\n");
  bool any_error = false;
  for (std::size_t k = 0; k < std::size(sec::kAttackKinds); ++k) {
    std::printf("%-30s", sec::AttackKindName(sec::kAttackKinds[k]).data());
    for (std::size_t d = 0; d < kDefenseCount; ++d) {
      const AttackCell& cell = cells[serial + k * kDefenseCount + d];
      const std::string key = "attack." + CellName(cell);
      if (!cell.status.ok()) {
        std::printf(" %-10s", "ERROR");
        session.Record(key, "ERROR");
        any_error = true;
        continue;
      }
      const std::string verdict = Verdict(cell);
      any_error |= !MatchesPaper(cell);
      std::printf(" %-10s", verdict.c_str());
      session.Record(key, verdict);
      merger.Add(std::string(sec::AttackKindName(cell.kind)) + "/" +
                     std::string(core::DefenseName(cell.defense)),
                 cell.result.counters);
    }
    std::printf("\n");
  }

  // The forensic view of the same grid: not just *whether* each attack was
  // stopped, but the audit layer's explanation of *how* — which check
  // tripped ("caught:key-mismatch@dispatch", "caught:writable-page@..."),
  // or why not ("missed:hijacked", "diverted:in-allowlist").
  std::printf("\nForensic classification (audit layer)\n\n");
  for (std::size_t k = 0; k < std::size(sec::kAttackKinds); ++k) {
    std::printf("%-30s\n", sec::AttackKindName(sec::kAttackKinds[k]).data());
    for (std::size_t d = 0; d < kDefenseCount; ++d) {
      const AttackCell& cell = cells[serial + k * kDefenseCount + d];
      const std::string key = "forensic." + CellName(cell);
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
      std::printf("    %-10s %s\n", core::DefenseName(cell.defense).data(),
                  detail.c_str());
      session.Record(key, cell.result.classification);
    }
  }

  // Under load. The defense verdicts must not change under traffic, and
  // the blocked cells must attribute the kill to the hart the scheduler
  // actually dispatched into the corrupted table first.
  std::printf("\nUnder load (attack while %u harts serve RPC-style "
              "dispatch)\n\n", kLoadHarts);
  std::printf("%-30s", "attack \\ defense");
  for (core::Defense defense : load_defenses) {
    std::printf(" %-14s", core::DefenseName(defense).data());
  }
  std::printf("\n");
  for (std::size_t k = 0; k < std::size(sec::kAttackKinds); ++k) {
    std::printf("%-30s", sec::AttackKindName(sec::kAttackKinds[k]).data());
    for (std::size_t d = 0; d < kLoadDefenseCount; ++d) {
      const AttackCell& cell = cells[load + k * kLoadDefenseCount + d];
      const std::string key = "attack_load." + CellName(cell);
      if (!cell.status.ok()) {
        std::printf(" %-14s", "ERROR");
        session.Record(key, "ERROR");
        any_error = true;
        continue;
      }
      const std::string verdict = Verdict(cell);
      any_error |= !MatchesPaper(cell);
      std::printf(" %-14s", verdict.c_str());
      session.Record(key, verdict);
      session.Record(key + ".hart",
                     static_cast<std::uint64_t>(cell.result.hart));
      merger.Add(std::string(sec::AttackKindName(cell.kind)) + "/" +
                     std::string(core::DefenseName(cell.defense)) + "/h" +
                     std::to_string(kLoadHarts),
                 cell.result.counters);
    }
    std::printf("\n");
  }
  std::printf("\n");

  // The address space is shared, so every verdict (and the catching hart)
  // of the last-hart injection must match the hart-0 rows — any
  // divergence is an attribution bug, marked "!=h0", and fails the bench.
  std::printf("Under load, corruption injected from hart %u (parity with "
              "hart-0 injection)\n\n", kInjectHart);
  for (std::size_t k = 0; k < std::size(sec::kAttackKinds); ++k) {
    std::printf("%-30s", sec::AttackKindName(sec::kAttackKinds[k]).data());
    for (std::size_t d = 0; d < kLoadDefenseCount; ++d) {
      const AttackCell& cell = cells[inject + k * kLoadDefenseCount + d];
      const AttackCell& base = cells[load + k * kLoadDefenseCount + d];
      const std::string key = "attack_inject_h" +
                              std::to_string(kInjectHart) + "." +
                              CellName(cell);
      if (!cell.status.ok()) {
        std::printf(" %-14s", "ERROR");
        session.Record(key, "ERROR");
        any_error = true;
        continue;
      }
      std::string verdict = Verdict(cell);
      any_error |= !MatchesPaper(cell);
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
  for (core::Defense defense : core::kAllDefenses) {
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
    for (std::size_t i = serial; i < load; ++i) {
      const AttackCell& cell = cells[i];
      writer.BeginObject();
      writer.KV("attack", sec::AttackKindName(cell.kind));
      writer.KV("defense", core::DefenseName(cell.defense));
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
