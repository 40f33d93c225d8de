// Section V-C2 + V-D: security evaluation. Runs the attack-injection
// campaign (arbitrary-write adversary) against the victim program under
// every defense, and reports the allowlist sizes that bound the residual
// pointee-reuse surface.
//
// Every 1-hart and 4-hart cell is checked against the paper's verdict
// (sec::PaperOutcome); a mismatch is marked "!=paper" and fails the bench.
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <optional>
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

// One cell of the attack grid: what to run, on which prepared victim, and
// what it gave (ParallelMap slots must be default-constructible).
struct AttackCell {
  sec::AttackKind kind = sec::AttackKind::kVtableInjection;
  core::Defense defense = core::Defense::kNone;
  unsigned inject_hart = 0;
  std::size_t victim = 0;
  StatusOr<sec::AttackResult> run = Status::Internal("not run");
};

std::string CellName(const AttackCell& cell) {
  return std::string(sec::AttackKindName(cell.kind)) + "." +
         std::string(core::DefenseName(cell.defense));
}

// Prints one verdict table, behind an "attack \ defense" header when
// `header`: a row per attack kind of kind-major `cells`, a `width`-wide
// column per defense, each verdict recorded as "<prefix>.<kind>.<defense>".
// Given `bases` (the same attacks injected through hart 0), a cell whose
// outcome, catching hart or classification differs from its base's is
// marked "!=h0", and only its ".parity" is recorded beside it; otherwise
// its counters feed `merger` and a multi-hart cell records its catching
// ".hart". False when a cell errored or broke the paper or parity.
bool PrintVerdictTable(std::span<const AttackCell> cells,
                       std::span<const AttackCell> bases,
                       std::span<const core::Defense> defenses, int width,
                       const std::string& prefix, bool header,
                       trace::TelemetrySession* session,
                       trace::CounterMerger* merger) {
  if (header) {
    std::printf("%-30s", "attack \\ defense");
    for (core::Defense defense : defenses) {
      std::printf(" %-*s", width, core::DefenseName(defense).data());
    }
    std::printf("\n");
  }
  bool ok = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const AttackCell& cell = cells[i];
    const StatusOr<sec::AttackResult>& run = cell.run;
    if (i % defenses.size() == 0) {
      std::printf("%-30s", sec::AttackKindName(cell.kind).data());
    }
    const std::string key = prefix + "." + CellName(cell);
    std::string verdict = "ERROR";
    bool parity = true;
    if (run.ok()) {
      verdict = sec::AttackOutcomeName(run->outcome);
      if (run->harts > 1 && run->roload_violation) {
        verdict += "@hart" + std::to_string(run->hart);
      }
      if (run->outcome != sec::PaperOutcome(cell.kind, cell.defense)) {
        verdict += "!=paper";
        ok = false;
      }
      if (!bases.empty()) {
        const StatusOr<sec::AttackResult>& base = bases[i].run;
        parity = base.ok() && run->outcome == base->outcome &&
                 run->hart == base->hart &&
                 run->classification == base->classification;
        if (!parity) verdict += "!=h0";
      }
    }
    ok &= run.ok() && parity;
    std::printf(" %-*s", width, verdict.c_str());
    session->Record(key, verdict);
    if (run.ok() && !bases.empty()) {
      session->Record(key + ".parity", static_cast<std::uint64_t>(parity));
    } else if (run.ok()) {
      if (run->harts > 1) {
        session->Record(key + ".hart", static_cast<std::uint64_t>(run->hart));
      }
      merger->Add(key, run->counters);
    }
    if (i % defenses.size() == defenses.size() - 1) std::printf("\n");
  }
  return ok;
}

}  // namespace

int main() {
  trace::TelemetrySession session("security_matrix");
  const unsigned jobs = campaign::JobsFromEnv();
  constexpr std::size_t kDefenseCount = std::size(core::kAllDefenses);
  // Under load: the same attacks on a 4-hart machine while the other harts
  // keep serving the victim's dispatch loops, injected through hart 0 and
  // again through the last hart's debug port.
  constexpr unsigned kLoadHarts = 4;
  constexpr unsigned kInjectHart = kLoadHarts - 1;
  const core::Defense load_defenses[] = {
      core::Defense::kNone, core::Defense::kVCall, core::Defense::kICall};

  // Phase 1, once per victim: each defense at 1 hart, then the load
  // defenses at kLoadHarts. A victim's build and unattacked reference run
  // depend on neither the attack nor the injecting hart, so every attack
  // on it shares them. (The optional only makes the slots
  // default-constructible for ParallelMap.)
  const auto victims =
      campaign::ParallelMap<std::optional<StatusOr<sec::Victim>>>(
          kDefenseCount + std::size(load_defenses), jobs, [&](std::size_t i) {
            return i < kDefenseCount
                       ? sec::PrepareVictim(core::kAllDefenses[i], 1)
                       : sec::PrepareVictim(load_defenses[i - kDefenseCount],
                                            kLoadHarts);
          });

  // Phase 2, the attacks: kind-major rows of each table, the tables back
  // to back, each cell on a fresh machine off its table's victims.
  std::vector<AttackCell> grid;
  auto add_table = [&grid](std::span<const core::Defense> defenses,
                           std::size_t first_victim, unsigned inject_hart) {
    const std::size_t first = grid.size();
    for (sec::AttackKind kind : sec::kAttackKinds) {
      for (std::size_t d = 0; d < defenses.size(); ++d) {
        grid.push_back({kind, defenses[d], inject_hart, first_victim + d});
      }
    }
    return first;
  };
  const std::size_t serial = add_table(core::kAllDefenses, 0, 0);
  const std::size_t load = add_table(load_defenses, kDefenseCount, 0);
  const std::size_t inject =
      add_table(load_defenses, kDefenseCount, kInjectHart);
  const std::vector<AttackCell> cells = campaign::ParallelMap<AttackCell>(
      grid.size(), jobs, [&grid, &victims](std::size_t i) {
        AttackCell cell = grid[i];
        const StatusOr<sec::Victim>& victim = *victims[cell.victim];
        cell.run = victim.ok()
                       ? sec::Attack(*victim, cell.kind, cell.inject_hart)
                       : victim.status();
        return cell;
      });
  const std::span<const AttackCell> all(cells);
  const auto serial_cells = all.subspan(serial, load - serial);
  const auto load_cells = all.subspan(load, inject - load);

  // Forensic aggregation across the grid: every cell ran with the audit
  // layer on, so each result carries a counter snapshot (census totals,
  // per-key TLB checks) and, for ROLoad-blocked cells, the autopsy.
  trace::CounterMerger merger;

  std::printf("Security matrix (attack outcome per defense)\n\n");
  bool ok = PrintVerdictTable(serial_cells, {}, core::kAllDefenses, 10,
                              "attack", true, &session, &merger);

  // The forensic view of the same grid: not just *whether* each attack was
  // stopped, but the audit layer's explanation of *how* — which check
  // tripped ("caught:key-mismatch@dispatch", "caught:writable-page@..."),
  // or why not ("missed:hijacked", "diverted:in-allowlist"). The same facts
  // open the machine-readable artifact, one roload.audit.v1 document for
  // the whole grid: per-cell verdict and autopsy facts, then (at the end)
  // the merged end-of-run counters of every cell.
  JsonWriter audit;
  audit.BeginObject();
  audit.KV("schema", "roload.audit.v1");
  audit.KV("source", "security_matrix");
  audit.Key("cells").BeginArray();
  std::printf("\nForensic classification (audit layer)\n\n");
  for (std::size_t i = 0; i < serial_cells.size(); ++i) {
    const AttackCell& cell = serial_cells[i];
    if (i % kDefenseCount == 0) {
      std::printf("%-30s\n", sec::AttackKindName(cell.kind).data());
    }
    const std::string key = "forensic." + CellName(cell);
    audit.BeginObject();
    audit.KV("attack", sec::AttackKindName(cell.kind));
    audit.KV("defense", core::DefenseName(cell.defense));
    if (!cell.run.ok()) {
      session.Record(key, "ERROR");
      audit.KV("error", cell.run.status().ToString());
      audit.EndObject();
      continue;
    }
    const sec::AttackResult& result = *cell.run;
    audit.KV("outcome", sec::AttackOutcomeName(result.outcome));
    audit.KV("classification", result.classification);
    audit.KV("roload_violation", result.roload_violation);
    audit.KV("has_autopsy", result.autopsy.has_value());
    std::string detail = result.classification;
    if (const auto& autopsy = result.autopsy) {
      detail += " [pc=" + Hex(autopsy->fault_pc) +
                " va=" + Hex(autopsy->fault_va) +
                StrFormat(" inst_key=%u pte_key=%u]", autopsy->inst_key,
                          autopsy->pte_key);
      audit.Key("autopsy").BeginObject();
      audit.KV("fault_pc", Hex(autopsy->fault_pc));
      audit.KV("fault_va", Hex(autopsy->fault_va));
      audit.KV("inst_key", static_cast<std::uint64_t>(autopsy->inst_key));
      audit.KV("pte_key", static_cast<std::uint64_t>(autopsy->pte_key));
      audit.KV("page_mapped", autopsy->page_mapped);
      audit.KV("page_writable", autopsy->page_writable);
      audit.EndObject();
    }
    audit.EndObject();
    std::printf("    %-10s %s\n", core::DefenseName(cell.defense).data(),
                detail.c_str());
    session.Record(key, result.classification);
  }
  audit.EndArray();

  // Under load. The defense verdicts must not change under traffic, and
  // the blocked cells must attribute the kill to the hart the scheduler
  // actually dispatched into the corrupted table first.
  std::printf("\nUnder load (attack while %u harts serve RPC-style "
              "dispatch)\n\n", kLoadHarts);
  ok &= PrintVerdictTable(load_cells, {}, load_defenses, 14, "attack_load",
                          true, &session, &merger);
  std::printf("\n");

  // The address space is shared, so every verdict (and the catching hart)
  // of the last-hart injection must match the hart-0 rows — any
  // divergence is an attribution bug, marked "!=h0", and fails the bench.
  std::printf("Under load, corruption injected from hart %u (parity with "
              "hart-0 injection)\n\n", kInjectHart);
  ok &= PrintVerdictTable(all.subspan(inject), load_cells, load_defenses, 14,
                          "attack_inject_h" + std::to_string(kInjectHart),
                          false, &session, nullptr);
  std::printf("\n");

  // Static verdicts next to the dynamic ones: the src/verify proof over
  // the very build each 1-hart attack ran against. "proven" = zero
  // violations and every dispatch shown to consume an ld.ro result;
  // "partial" = zero violations but only some dispatches carry the proof
  // (expected for VCall, which covers virtual calls only, and for defenses
  // that never dispatch through ld.ro); "REJECT" = the verifier found a
  // violation (never expected here).
  std::printf("%-30s", "statically proven");
  for (std::size_t d = 0; d < kDefenseCount; ++d) {
    const StatusOr<sec::Victim>& victim = *victims[d];
    const std::string prefix =
        "static." + std::string(core::DefenseName(core::kAllDefenses[d]));
    if (!victim.ok()) {
      std::printf(" %-10s", "ERROR");
      session.Record(prefix + ".verdict", "ERROR");
      ok = false;
      continue;
    }
    const verify::Report report = core::Verify(victim->build);
    const auto& stats = report.stats();
    std::string verdict = StrFormat(
        "%llu/%llu", static_cast<unsigned long long>(stats.proven_dispatches),
        static_cast<unsigned long long>(stats.dispatches));
    if (!report.ok()) {
      verdict = "REJECT";
    } else if (stats.dispatches > 0 &&
               stats.dispatches == stats.proven_dispatches) {
      verdict = "proven";
    }
    ok &= report.ok();
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
    // A coarse-CFI site admits every address-taken function; a type-keyed
    // one admits those of its type, on average address_taken / used_types.
    std::size_t address_taken = 0;
    std::vector<bool> used(module.fn_type_names.size(), false);
    for (const auto& fn : module.functions) {
      if (!fn.address_taken) continue;
      ++address_taken;
      used[static_cast<std::size_t>(fn.type_id)] = true;
    }
    const auto used_types =
        static_cast<double>(std::count(used.begin(), used.end(), true));
    const double typed = static_cast<double>(address_taken) / used_types;
    std::printf("  %-24s address-taken fns: %4zu; coarse-CFI allowlist: "
                "%4zu; type-keyed allowlist (avg): %.1f  (%.1fx smaller)\n",
                spec.name.c_str(), address_taken, address_taken, typed,
                used_types);
    session.Record("residual." + spec.name + ".address_taken",
                   static_cast<std::uint64_t>(address_taken));
    session.Record("residual." + spec.name + ".typed_allowlist_avg", typed);
  }

  audit.Key("merged_counters");
  merger.WriteJson(&audit);
  audit.EndObject();
  const std::string path = "AUDIT_security_matrix.json";
  if (Status status = trace::WriteFile(path, audit.str()); !status.ok()) {
    std::fprintf(stderr, "bench: %s\n", status.ToString().c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }

  bench::WriteBenchJson(session);
  return ok ? 0 : 1;
}
