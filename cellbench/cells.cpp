#include "cells.h"

#include <fstream>
#include <memory>
#include <sstream>

#include "asmtool/assembler.h"
#include "backend/codegen.h"
#include "campaign/runner.h"
#include "core/toolchain.h"
#include "passes/passes.h"
#include "smp/machine.h"
#include "support/json.h"
#include "support/json_parse.h"
#include "support/rng.h"
#include "support/strings.h"
#include "trace/jitstats.h"
#include "trace/session.h"
#include "workloads/spec_like.h"

namespace cellbench {

using roload::Status;
using roload::StatusOr;
namespace campaign = roload::campaign;
namespace core = roload::core;
namespace sec = roload::sec;

namespace {

using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

constexpr core::Defense kAllDefenses[] = {
    core::Defense::kNone, core::Defense::kVCall, core::Defense::kVTint,
    core::Defense::kICall, core::Defense::kClassicCfi};
constexpr sec::AttackKind kAllAttacks[] = {
    sec::AttackKind::kVtableInjection,
    sec::AttackKind::kVtableReuseCrossHierarchy,
    sec::AttackKind::kFnPtrCorruptToEvil,
    sec::AttackKind::kFnPtrReuseSameType};

bool MovedByOneDtlbLookup(std::string_view name) {
  return name == "cpu.cycles" || name == "tlb.d.hit" || name == "tlb.d.miss";
}

// FNV-1a over "name=value\n" lines of a sorted counter snapshot,
// optionally skipping the counters a D-TLB lookup moves.
std::uint64_t DigestCounters(const Counters& counters, bool stable = false) {
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](std::string_view text) {
    for (unsigned char c : text) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& [name, value] : counters) {
    if (stable && MovedByOneDtlbLookup(name)) continue;
    mix(name);
    mix("=");
    mix(std::to_string(value));
    mix("\n");
  }
  return hash;
}

std::uint64_t Lookup(const Counters& counters, std::string_view name) {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return 0;
}

void DigestInto(const Counters& counters, Facts* facts) {
  facts->counters_digest = DigestCounters(counters);
  facts->stable_digest = DigestCounters(counters, /*stable=*/true);
  facts->dtlb_hits = Lookup(counters, "tlb.d.hit");
  facts->dtlb_misses = Lookup(counters, "tlb.d.miss");
}

// One D-TLB walk: three Sv39 levels at the default walker latency.
std::int64_t DtlbWalkCycles() {
  return 3 * static_cast<std::int64_t>(
                 roload::cpu::CpuConfig{}.dtlb.walk_cycles_per_level);
}

template <typename Stats, typename Fn>
void ForEachStat(Stats& stats, Fn fn) {
  fn("lint_globals", stats.lint_globals);
  fn("lint_md_loads", stats.lint_md_loads);
  fn("sections", stats.sections);
  fn("keyed_sections", stats.keyed_sections);
  fn("functions", stats.functions);
  fn("instructions", stats.instructions);
  fn("roload_instructions", stats.roload_instructions);
  fn("dispatches", stats.dispatches);
  fn("proven_dispatches", stats.proven_dispatches);
}

std::string Hex(std::uint64_t value) {
  return roload::StrFormat("%016llx", static_cast<unsigned long long>(value));
}

std::string FirstLine(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

// The suite at `scale`; seed 0 keeps the figure programs' own seeds. The
// generator embeds a program's seed as an immediate, so derived seeds
// stay below 2^20.
std::vector<roload::workloads::WorkloadSpec> Suite(double scale,
                                                   std::uint64_t seed) {
  auto suite = roload::workloads::SpecCint2006Suite(scale);
  if (seed != 0) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      suite[i].seed = 1 + roload::DeriveSeed(seed, i) % (1u << 20);
    }
  }
  return suite;
}

Op ProgramOp(const std::string& workload,
             const roload::workloads::WorkloadSpec& program,
             core::Defense defense, OpKind kind) {
  Op op;
  op.kind = kind;
  op.name = workload + "/" + program.name + "/" +
            std::string(core::DefenseName(defense));
  op.run.name = op.name;
  op.run.workload = program;
  op.run.build.defense = defense;
  return op;
}

Facts FromOutcome(const campaign::RunOutcome& outcome) {
  Facts facts;
  if (!outcome.ok()) facts.error = outcome.FailureText();
  facts.image_bytes = outcome.build.image_bytes;
  facts.cycles = outcome.metrics.cycles;
  facts.instructions = outcome.metrics.instructions;
  facts.exit_code = outcome.metrics.exit_code;
  DigestInto(outcome.metrics.counters, &facts);
  return facts;
}

// The export half of a cell: the campaign's roload.campaign.v1 document
// for this one outcome, as rcampaign writes it. Ops pay for building it;
// the document itself is not needed.
std::string ExportCell(const Op& op, std::vector<campaign::RunOutcome> outs) {
  campaign::CampaignSpec label;
  label.name = op.name;
  const campaign::CampaignResult result(label, std::move(outs), /*jobs=*/1);
  roload::trace::TelemetrySession session(op.name);
  result.FillSession(&session);
  return session.ToJson();
}

Facts FromAttack(const StatusOr<sec::AttackResult>& result) {
  Facts facts;
  if (!result.ok()) {
    facts.error = result.status().ToString();
    return facts;
  }
  facts.outcome = std::string(sec::AttackOutcomeName(result->outcome));
  facts.classification = result->classification;
  facts.roload_kill = result->outcome == sec::AttackOutcome::kBlocked &&
                      result->roload_violation;
  facts.exit_code = result->exit_code;
  facts.cycles = Lookup(result->counters, "cpu.cycles");
  facts.instructions = Lookup(result->counters, "cpu.instret");
  facts.tlb_shootdowns = Lookup(result->counters, "kernel.tlb_shootdowns");
  facts.counters_digest = DigestCounters(result->counters);
  return facts;
}

Facts FromRun(const roload::kernel::RunResult& run, const Counters& counters) {
  Facts facts;
  if (run.kind != roload::kernel::ExitKind::kExited) {
    facts.error = "guest did not exit normally";
  }
  facts.cycles = run.cycles;
  facts.instructions = run.instructions;
  facts.exit_code = run.exit_code;
  DigestInto(counters, &facts);
  facts.tlb_shootdowns = Lookup(counters, "kernel.tlb_shootdowns");
  return facts;
}

Status Harden(roload::ir::Module* module, const core::BuildOptions& options) {
  namespace passes = roload::passes;
  switch (options.defense) {
    case core::Defense::kNone:
      return Status::Ok();
    case core::Defense::kVCall:
      return passes::VCallProtectPass(module, options.vcall);
    case core::Defense::kVTint:
      return passes::VTintPass(module);
    case core::Defense::kICall:
      return passes::ICallCfiPass(module, options.icall);
    case core::Defense::kClassicCfi:
      return passes::ClassicCfiPass(module, options.cfi);
  }
  return Status::Ok();
}

// core::Build, one layer call at a time. The statements between the calls
// are Build's own, so their cost stays in the op's uncovered time.
StatusOr<core::BuildResult> BuildTraced(roload::ir::Module module,
                                        const core::BuildOptions& options,
                                        OpRecorder* recorder, Facts* facts) {
  if (options.defense != core::Defense::kNone) {
    const Status hardened = Timed(recorder, "passes.harden",
                                  [&] { return Harden(&module, options); });
    if (!hardened.ok()) return hardened;
  }
  auto codegen = Timed(recorder, "backend.codegen", [&] {
    return roload::backend::Generate(module, options.codegen);
  });
  if (!codegen.ok()) return codegen.status();
  auto image = Timed(recorder, "asmtool.assemble", [&] {
    return roload::asmtool::Assemble(codegen->assembly);
  });
  if (!image.ok()) return image.status();

  core::BuildResult result;
  result.codegen = *codegen;
  result.image_bytes = image->MappedBytes();
  result.code_bytes = image->CodeBytes();
  result.image = *std::move(image);
  result.hardened = std::move(module);
  result.options = options;
  recorder->Count("asmtool.image_mib",
                  static_cast<double>(result.image_bytes) / (1 << 20));

  if (options.verify) {
    const roload::verify::Report report = Timed(
        recorder, "verify.check", [&] { return core::Verify(result); });
    facts->has_stats = true;
    facts->stats = report.stats();
    recorder->Count("verify.instructions",
                    static_cast<double>(report.stats().instructions));
    if (!report.ok()) {
      return Status::FailedPrecondition("static verification failed:\n" +
                                        report.ToText());
    }
  }
  return result;
}

// campaign::RunCampaign on one cell (core::Build + core::RunBuild), one
// layer call at a time.
Facts RunCellTraced(const Op& op, OpRecorder* recorder) {
  const campaign::RunSpec& spec = op.run;
  Facts facts;
  roload::ir::Module module = Timed(recorder, "workloads.generate", [&] {
    return roload::workloads::Generate(spec.workload);
  });
  auto build = BuildTraced(std::move(module), spec.build, recorder, &facts);
  if (!build.ok()) {
    facts.error = build.status().ToString();
    return facts;
  }
  // The jit census is observational; it rides on the traced twin only.
  core::SystemConfig config;
  config.variant = spec.variant;
  config.trace = spec.trace;
  config.trace.jit = spec.exec == roload::cpu::ExecTier::kTranslated;
  roload::cpu::SetExecTier(&config.cpu, spec.exec);
  auto system = Timed(recorder, "core.system_init",
                      [&] { return std::make_unique<core::System>(config); });
  const Status loaded =
      Timed(recorder, "kernel.load", [&] { return system->Load(build->image); });
  if (!loaded.ok()) {
    facts.error = loaded.ToString();
    return facts;
  }
  const roload::kernel::RunResult run = Timed(
      recorder, "cpu.run", [&] { return system->Run(spec.max_instructions); });

  std::vector<campaign::RunOutcome> outcomes(1);
  {
    Span span(recorder, "trace.snapshot");
    campaign::RunOutcome& outcome = outcomes[0];
    outcome.name = spec.name;
    outcome.build.image_bytes = build->image_bytes;
    core::RunMetrics& metrics = outcome.metrics;
    metrics.cycles = run.cycles;
    metrics.instructions = run.instructions;
    metrics.roload_loads = system->cpu().stats().roload_loads;
    metrics.peak_mem_kib = run.peak_mem_kib;
    metrics.image_bytes = build->image_bytes;
    metrics.exit_code = run.exit_code;
    metrics.completed = run.kind == roload::kernel::ExitKind::kExited;
    metrics.counters = system->trace().counters().Snapshot();
    if (config.trace.jit) {
      roload::trace::JitReport report;
      system->cpu().AppendJitReport(&report, /*hart=*/0);
      roload::trace::FinalizeJitReport(&report);
      roload::trace::AppendJitCounters(report, &metrics.jit_counters);
    }
  }
  Timed(recorder, "core.system_teardown", [&] {
    system.reset();
    return 0;
  });
  facts = FromOutcome(outcomes[0]);
  const Counters jit = outcomes[0].metrics.jit_counters;
  Timed(recorder, "trace.snapshot",
        [&] { return ExportCell(op, std::move(outcomes)); });
  recorder->Count("cpu.instructions", static_cast<double>(run.instructions));
  if (!jit.empty()) {
    for (const char* name :
         {"jit.interpreted_instructions", "jit.guard_fails",
          "jit.block_entries", "jit.blocks_built"}) {
      recorder->Count(name, static_cast<double>(Lookup(jit, name)));
    }
  }
  return facts;
}

Facts RunVerifyTraced(const Op& op, OpRecorder* recorder) {
  Facts facts;
  roload::ir::Module module = Timed(recorder, "workloads.generate", [&] {
    return roload::workloads::Generate(op.run.workload);
  });
  auto build = BuildTraced(std::move(module), op.run.build, recorder, &facts);
  facts.verdict = build.ok() ? "ok" : FirstLine(build.status().ToString());
  if (build.ok()) facts.image_bytes = build->image_bytes;
  return facts;
}

// The unattacked victim at 4 harts: RunBuildSmp, one layer call at a time.
Facts RunVictimTraced(const Op& op, OpRecorder* recorder) {
  Facts facts;
  roload::ir::Module module =
      Timed(recorder, "sec.make_victim", [] { return sec::MakeVictimModule(); });
  auto build = BuildTraced(std::move(module), op.run.build, recorder, &facts);
  if (!build.ok()) {
    facts.error = build.status().ToString();
    return facts;
  }
  roload::smp::SmpConfig config;
  config.variant = op.run.variant;
  config.harts = kAttackHarts;
  auto machine = Timed(recorder, "smp.machine_init", [&] {
    return std::make_unique<roload::smp::Machine>(config);
  });
  const Status loaded = Timed(recorder, "kernel.load",
                              [&] { return machine->Load(build->image); });
  if (!loaded.ok()) {
    facts.error = loaded.ToString();
    return facts;
  }
  const roload::kernel::RunResult run =
      Timed(recorder, "smp.run", [&] { return machine->Run(); });
  const Counters counters = Timed(recorder, "trace.snapshot", [&] {
    return machine->trace().counters().Snapshot();
  });
  Timed(recorder, "smp.machine_teardown", [&] {
    machine.reset();
    return 0;
  });
  const std::uint64_t image_bytes = build->image_bytes;
  facts = FromRun(run, counters);
  facts.image_bytes = image_bytes;
  recorder->Count("smp.instructions", static_cast<double>(run.instructions));
  recorder->Count("smp.tlb_shootdowns",
                  static_cast<double>(facts.tlb_shootdowns));
  return facts;
}

}  // namespace

std::string AttackKey(sec::AttackKind kind, core::Defense defense) {
  return std::string(sec::AttackKindName(kind)) + "/" +
         std::string(core::DefenseName(defense));
}

std::map<std::string, std::string> PaperAttackTable() {
  using K = sec::AttackKind;
  using D = core::Defense;
  const std::string hijacked = "HIJACKED";
  const std::string blocked = "blocked";
  const std::string diverted = "diverted";
  std::map<std::string, std::string> table;
  // Undefended, both hijack primitives work and both reuses divert.
  table[AttackKey(K::kVtableInjection, D::kNone)] = hijacked;
  table[AttackKey(K::kVtableReuseCrossHierarchy, D::kNone)] = diverted;
  table[AttackKey(K::kFnPtrCorruptToEvil, D::kNone)] = hijacked;
  table[AttackKey(K::kFnPtrReuseSameType, D::kNone)] = diverted;
  // VCall (IV-A): per-hierarchy vtable keys block injection and
  // cross-hierarchy reuse; plain function pointers are not covered.
  table[AttackKey(K::kVtableInjection, D::kVCall)] = blocked;
  table[AttackKey(K::kVtableReuseCrossHierarchy, D::kVCall)] = blocked;
  table[AttackKey(K::kFnPtrCorruptToEvil, D::kVCall)] = hijacked;
  table[AttackKey(K::kFnPtrReuseSameType, D::kVCall)] = diverted;
  // VTint: read-only vtables block injection only.
  table[AttackKey(K::kVtableInjection, D::kVTint)] = blocked;
  table[AttackKey(K::kVtableReuseCrossHierarchy, D::kVTint)] = diverted;
  table[AttackKey(K::kFnPtrCorruptToEvil, D::kVTint)] = hijacked;
  table[AttackKey(K::kFnPtrReuseSameType, D::kVTint)] = diverted;
  // ICall (IV-B): raw-address hijacks are blocked; the unified vtable key
  // admits cross-hierarchy reuse, and same-type reuse is the residual
  // surface of V-D.
  table[AttackKey(K::kVtableInjection, D::kICall)] = blocked;
  table[AttackKey(K::kVtableReuseCrossHierarchy, D::kICall)] = diverted;
  table[AttackKey(K::kFnPtrCorruptToEvil, D::kICall)] = blocked;
  table[AttackKey(K::kFnPtrReuseSameType, D::kICall)] = diverted;
  // Label CFI blocks wrong-type targets and admits same-type ones.
  table[AttackKey(K::kVtableInjection, D::kClassicCfi)] = blocked;
  table[AttackKey(K::kVtableReuseCrossHierarchy, D::kClassicCfi)] = diverted;
  table[AttackKey(K::kFnPtrCorruptToEvil, D::kClassicCfi)] = blocked;
  table[AttackKey(K::kFnPtrReuseSameType, D::kClassicCfi)] = diverted;
  return table;
}

StatusOr<Workload> MakeWorkload(std::string_view name, std::uint64_t seed,
                                double size) {
  Workload workload;
  workload.name = std::string(name);
  if (name == "fig4_cells") {
    workload.clients = 2;
    workload.pass_seconds = 1.7;
    for (const auto& program : Suite(0.5 * size, seed)) {
      for (core::Defense defense : {core::Defense::kNone, core::Defense::kICall}) {
        workload.ops.push_back(
            ProgramOp(workload.name, program, defense, OpKind::kCell));
      }
    }
  } else if (name == "long_translated") {
    workload.pass_seconds = 3.2;
    for (const auto& program : Suite(8.0 * size, seed)) {
      Op op = ProgramOp(workload.name, program, core::Defense::kICall,
                        OpKind::kCell);
      op.run.exec = roload::cpu::ExecTier::kTranslated;
      workload.ops.push_back(std::move(op));
    }
  } else if (name == "verify_gate") {
    workload.pass_seconds = 10.0;
    for (const auto& program : Suite(0.5 * size, seed)) {
      for (core::Defense defense : kAllDefenses) {
        Op op = ProgramOp(workload.name, program, defense, OpKind::kVerify);
        op.run.build.verify = true;
        workload.ops.push_back(std::move(op));
      }
    }
  } else if (name == "smp_attack") {
    workload.pass_seconds = 3.8;
    for (sec::AttackKind kind : kAllAttacks) {
      for (core::Defense defense : kAllDefenses) {
        Op op;
        op.kind = OpKind::kAttack;
        op.name = workload.name + "/" + AttackKey(kind, defense);
        op.attack = kind;
        op.run.build.defense = defense;
        // The verdict must not depend on whose debug port carries the
        // write, so the seed is free to pick it.
        op.inject_hart =
            seed == 0 ? 0
                      : static_cast<unsigned>(
                            roload::DeriveSeed(seed, workload.ops.size()) %
                            kAttackHarts);
        workload.ops.push_back(std::move(op));
      }
    }
    for (core::Defense defense : kAllDefenses) {
      Op op;
      op.kind = OpKind::kVictim;
      op.name = workload.name + "/victim/" +
                std::string(core::DefenseName(defense));
      op.run.build.defense = defense;
      workload.ledger_ops.push_back(std::move(op));
    }
  } else {
    return Status::InvalidArgument("unknown workload: " + std::string(name));
  }
  return workload;
}

Facts RunOp(const Op& op) {
  switch (op.kind) {
    case OpKind::kCell: {
      std::vector<campaign::RunOutcome> outcomes =
          campaign::RunCampaign({op.run}, {.jobs = 1});
      const Facts facts = FromOutcome(outcomes[0]);
      ExportCell(op, std::move(outcomes));
      return facts;
    }
    case OpKind::kVerify: {
      Facts facts;
      auto build =
          core::Build(roload::workloads::Generate(op.run.workload), op.run.build);
      facts.verdict = build.ok() ? "ok" : FirstLine(build.status().ToString());
      if (build.ok()) facts.image_bytes = build->image_bytes;
      return facts;
    }
    case OpKind::kAttack:
      return FromAttack(sec::RunAttackSmp(op.attack, op.run.build.defense,
                                          kAttackHarts, op.run.variant,
                                          op.inject_hart));
    case OpKind::kVictim: {
      Facts facts;
      auto build = core::Build(sec::MakeVictimModule(), op.run.build);
      if (!build.ok()) {
        facts.error = build.status().ToString();
        return facts;
      }
      auto metrics = roload::smp::RunBuildSmp(*build, op.run.variant,
                                              kAttackHarts);
      if (!metrics.ok()) {
        facts.error = metrics.status().ToString();
        return facts;
      }
      if (!metrics->completed) facts.error = "guest did not exit normally";
      facts.image_bytes = build->image_bytes;
      facts.cycles = metrics->cycles;
      facts.instructions = metrics->instructions;
      facts.exit_code = metrics->exit_code;
      DigestInto(metrics->counters, &facts);
      facts.tlb_shootdowns = metrics->Counter("kernel.tlb_shootdowns");
      return facts;
    }
  }
  return {};
}

Facts RunOpTraced(const Op& op, OpRecorder* recorder) {
  switch (op.kind) {
    case OpKind::kCell:
      return RunCellTraced(op, recorder);
    case OpKind::kVerify:
      return RunVerifyTraced(op, recorder);
    case OpKind::kAttack: {
      const Facts facts = FromAttack(Timed(recorder, "sec.attack", [&] {
        return sec::RunAttackSmp(op.attack, op.run.build.defense, kAttackHarts,
                                 op.run.variant, op.inject_hart);
      }));
      recorder->Count("sec.roload_kills", facts.roload_kill ? 1.0 : 0.0);
      recorder->Count("smp.tlb_shootdowns",
                      static_cast<double>(facts.tlb_shootdowns));
      return facts;
    }
    case OpKind::kVictim:
      return RunVictimTraced(op, recorder);
  }
  return {};
}

Reference DeriveReference(const Workload& workload, unsigned jobs) {
  const std::vector<Op>& ops = workload.ops;
  std::vector<Expected> derived =
      campaign::ParallelMap<Expected>(ops.size(), jobs, [&](std::size_t i) {
        Expected expected;
        const Op& op = ops[i];
        if (op.kind == OpKind::kCell) {
          Op reference_op = op;
          reference_op.run.exec = roload::cpu::ExecTier::kInterp;
          const Facts facts = RunOp(reference_op);
          expected.has_sim = facts.error.empty();
          expected.image_bytes = facts.image_bytes;
          expected.cycles = facts.cycles;
          expected.instructions = facts.instructions;
          expected.exit_code = facts.exit_code;
          expected.counters_digest = facts.counters_digest;
          expected.stable_digest = facts.stable_digest;
          expected.dtlb_hits = facts.dtlb_hits;
          expected.dtlb_misses = facts.dtlb_misses;
        } else if (op.kind == OpKind::kVerify) {
          core::BuildOptions options = op.run.build;
          options.verify = false;
          auto build = core::Build(
              roload::workloads::Generate(op.run.workload), options);
          if (build.ok()) {
            expected.has_stats = true;
            expected.stats = core::Verify(*build).stats();
          }
        }
        return expected;
      });
  Reference reference;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (derived[i].has_sim || derived[i].has_stats) {
      reference.ops[ops[i].name] = derived[i];
    }
  }
  return reference;
}

std::string ReferenceToJson(const Reference& reference, std::uint64_t seed) {
  roload::JsonWriter json;
  json.BeginObject();
  json.KV("schema", "cellbench.reference.v1");
  json.KV("seed", seed);
  json.KV("tier", "interp");
  json.Key("ops").BeginObject();
  for (const auto& [name, expected] : reference.ops) {
    json.Key(name).BeginObject();
    if (expected.has_sim) {
      json.KV("image_bytes", expected.image_bytes);
      json.KV("cycles", expected.cycles);
      json.KV("instructions", expected.instructions);
      json.KV("exit_code", expected.exit_code);
      json.KV("counters_digest", Hex(expected.counters_digest));
      json.KV("stable_digest", Hex(expected.stable_digest));
      json.KV("dtlb_hits", expected.dtlb_hits);
      json.KV("dtlb_misses", expected.dtlb_misses);
    }
    if (expected.has_stats) {
      json.Key("verify_stats").BeginObject();
      ForEachStat(expected.stats, [&json](const char* key, std::uint64_t v) {
        json.KV(key, v);
      });
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str() + "\n";
}

StatusOr<Reference> LoadReference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open reference " + path);
  std::stringstream text;
  text << in.rdbuf();
  auto document = roload::ParseJson(text.str());
  if (!document.ok()) return document.status();
  const roload::JsonValue* ops = document->Find("ops");
  if (ops == nullptr || !ops->is_object()) {
    return Status::InvalidArgument(path + ": no \"ops\" object");
  }
  Reference reference;
  for (const auto& [name, entry] : ops->object) {
    Expected expected;
    auto number = [&entry](const char* key) -> double {
      const roload::JsonValue* value = entry.Find(key);
      return value != nullptr && value->is_number() ? value->number : 0.0;
    };
    if (const roload::JsonValue* digest = entry.Find("counters_digest")) {
      expected.has_sim = true;
      expected.image_bytes = static_cast<std::uint64_t>(number("image_bytes"));
      expected.cycles = static_cast<std::uint64_t>(number("cycles"));
      expected.instructions = static_cast<std::uint64_t>(number("instructions"));
      expected.exit_code = static_cast<std::int64_t>(number("exit_code"));
      expected.counters_digest = std::stoull(digest->string, nullptr, 16);
      const roload::JsonValue* stable = entry.Find("stable_digest");
      expected.stable_digest =
          stable != nullptr ? std::stoull(stable->string, nullptr, 16) : 0;
      expected.dtlb_hits = static_cast<std::uint64_t>(number("dtlb_hits"));
      expected.dtlb_misses = static_cast<std::uint64_t>(number("dtlb_misses"));
    }
    if (const roload::JsonValue* stats = entry.Find("verify_stats")) {
      expected.has_stats = true;
      ForEachStat(expected.stats, [stats](const char* key, std::uint64_t& v) {
        const roload::JsonValue* value = stats->Find(key);
        v = value != nullptr ? static_cast<std::uint64_t>(value->number) : 0;
      });
    }
    reference.ops[name] = expected;
  }
  reference.attacks = PaperAttackTable();
  return reference;
}

std::vector<std::string> Check(const Op& op, const Facts& facts,
                               const Reference& reference,
                               std::string* divergence) {
  std::vector<std::string> bad;
  auto expect = [&bad](const char* what, auto want, auto got) {
    if (want != got) {
      std::ostringstream line;
      line << what << ": expected " << want << ", got " << got;
      bad.push_back(line.str());
    }
  };
  if (!facts.error.empty()) bad.push_back("error: " + facts.error);
  switch (op.kind) {
    case OpKind::kCell: {
      auto it = reference.ops.find(op.name);
      if (it == reference.ops.end() || !it->second.has_sim) {
        bad.push_back("no reference entry");
        break;
      }
      const Expected& want = it->second;
      expect("image_bytes", want.image_bytes, facts.image_bytes);
      expect("instructions", want.instructions, facts.instructions);
      expect("exit_code", want.exit_code, facts.exit_code);
      const auto d_miss = static_cast<std::int64_t>(facts.dtlb_misses -
                                                    want.dtlb_misses);
      const auto d_hit =
          static_cast<std::int64_t>(facts.dtlb_hits - want.dtlb_hits);
      const auto d_cycles =
          static_cast<std::int64_t>(facts.cycles - want.cycles);
      if (op.run.exec == roload::cpu::ExecTier::kTranslated &&
          facts.stable_digest == want.stable_digest && d_miss != 0 &&
          d_hit == -d_miss && d_cycles == d_miss * DtlbWalkCycles()) {
        *divergence = roload::StrFormat(
            "translated tier resolves D-TLB lookups differently from the "
            "interpreter (%+lld misses, %+lld cycles)",
            static_cast<long long>(d_miss), static_cast<long long>(d_cycles));
        break;
      }
      expect("cycles", want.cycles, facts.cycles);
      expect("counters_digest", want.counters_digest, facts.counters_digest);
      break;
    }
    case OpKind::kVerify: {
      expect("verdict", std::string("ok"), facts.verdict);
      auto it = reference.ops.find(op.name);
      if (facts.has_stats && it != reference.ops.end() &&
          it->second.has_stats) {
        ForEachStat(it->second.stats,
                    [&](const char* key, const std::uint64_t& want) {
                      std::uint64_t got = 0;
                      ForEachStat(facts.stats, [&](const char* k,
                                                   const std::uint64_t& v) {
                        if (std::string_view(k) == key) got = v;
                      });
                      expect(key, want, got);
                    });
      }
      break;
    }
    case OpKind::kAttack: {
      auto it = reference.attacks.find(AttackKey(op.attack, op.run.build.defense));
      expect("outcome",
             it == reference.attacks.end() ? std::string("?") : it->second,
             facts.outcome);
      break;
    }
    case OpKind::kVictim:
      break;
  }
  return bad;
}

std::vector<std::string> CompareTwin(const Facts& untraced,
                                     const Facts& traced) {
  std::vector<std::string> bad;
  auto same = [&bad](const char* what, auto a, auto b) {
    if (a != b) {
      std::ostringstream line;
      line << "traced twin differs in " << what << ": " << a << " vs " << b;
      bad.push_back(line.str());
    }
  };
  same("error", untraced.error, traced.error);
  same("image_bytes", untraced.image_bytes, traced.image_bytes);
  same("cycles", untraced.cycles, traced.cycles);
  same("instructions", untraced.instructions, traced.instructions);
  same("exit_code", untraced.exit_code, traced.exit_code);
  same("counters_digest", untraced.counters_digest, traced.counters_digest);
  same("verdict", untraced.verdict, traced.verdict);
  same("outcome", untraced.outcome, traced.outcome);
  same("classification", untraced.classification, traced.classification);
  return bad;
}

}  // namespace cellbench
