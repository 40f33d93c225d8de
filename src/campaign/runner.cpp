#include "campaign/runner.h"

#include "core/toolchain.h"

namespace roload::campaign {
namespace {

RunOutcome ExecuteOne(const RunSpec& spec, std::size_t index) {
  RunOutcome outcome;
  outcome.name = spec.name;
  outcome.index = index;
  outcome.build_only = spec.build_only;

  const ir::Module module = workloads::Generate(spec.workload);
  auto build = core::Build(module, spec.build);
  if (!build.ok()) {
    outcome.status = build.status();
    return outcome;
  }
  outcome.build.image_bytes = build->image_bytes;
  outcome.build.code_bytes = build->code_bytes;
  outcome.build.roload_instructions = build->codegen.roload_instructions;
  outcome.build.extra_addi_for_roload =
      build->codegen.extra_addi_for_roload;
  outcome.build.cfi_id_words = build->codegen.cfi_id_words;
  if (spec.build_only) return outcome;

  auto metrics = core::RunBuild(*build, spec.variant, spec.max_instructions,
                                spec.trace, spec.exec, spec.harts);
  if (!metrics.ok()) {
    outcome.status = metrics.status();
    return outcome;
  }
  outcome.metrics = *std::move(metrics);
  return outcome;
}

}  // namespace

std::string RunOutcome::FailureText() const {
  if (!status.ok()) return status.ToString();
  if (!build_only && !metrics.completed) {
    if (metrics.roload_violation) return "killed: ROLoad violation";
    return "did not complete (killed or instruction limit)";
  }
  return "ok";
}

std::vector<RunOutcome> RunCampaign(const std::vector<RunSpec>& specs,
                                    const RunnerOptions& options) {
  return ParallelMap<RunOutcome>(
      specs.size(), options.jobs,
      [&specs](std::size_t i) { return ExecuteOne(specs[i], i); });
}

CampaignResult::CampaignResult(CampaignSpec spec,
                               std::vector<RunOutcome> outcomes,
                               unsigned jobs)
    : spec_(std::move(spec)), outcomes_(std::move(outcomes)), jobs_(jobs) {
  for (const RunOutcome& outcome : outcomes_) {
    if (!outcome.ok() || outcome.build_only) continue;
    auto snapshot = outcome.metrics.counters;
    for (const auto& [bucket, cycles] : outcome.metrics.profile) {
      snapshot.emplace_back("profile." + bucket, cycles);
    }
    for (const auto& [name, value] : outcome.metrics.jit_counters) {
      snapshot.emplace_back(name, value);
    }
    merger_.Add(outcome.name, snapshot);
  }
}

const RunOutcome* CampaignResult::Find(std::string_view name) const {
  for (const RunOutcome& outcome : outcomes_) {
    if (outcome.name == name) return &outcome;
  }
  return nullptr;
}

const RunOutcome* CampaignResult::Find(std::string_view workload,
                                       std::string_view config,
                                       core::SystemVariant variant,
                                       unsigned harts) const {
  std::string name = std::string(workload) + "/" + std::string(config) + "/" +
                     std::string(VariantName(variant));
  if (harts != 1) name += "/h" + std::to_string(harts);
  return Find(name);
}

const core::RunMetrics& CampaignResult::MetricsOf(std::string_view workload,
                                                  std::string_view config,
                                                  core::SystemVariant variant,
                                                  unsigned harts) const {
  const RunOutcome* outcome = Find(workload, config, variant, harts);
  if (outcome == nullptr || !outcome->ok()) {
    FatalError("campaign: no clean run " + std::string(workload) + "/" +
               std::string(config) + "/" + std::string(VariantName(variant)) +
               " on " + std::to_string(harts) + " hart(s)");
  }
  return outcome->metrics;
}

std::size_t CampaignResult::faults() const {
  std::size_t faults = 0;
  for (const RunOutcome& outcome : outcomes_) {
    if (!outcome.ok()) ++faults;
  }
  return faults;
}

void CampaignResult::FillSession(trace::TelemetrySession* session) const {
  session->set_schema("roload.campaign.v1");
  session->Record("campaign.jobs", static_cast<std::uint64_t>(jobs_));
  session->Record("campaign.runs",
                  static_cast<std::uint64_t>(outcomes_.size()));
  session->Record("campaign.faults", static_cast<std::uint64_t>(faults()));
  for (const RunOutcome& outcome : outcomes_) {
    const std::string prefix = "run." + outcome.name;
    session->Record(prefix + ".ok",
                    static_cast<std::uint64_t>(outcome.ok() ? 1 : 0));
    if (!outcome.ok()) {
      session->Record(prefix + ".error", outcome.FailureText());
      continue;
    }
    session->Record(prefix + ".image_bytes", outcome.build.image_bytes);
    if (outcome.build_only) {
      session->Record(prefix + ".code_bytes", outcome.build.code_bytes);
      continue;
    }
    session->Record(prefix + ".cycles", outcome.metrics.cycles);
    session->Record(prefix + ".instructions", outcome.metrics.instructions);
    session->Record(prefix + ".roload_loads", outcome.metrics.roload_loads);
    session->Record(prefix + ".peak_mem_kib", outcome.metrics.peak_mem_kib);
  }
  session->set_merger(&merger_);
}

CampaignResult Run(const CampaignSpec& spec, const RunnerOptions& options) {
  std::vector<RunSpec> runs = Expand(spec);
  const unsigned jobs = ResolveJobs(options.jobs, runs.size());
  std::vector<RunOutcome> outcomes = RunCampaign(runs, options);
  return CampaignResult(spec, std::move(outcomes), jobs);
}

}  // namespace roload::campaign
