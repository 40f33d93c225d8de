#include "campaign/spec.h"

#include "support/rng.h"

namespace roload::campaign {

std::string_view VariantName(core::SystemVariant variant) {
  switch (variant) {
    case core::SystemVariant::kBaseline:
      return "baseline";
    case core::SystemVariant::kProcessorModified:
      return "proc";
    case core::SystemVariant::kFullRoload:
      return "full";
  }
  return "?";
}

bool ParseVariant(std::string_view name, core::SystemVariant* variant) {
  for (core::SystemVariant candidate :
       {core::SystemVariant::kBaseline, core::SystemVariant::kProcessorModified,
        core::SystemVariant::kFullRoload}) {
    if (name == VariantName(candidate)) {
      *variant = candidate;
      return true;
    }
  }
  return false;
}

bool ParseDefense(std::string_view name, core::Defense* defense) {
  for (core::Defense candidate : core::kAllDefenses) {
    if (name == core::DefenseName(candidate)) {
      *defense = candidate;
      return true;
    }
  }
  return false;
}

RunConfig ForDefense(core::Defense defense) {
  RunConfig config;
  config.label = std::string(core::DefenseName(defense));
  config.build.defense = defense;
  return config;
}

std::vector<RunSpec> Expand(const CampaignSpec& spec) {
  // Any non-default tier axis grows the "/<tier>" suffix on every cell,
  // keeping same-grid tiers distinguishable while the default tier alone
  // reproduces the historical names exactly.
  const bool name_execs = spec.execs != CampaignSpec{}.execs;
  std::vector<RunSpec> runs;
  runs.reserve(spec.workloads.size() * spec.configs.size() *
               spec.variants.size() * spec.harts.size() * spec.execs.size());
  for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
    workloads::WorkloadSpec workload = spec.workloads[w];
    if (spec.seed != 0) workload.seed = DeriveSeed(spec.seed, w);
    for (const RunConfig& config : spec.configs) {
      for (core::SystemVariant variant : spec.variants) {
        for (unsigned harts : spec.harts) {
          for (cpu::ExecTier exec : spec.execs) {
            RunSpec run;
            run.name = workload.name + "/" + config.label + "/" +
                       std::string(VariantName(variant));
            // Single-hart runs keep their historical names (the default
            // {1} axis expands to exactly the pre-SMP grid); only true
            // SMP cells grow the "/h<N>" suffix.
            if (harts != 1) (run.name += "/h") += std::to_string(harts);
            if (name_execs) (run.name += "/") += cpu::ExecTierName(exec);
            run.workload = workload;
            run.build = config.build;
            run.variant = variant;
            run.build_only = config.build_only;
            run.max_instructions = spec.max_instructions;
            run.harts = harts;
            run.exec = exec;
            run.trace.profile = spec.profile;
            run.trace.jit = spec.jit;
            runs.push_back(std::move(run));
          }
        }
      }
    }
  }
  return runs;
}

}  // namespace roload::campaign
