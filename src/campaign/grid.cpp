#include "campaign/grid.h"

#include <string>

#include "campaign/env.h"
#include "support/strings.h"

namespace roload::campaign {
namespace {

Status ParseWorkloads(std::string_view value, double scale,
                      CampaignSpec* spec) {
  spec->workloads.clear();
  if (value == "all") {
    spec->workloads = workloads::SpecCint2006Suite(scale);
    return Status::Ok();
  }
  if (value == "cpp") {
    spec->workloads = workloads::SpecCppSubset(scale);
    return Status::Ok();
  }
  const auto suite = workloads::SpecCint2006Suite(scale);
  for (std::string_view name : SplitString(value, ',')) {
    bool found = false;
    if (name == "rpc_server") {
      // The SMP traffic workload: `scale` multiplies the request count.
      const double requests = 600.0 * scale;
      spec->workloads.push_back(workloads::RpcServerWorkload(
          requests < 64 ? 64 : static_cast<std::uint64_t>(requests)));
      found = true;
    }
    for (const workloads::WorkloadSpec& candidate : suite) {
      if (found) break;
      if (candidate.name == name) {
        spec->workloads.push_back(candidate);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("unknown workload: " +
                                     std::string(name));
    }
  }
  return Status::Ok();
}

Status ParseDefenses(std::string_view value, CampaignSpec* spec) {
  spec->configs.clear();
  for (std::string_view name : SplitString(value, ',')) {
    core::Defense defense;
    if (!ParseDefense(name, &defense)) {
      return Status::InvalidArgument("unknown defense: " + std::string(name));
    }
    spec->configs.push_back(ForDefense(defense));
  }
  return Status::Ok();
}

Status ParseVariants(std::string_view value, CampaignSpec* spec) {
  spec->variants.clear();
  for (std::string_view name : SplitString(value, ',')) {
    core::SystemVariant variant;
    if (!ParseVariant(name, &variant)) {
      return Status::InvalidArgument("unknown variant: " + std::string(name));
    }
    spec->variants.push_back(variant);
  }
  return Status::Ok();
}

}  // namespace

Status ParseGrid(std::string_view grid, double default_scale,
                 CampaignSpec* spec) {
  double scale = default_scale;
  // First pass: scale, because the workload axis is generated at a scale.
  for (std::string_view field : SplitString(grid, ';')) {
    if (!StartsWith(field, "scale=")) continue;
    const auto parsed = ParseScale(field.substr(6));
    if (!parsed) {
      return Status::InvalidArgument("bad scale: " + std::string(field));
    }
    scale = *parsed;
  }

  if (spec->workloads.empty()) {
    spec->workloads = workloads::SpecCint2006Suite(scale);
  }
  if (spec->configs.empty()) {
    spec->configs = {ForDefense(core::Defense::kNone)};
  }

  for (std::string_view field : SplitString(grid, ';')) {
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("grid field is not key=value: " +
                                     std::string(field));
    }
    const std::string_view key = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    if (key == "workloads") {
      ROLOAD_RETURN_IF_ERROR(ParseWorkloads(value, scale, spec));
    } else if (key == "defenses") {
      ROLOAD_RETURN_IF_ERROR(ParseDefenses(value, spec));
    } else if (key == "variants") {
      ROLOAD_RETURN_IF_ERROR(ParseVariants(value, spec));
    } else if (key == "scale") {
      // consumed by the first pass
    } else if (key == "seed") {
      const auto seed = ParseInt(value);
      if (!seed || *seed < 0) {
        return Status::InvalidArgument("bad seed: " + std::string(field));
      }
      spec->seed = static_cast<std::uint64_t>(*seed);
    } else if (key == "max-instructions") {
      const auto limit = ParseInt(value);
      if (!limit || *limit <= 0) {
        return Status::InvalidArgument("bad max-instructions: " +
                                       std::string(field));
      }
      spec->max_instructions = static_cast<std::uint64_t>(*limit);
    } else if (key == "harts") {
      spec->harts.clear();
      for (std::string_view entry : SplitString(value, ',')) {
        const auto harts = ParseInt(entry);
        if (!harts || *harts <= 0 || *harts > 64) {
          return Status::InvalidArgument("bad harts: " + std::string(field));
        }
        spec->harts.push_back(static_cast<unsigned>(*harts));
      }
    } else if (key == "exec") {
      spec->execs.clear();
      for (std::string_view entry : SplitString(value, ',')) {
        const auto tier = cpu::ParseExecTier(entry);
        if (!tier) {
          return Status::InvalidArgument("bad exec tier: " +
                                         std::string(field));
        }
        spec->execs.push_back(*tier);
      }
      if (spec->execs.empty()) {
        return Status::InvalidArgument("empty exec axis: " +
                                       std::string(field));
      }
    } else if (key == "profile") {
      const auto parsed = ParseSwitch(value);
      if (!parsed) {
        return Status::InvalidArgument("bad profile switch: " +
                                       std::string(field));
      }
      spec->profile = *parsed;
    } else if (key == "jit") {
      const auto parsed = ParseSwitch(value);
      if (!parsed) {
        return Status::InvalidArgument("bad jit switch: " +
                                       std::string(field));
      }
      spec->jit = *parsed;
    } else {
      return Status::InvalidArgument("unknown grid key: " + std::string(key));
    }
  }
  return Status::Ok();
}

}  // namespace roload::campaign
