// Declarative run grids. Every figure/ablation bench used to hand-roll
// the same nested loop — for each workload, for each defense (× variant),
// build and run one core::System — around bench_util.h. A CampaignSpec
// states that grid once (workload × build config × system variant ×
// scale × trace config); Expand() turns it into the flat, deterministic
// run matrix the executor (runner.h) walks, and the benches shrink to a
// spec plus a table formatter.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/toolchain.h"
#include "trace/hub.h"
#include "workloads/spec_like.h"

namespace roload::campaign {

// Short CLI/table names for the three system variants of Section V-B:
// "baseline", "proc", "full". ParseVariant accepts exactly these.
std::string_view VariantName(core::SystemVariant variant);
bool ParseVariant(std::string_view name, core::SystemVariant* variant);

// Defense names as printed by core::DefenseName (case-sensitive:
// "none", "VCall", "VTint", "ICall", "CFI").
bool ParseDefense(std::string_view name, core::Defense* defense);

// One column of the grid: a labelled build configuration. Usually just a
// defense, but sweeps can vary any BuildOptions knob under its own label
// (ablation_keys labels VCall key-group counts "VCall/g4", ...).
struct RunConfig {
  std::string label;
  core::BuildOptions build;
  // Build-only configs stop after core::Build (code-size/instrumentation
  // sweeps like ablation_addi); the outcome carries BuildStats only.
  bool build_only = false;
};

// The config for a plain defense, labelled with its DefenseName.
RunConfig ForDefense(core::Defense defense);

// One fully-resolved run of the matrix.
struct RunSpec {
  std::string name;  // "<workload>/<config label>/<variant>", unique
  workloads::WorkloadSpec workload;
  core::BuildOptions build;
  core::SystemVariant variant = core::SystemVariant::kFullRoload;
  bool build_only = false;
  std::uint64_t max_instructions = 1ull << 34;
  // Hart count of the run's core::System; >= 2 appends "/h<N>" to the
  // run name.
  unsigned harts = 1;
  // Host execute tier for the run. All three tiers retire bit-identical
  // cycles and counters, so this axis only changes host speed — it exists
  // so grids can cross-check the tiers against each other and so heavy
  // sweeps can opt into translation.
  cpu::ExecTier exec = cpu::ExecTier::kFast;
  trace::TraceConfig trace;
};

// The declarative grid. Expansion order is workload-major, then config,
// then variant — the order the old serial bench loops used, so tables
// and telemetry keys keep their historical order.
struct CampaignSpec {
  std::string name = "campaign";
  std::vector<workloads::WorkloadSpec> workloads;
  std::vector<RunConfig> configs;
  std::vector<core::SystemVariant> variants = {
      core::SystemVariant::kFullRoload};
  bool profile = false;
  // Translation-tier introspection for every run (TraceConfig::jit):
  // collect per-superblock telemetry and aggregate the "jit.*" counters
  // through the campaign merger. Only runs on the translated tier produce
  // nonzero values; other tiers stay untouched.
  bool jit = false;
  std::uint64_t max_instructions = 1ull << 34;
  // The hart-count axis (innermost). The default {1} leaves every run on
  // the single-hart path and every run name unchanged; entries >= 2 run
  // on an SMP machine and are named "<...>/h<N>".
  std::vector<unsigned> harts = {1};
  // The execute-tier axis (innermost, below harts). The default {kFast}
  // keeps every run on the fast-path tier with unchanged names; any other
  // set appends "/<tier name>" to each run name so interp/fast/translated
  // cells of the same cross-check grid stay distinguishable.
  std::vector<cpu::ExecTier> execs = {cpu::ExecTier::kFast};
  // 0 keeps each workload's own seed — the default, under which the
  // expanded grid reproduces the committed figure tables bit-identically.
  // Nonzero derives a distinct per-run workload seed through
  // support::DeriveSeed(seed, run_index) for decorrelated sweeps.
  std::uint64_t seed = 0;
};

// Expands the grid into the flat run matrix (workload-major). Run names
// are "<workload>/<config label>/<variant short name>".
std::vector<RunSpec> Expand(const CampaignSpec& spec);

}  // namespace roload::campaign
