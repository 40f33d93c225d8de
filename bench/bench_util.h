// Shared helpers for the table/figure reproduction binaries. The grids,
// their overheads, tables and the paper's claims live in src/campaign;
// what remains is the figure-bench driver, the claim gate, the RPC
// under-load rows and the BENCH_<name>.json writer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/env.h"
#include "campaign/figures.h"
#include "campaign/runner.h"
#include "core/toolchain.h"
#include "trace/session.h"
#include "workloads/spec_like.h"

namespace roload::bench {

// Prints every faulting run of a campaign; returns true when any faulted
// (benches exit nonzero — they have no meaningful recovery).
inline bool ReportFaults(const campaign::CampaignResult& result) {
  bool any = false;
  for (const campaign::RunOutcome& outcome : result.outcomes()) {
    if (outcome.ok()) continue;
    std::fprintf(stderr, "bench run %s failed: %s\n", outcome.name.c_str(),
                 outcome.FailureText().c_str());
    any = true;
  }
  return any;
}

inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

// Records a figure's values and the paper's ("paper.*") in `session`,
// prints how many of the figure's claims hold and each failed claim by id;
// false when any fails (the bench then exits 1). Recording a key again
// keeps its value, so two figures may gate on one value set.
inline bool GateClaims(campaign::Figure figure,
                       const campaign::FigureValues& values,
                       trace::TelemetrySession* session) {
  for (const auto& [key, value] : values) session->Record(key, value);
  for (const auto& [key, value] : campaign::PaperValues(figure)) {
    session->Record(key, value);
  }
  const auto failed = campaign::FailedClaims(figure, values);
  for (const campaign::Claim* claim : failed) {
    std::fprintf(stderr, "claim FAILED: %s\n",
                 campaign::DescribeClaim(*claim, values).c_str());
  }
  const std::size_t total = campaign::ClaimsOf(figure).size();
  std::printf("%s: %zu of %zu paper claims hold\n",
              std::string(campaign::FigureSection(figure)).c_str(),
              total - failed.size(), total);
  return failed.empty();
}

// Under load: a figure's two defenses (configs 1 and 2 of `grid`) on the
// RPC dispatch server, requests spread across 1/2/4 harts. The paper
// measures batch SPEC runs only; every request here takes a vcall-heavy
// handler behind an indirect-call middleware slot on its own hart, behind
// the shared L2. Prints one row per hart count and records
// "underload.h<N>.base_cycles" and "underload.h<N>.<defense>_time_pct";
// false when a run faulted.
inline bool RunUnderLoad(const campaign::CampaignSpec& grid, double scale,
                         trace::TelemetrySession* session) {
  campaign::CampaignSpec load;
  load.name = grid.name + "_underload";
  load.workloads = {workloads::RpcServerWorkload(std::max<std::uint64_t>(
      200, static_cast<std::uint64_t>(1200 * scale)))};
  load.configs = grid.configs;
  load.harts = {1, 2, 4};
  const campaign::CampaignResult under =
      campaign::Run(load, {.jobs = campaign::JobsFromEnv()});
  if (ReportFaults(under)) return false;

  const std::string& workload = load.workloads.front().name;
  const std::vector<campaign::FigureColumn> defenses =
      campaign::FigureColumns(load);
  std::printf("\nUnder load: RPC dispatch server, requests spread across "
              "harts\n\n");
  std::printf("%-24s | %12s | %8s %8s\n", workload.c_str(), "base cycles",
              (defenses[0].config + "%").c_str(),
              (defenses[1].config + "%").c_str());
  PrintRule(64);
  for (unsigned harts : load.harts) {
    auto cycles = [&](const std::string& config) {
      return under
          .MetricsOf(workload, config, core::SystemVariant::kFullRoload, harts)
          .cycles;
    };
    const std::uint64_t base = cycles("none");
    const std::string prefix = "underload.h" + std::to_string(harts) + ".";
    session->Record(prefix + "base_cycles", base);
    double pct[2];
    for (int i = 0; i < 2; ++i) {
      pct[i] = core::OverheadPercent(
          static_cast<double>(base),
          static_cast<double>(cycles(defenses[i].config)));
      session->Record(prefix + defenses[i].name + "_time_pct", pct[i]);
    }
    std::printf("%-24s | %12llu | %8.3f %8.3f\n",
                ("harts=" + std::to_string(harts)).c_str(),
                static_cast<unsigned long long>(base), pct[0], pct[1]);
  }
  return true;
}

// Writes the session as BENCH_<name>.json in the working directory — the
// machine-readable sibling of the table printed on stdout, consumed by
// the perf-trajectory tooling. Failure to write is reported but does not
// fail the bench (the text output already happened).
inline void WriteBenchJson(const trace::TelemetrySession& session) {
  const std::string path = "BENCH_" + session.name() + ".json";
  if (Status status = session.WriteJson(path); !status.ok()) {
    std::fprintf(stderr, "bench: %s\n", status.ToString().c_str());
    return;
  }
  std::printf("\nwrote %s\n", path.c_str());
}

// Records what a figure's bench keeps per workload beside the claim
// values: the base column ("<w>.base_cycles", or "<w>.base_kib" for a
// memory table), and on a defense grid the first hardened config's ld.ro
// loads and key checks (for memory, its image bytes) and, when the grid
// was profiled, every hardened column's Δcycles buckets
// ("<w>.<column>.delta.<bucket>").
inline void RecordWorkloadKeys(campaign::Figure figure,
                               const campaign::CampaignResult& result,
                               trace::TelemetrySession* session) {
  const campaign::CampaignSpec& grid = result.spec();
  const bool memory = campaign::TableSpecOf(figure).base_kib;
  const std::vector<campaign::FigureColumn> columns =
      campaign::FigureColumns(grid);
  for (const workloads::WorkloadSpec& workload : grid.workloads) {
    const std::string& name = workload.name;
    const core::RunMetrics& base = result.MetricsOf(
        name, grid.configs.front().label, grid.variants.front());
    session->Record(name + (memory ? ".base_kib" : ".base_cycles"),
                    memory ? base.peak_mem_kib : base.cycles);
    if (grid.variants.size() > 1) continue;  // no hardened config
    const std::string first = name + "." + columns.front().name;
    const core::RunMetrics& run =
        result.MetricsOf(name, columns.front().config);
    if (memory) {
      session->Record(first + "_image_bytes", run.image_bytes);
      continue;
    }
    session->Record(first + "_roload_loads", run.roload_loads);
    session->Record(first + "_key_checks", run.Counter("tlb.d.key_check"));
    for (std::size_t c = 0; grid.profile && c < columns.size(); ++c) {
      for (const auto& [bucket, pct] : campaign::ProfileDeltas(
               base, result.MetricsOf(name, columns[c].config))) {
        session->Record(name + "." + columns[c].name + ".delta." + bucket,
                        pct);
      }
    }
  }
}

// A figure bench: runs the grid `figures` share (the first one's
// FigureGrid) at ROLOAD_BENCH_SCALE, default `default_scale`, and prints,
// records and gates on each figure in turn. A defense grid is profiled
// under ROLOAD_BENCH_PROFILE and, after its first figure, runs under load;
// a system grid (§V-B) records whether it stayed backward compatible.
// Writes BENCH_<grid>.json and returns the exit code: 1 when a run faulted
// or a claim failed.
inline int RunFigureBench(std::initializer_list<campaign::Figure> figures,
                          double default_scale) {
  const double scale = campaign::ScaleFromEnv(default_scale);
  campaign::CampaignSpec grid = campaign::FigureGrid(*figures.begin(), scale);
  const bool by_variant = grid.variants.size() > 1;
  grid.profile = !by_variant && campaign::ProfileFromEnv();
  const campaign::CampaignResult result =
      campaign::Run(grid, {.jobs = campaign::JobsFromEnv()});
  if (ReportFaults(result)) return 1;
  const campaign::FigureValues values = campaign::FigureValuesOf(result);

  trace::TelemetrySession session(grid.name);
  result.FillSession(&session);
  session.Record("scale", scale);
  bool claims_hold = true;
  for (campaign::Figure figure : figures) {
    const bool first = figure == *figures.begin();
    if (!first) std::printf("\n");
    std::fputs(campaign::FigureTable(figure, result, scale).c_str(), stdout);
    RecordWorkloadKeys(figure, result, &session);
    claims_hold &= GateClaims(figure, values, &session);
    if (first && !by_variant && !RunUnderLoad(grid, scale, &session)) {
      return 1;
    }
  }
  if (by_variant) {
    session.Record("backward_compatible", claims_hold ? "yes" : "no");
  }
  WriteBenchJson(session);
  return claims_hold ? 0 : 1;
}

}  // namespace roload::bench
