// Shared helpers for the table/figure reproduction binaries. The grids,
// their overheads and the paper's claims live in src/campaign; what
// remains is table cosmetics, the claim gate, the RPC under-load rows and
// the BENCH_<name>.json writer.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
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

inline void PrintRule(int width = 100) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

// Looks up one cycle-attribution bucket of a profiled run (0 when the run
// was not profiled — buckets are recorded in full whenever they are).
inline std::uint64_t ProfileBucket(const core::RunMetrics& metrics,
                                   std::string_view bucket) {
  for (const auto& [name, cycles] : metrics.profile) {
    if (name == bucket) return cycles;
  }
  return 0;
}

// Prints and records the Fig 3/4 overhead decomposition for one hardened
// run vs its base: how much of the extra time is the ld.ro path itself vs
// second-order TLB-walk / cache-miss changes. Keys land in the session as
// `<prefix>.delta.<bucket>` (signed percent of base cycles).
inline void RecordProfileDelta(trace::TelemetrySession* session,
                               const std::string& prefix,
                               const core::RunMetrics& base,
                               const core::RunMetrics& hardened) {
  static constexpr std::string_view kBuckets[] = {
      "compute", "roload_load", "icache_miss", "dcache_miss",
      "itlb_walk", "dtlb_walk", "trap", "syscall"};
  const double base_cycles = static_cast<double>(base.cycles);
  if (base_cycles == 0) return;
  std::printf("    %-22s", (prefix + " Δcycles%:").c_str());
  for (std::string_view bucket : kBuckets) {
    const double delta_pct =
        (static_cast<double>(ProfileBucket(hardened, bucket)) -
         static_cast<double>(ProfileBucket(base, bucket))) /
        base_cycles * 100.0;
    session->Record(prefix + ".delta." + std::string(bucket), delta_pct);
    if (delta_pct != 0.0) {
      std::printf(" %.*s %+0.3f", static_cast<int>(bucket.size()),
                  bucket.data(), delta_pct);
    }
  }
  std::printf("\n");
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
  const std::string defenses[] = {load.configs[1].label,
                                  load.configs[2].label};
  std::printf("\nUnder load: RPC dispatch server, requests spread across "
              "harts\n\n");
  std::printf("%-24s | %12s | %8s %8s\n", workload.c_str(), "base cycles",
              (defenses[0] + "%").c_str(), (defenses[1] + "%").c_str());
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
      pct[i] = core::OverheadPercent(static_cast<double>(base),
                                     static_cast<double>(cycles(defenses[i])));
      std::string key = defenses[i];
      for (char& ch : key) ch = static_cast<char>(std::tolower(ch));
      session->Record(prefix + key + "_time_pct", pct[i]);
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

}  // namespace roload::bench
