// The campaign executor: runs an expanded grid of independent
// core::Systems across a host thread pool. Simulated results are
// bit-identical to serial execution — every run builds its own module,
// image and System, and the simulator holds no global mutable state —
// so parallelism only buys wall-clock (the differential test in
// tests/test_campaign.cpp pins this down). One faulting run reports its
// status in its outcome slot instead of aborting the grid.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// ResolveJobs + ParallelMap live in campaign/parallel.h (header-only, no
// campaign deps) so non-bench callers — the parallel per-function binary
// verifier — can reuse the pool discipline without linking this library.
#include "campaign/parallel.h"
#include "campaign/spec.h"
#include "trace/merge.h"
#include "trace/session.h"

namespace roload::campaign {

// Static instrumentation/code-size numbers of one build, available even
// for build-only runs.
struct BuildStats {
  std::uint64_t image_bytes = 0;
  std::uint64_t code_bytes = 0;
  std::uint64_t roload_instructions = 0;
  std::uint64_t extra_addi_for_roload = 0;
  std::uint64_t cfi_id_words = 0;
};

struct RunOutcome {
  std::string name;
  std::size_t index = 0;  // position in the expanded grid
  // Build or load error; Ok for runs that executed (see metrics.completed
  // for whether the guest exited normally).
  Status status = Status::Ok();
  bool build_only = false;
  BuildStats build;
  core::RunMetrics metrics;  // default-constructed for build-only runs

  // A run counts as clean when it built and (unless build-only) the guest
  // ran to a normal exit.
  bool ok() const { return status.ok() && (build_only || metrics.completed); }
  // One-line failure description for table footers and logs.
  std::string FailureText() const;
};

struct RunnerOptions {
  unsigned jobs = 0;  // 0 = one worker per hardware thread
};

// Executes every spec, in parallel up to `options.jobs`, returning
// outcomes in spec order. Never aborts on a faulting run.
std::vector<RunOutcome> RunCampaign(const std::vector<RunSpec>& specs,
                                    const RunnerOptions& options = {});

// A finished campaign: the outcomes plus the cross-run counter merge and
// the roload.campaign.v1 telemetry. Keeps the spec for labelling.
class CampaignResult {
 public:
  CampaignResult(CampaignSpec spec, std::vector<RunOutcome> outcomes,
                 unsigned jobs);

  const CampaignSpec& spec() const { return spec_; }
  const std::vector<RunOutcome>& outcomes() const { return outcomes_; }
  unsigned jobs() const { return jobs_; }

  const RunOutcome* Find(std::string_view name) const;
  const RunOutcome* Find(std::string_view workload, std::string_view config,
                         core::SystemVariant variant =
                             core::SystemVariant::kFullRoload,
                         unsigned harts = 1) const;
  // The metrics of one clean run; aborts when the run is missing or
  // faulted (callers gate on faults() first, so this only trips on a label
  // typo).
  const core::RunMetrics& MetricsOf(
      std::string_view workload, std::string_view config,
      core::SystemVariant variant = core::SystemVariant::kFullRoload,
      unsigned harts = 1) const;

  std::size_t faults() const;
  bool all_ok() const { return faults() == 0; }

  // Counters of every clean run (plus its cycle-attribution buckets as
  // "profile.<bucket>" when profiled), merged across the campaign.
  const trace::CounterMerger& merger() const { return merger_; }

  // Campaign-level telemetry: switches `session` to roload.campaign.v1,
  // records per-run rows (run.<name>.cycles/instructions/...) and the
  // fault count, and attaches the merger (this CampaignResult must
  // outlive the session's ToJson/WriteJson calls).
  void FillSession(trace::TelemetrySession* session) const;

 private:
  CampaignSpec spec_;
  std::vector<RunOutcome> outcomes_;
  unsigned jobs_ = 1;
  trace::CounterMerger merger_;
};

// Expand + RunCampaign + merge in one call — what the benches use.
CampaignResult Run(const CampaignSpec& spec, const RunnerOptions& options = {});

}  // namespace roload::campaign
