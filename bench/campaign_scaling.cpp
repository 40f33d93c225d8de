// Campaign executor scaling: the same grid at --jobs 1 and --jobs N must
// produce bit-identical simulated results (every run owns its System; the
// simulator has no global mutable state), differing only in host
// wall-clock. This bench measures both and hard-fails on any divergence —
// it is the executable form of the determinism contract in
// src/campaign/runner.h. The recorded speedup depends on the host's core
// count; on a single-core runner it is ~1.0 by construction.
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "campaign/spec.h"

using namespace roload;

namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

int main() {
  const double scale = campaign::ScaleFromEnv(0.2);
  const unsigned hw = std::thread::hardware_concurrency();
  unsigned jobs = campaign::JobsFromEnv();
  if (jobs == 0) jobs = hw == 0 ? 1 : hw;

  campaign::CampaignSpec grid;
  grid.name = "campaign_scaling";
  grid.workloads = workloads::SpecCppSubset(scale);
  grid.configs = {campaign::ForDefense(core::Defense::kNone),
                  campaign::ForDefense(core::Defense::kVCall),
                  campaign::ForDefense(core::Defense::kICall)};

  std::printf("Campaign scaling: %zu runs, serial vs %u jobs "
              "(host threads: %u, scale=%.2f)\n\n",
              grid.workloads.size() * grid.configs.size(), jobs, hw, scale);

  const auto serial_start = std::chrono::steady_clock::now();
  const campaign::CampaignResult serial = campaign::Run(grid, {.jobs = 1});
  const double serial_s =
      Seconds(std::chrono::steady_clock::now() - serial_start);

  const auto parallel_start = std::chrono::steady_clock::now();
  const campaign::CampaignResult parallel =
      campaign::Run(grid, {.jobs = jobs});
  const double parallel_s =
      Seconds(std::chrono::steady_clock::now() - parallel_start);

  if (bench::ReportFaults(serial) || bench::ReportFaults(parallel)) return 1;

  // The determinism gate: cycles, instructions, counters — everything the
  // figures are computed from — must match bit for bit.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < serial.outcomes().size(); ++i) {
    const auto& a = serial.outcomes()[i];
    const auto& b = parallel.outcomes()[i];
    const bool same = a.name == b.name && a.metrics.cycles == b.metrics.cycles &&
                      a.metrics.instructions == b.metrics.instructions &&
                      a.metrics.exit_code == b.metrics.exit_code &&
                      a.metrics.peak_mem_kib == b.metrics.peak_mem_kib &&
                      a.metrics.counters == b.metrics.counters;
    if (!same) {
      std::fprintf(stderr, "DIVERGENCE in %s\n", a.name.c_str());
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "%zu runs diverged between --jobs 1 and --jobs %u\n",
                 mismatches, jobs);
    return 1;
  }

  const double speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;
  std::printf("  serial   (--jobs 1)  %8.2f s\n", serial_s);
  std::printf("  parallel (--jobs %-2u) %8.2f s\n", jobs, parallel_s);
  std::printf("  speedup              %8.2fx\n", speedup);
  std::printf("  simulated results    bit-identical (%zu runs)\n",
              serial.outcomes().size());

  trace::TelemetrySession session("campaign_scaling");
  parallel.FillSession(&session);
  session.Record("scale", scale);
  session.Record("host_threads", static_cast<std::uint64_t>(hw));
  session.Record("jobs", static_cast<std::uint64_t>(jobs));
  session.Record("serial_seconds", serial_s);
  session.Record("parallel_seconds", parallel_s);
  session.Record("speedup", speedup);
  session.Record("bit_identical", std::string_view("yes"));
  bench::WriteBenchJson(session);
  return 0;
}
