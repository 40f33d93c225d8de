// Host throughput: simulated-MIPS of the simulator itself on the two
// execute tiers — the reference interpreter (every host fast path off:
// the seed simulator, so the `interp` column is a recorded pre-change
// baseline, not an estimate) and the superblock translation tier
// (pre-decoded blocks entered through guards, chained block-to-block,
// with cold code on the host fast paths; see docs/PERF.md).
//
// The tiers claim to be invisible to the simulation: the translated run
// is checked against the reference for bit-identical cycles,
// instructions, exit code and the full telemetry counter snapshot, and
// the bench exits nonzero on any mismatch. Workloads are the Figure 3
// C++ subset (base + VCall) and the Figure 4 CINT2006 suite (ICall),
// i.e. the exact guest programs whose tables the tiers must not perturb.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"

using namespace roload;

namespace {

struct TimedRun {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::int64_t exit_code = 0;
  double seconds = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  double Mips() const {
    return seconds > 0 ? static_cast<double>(instructions) / 1e6 / seconds
                       : 0.0;
  }
};

// Runs a prebuilt image on a fresh system, wall-clock timing Run() only
// (not the build). Median-of-`reps` to shave scheduler noise (lower
// median on even counts, so the pick is deterministic); the simulated
// results of every rep are identical by construction (fresh system each
// time), so only the time varies.
TimedRun RunImage(const asmtool::LinkImage& image, cpu::ExecTier tier,
                  unsigned reps) {
  TimedRun result;
  std::vector<double> times;
  times.reserve(reps);
  for (unsigned rep = 0; rep < reps; ++rep) {
    core::SystemConfig config;
    cpu::SetExecTier(&config.cpu, tier);
    core::System system(config);
    if (Status status = system.Load(image); !status.ok()) {
      std::fprintf(stderr, "host_throughput: load failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const kernel::RunResult run = system.Run();
    const auto t1 = std::chrono::steady_clock::now();
    if (run.kind != kernel::ExitKind::kExited) {
      std::fprintf(stderr, "host_throughput: run did not complete\n");
      std::exit(1);
    }
    times.push_back(std::chrono::duration<double>(t1 - t0).count());
    if (rep == 0) {
      result.cycles = run.cycles;
      result.instructions = run.instructions;
      result.exit_code = run.exit_code;
      result.counters = system.trace().counters().Snapshot();
    }
  }
  std::sort(times.begin(), times.end());
  result.seconds = times[(times.size() - 1) / 2];
  return result;
}

// Any divergence between the reference and the translated tier means a
// host optimization leaked into the simulation — fail loudly, the figure
// tables can no longer be trusted.
bool CheckIdentical(const std::string& label, const TimedRun& ref,
                    const TimedRun& xlat) {
  bool ok = true;
  if (ref.cycles != xlat.cycles || ref.instructions != xlat.instructions ||
      ref.exit_code != xlat.exit_code) {
    std::fprintf(stderr,
                 "MISMATCH %s: cycles %llu/%llu instret %llu/%llu "
                 "exit %lld/%lld\n",
                 label.c_str(), static_cast<unsigned long long>(ref.cycles),
                 static_cast<unsigned long long>(xlat.cycles),
                 static_cast<unsigned long long>(ref.instructions),
                 static_cast<unsigned long long>(xlat.instructions),
                 static_cast<long long>(ref.exit_code),
                 static_cast<long long>(xlat.exit_code));
    ok = false;
  }
  if (ref.counters != xlat.counters) {
    std::fprintf(stderr, "MISMATCH %s: counter snapshots differ\n",
                 label.c_str());
    for (std::size_t i = 0;
         i < ref.counters.size() && i < xlat.counters.size(); ++i) {
      if (ref.counters[i] != xlat.counters[i]) {
        std::fprintf(stderr, "  %s=%llu vs %s=%llu\n",
                     ref.counters[i].first.c_str(),
                     static_cast<unsigned long long>(ref.counters[i].second),
                     xlat.counters[i].first.c_str(),
                     static_cast<unsigned long long>(xlat.counters[i].second));
      }
    }
    ok = false;
  }
  return ok;
}

struct SuiteTotals {
  double interp_seconds = 0.0;
  double translated_seconds = 0.0;
  std::uint64_t instructions = 0;

  double InterpMips() const {
    return static_cast<double>(instructions) / 1e6 / interp_seconds;
  }
  double TranslatedMips() const {
    return static_cast<double>(instructions) / 1e6 / translated_seconds;
  }
  double TranslatedSpeedup() const {
    return interp_seconds / translated_seconds;
  }
};

// One workload × one defense: build once, time both tiers, verify the
// translated run against the reference, print one table row and record
// the numbers.
bool MeasureOne(trace::TelemetrySession* session, SuiteTotals* totals,
                const workloads::WorkloadSpec& spec, core::Defense defense,
                unsigned reps) {
  const ir::Module module = workloads::Generate(spec);
  core::BuildOptions options;
  options.defense = defense;
  auto build = core::Build(module, options);
  if (!build.ok()) {
    std::fprintf(stderr, "host_throughput: build failed: %s\n",
                 build.status().ToString().c_str());
    std::exit(1);
  }
  const std::string label =
      spec.name + "." + std::string(core::DefenseName(defense));
  const TimedRun ref = RunImage(build->image, cpu::ExecTier::kInterp, reps);
  const TimedRun xlat =
      RunImage(build->image, cpu::ExecTier::kTranslated, reps);
  const bool identical = CheckIdentical(label + ".translated", ref, xlat);
  const double xlat_speedup =
      xlat.seconds > 0 ? ref.seconds / xlat.seconds : 0.0;
  std::printf("%-28s | %8.2f %8.2f | %6.2fx %s\n", label.c_str(),
              ref.Mips(), xlat.Mips(), xlat_speedup,
              identical ? "" : "MISMATCH");
  session->Record(label + ".baseline_mips", ref.Mips());
  session->Record(label + ".translated_mips", xlat.Mips());
  session->Record(label + ".translated_speedup", xlat_speedup);
  // Deterministic simulation facts of the cell, host-independent: the
  // counter-exact keys the rperf sentinel gates on (the *_mips/speedup
  // keys above are wall-clock and only ever advisory).
  session->Record(label + ".cycles", ref.cycles);
  session->Record(label + ".instructions", ref.instructions);
  totals->interp_seconds += ref.seconds;
  totals->translated_seconds += xlat.seconds;
  totals->instructions += ref.instructions;
  return identical;
}

void PrintAggregate(const char* name, const SuiteTotals& totals) {
  std::printf("%-28s | %8.2f %8.2f | %6.2fx\n", name, totals.InterpMips(),
              totals.TranslatedMips(), totals.TranslatedSpeedup());
}

}  // namespace

int main() {
  const double scale = campaign::ScaleFromEnv(0.5);
  const unsigned reps = campaign::RepeatsFromEnv(2);  // median-of-N per tier
  std::printf("Host throughput: simulated MIPS by execute tier "
              "(scale=%.2f, repeats=%u)\n\n", scale, reps);
  std::printf("%-28s | %8s %8s | %6s\n", "workload.defense", "interp",
              "xlat", "xlat");
  bench::PrintRule(58);

  trace::TelemetrySession session("host_throughput");
  session.Record("scale", scale);
  bool all_identical = true;

  // Figure 3 workloads: the C++ subset, unhardened and under VCall.
  SuiteTotals fig3;
  for (const auto& spec : workloads::SpecCppSubset(scale)) {
    all_identical &=
        MeasureOne(&session, &fig3, spec, core::Defense::kNone, reps);
    all_identical &=
        MeasureOne(&session, &fig3, spec, core::Defense::kVCall, reps);
  }
  // Figure 4 workloads: the full CINT2006 suite under ICall.
  SuiteTotals fig4;
  for (const auto& spec : workloads::SpecCint2006Suite(scale)) {
    all_identical &=
        MeasureOne(&session, &fig4, spec, core::Defense::kICall, reps);
  }

  bench::PrintRule(58);
  PrintAggregate("fig3 aggregate", fig3);
  PrintAggregate("fig4 aggregate", fig4);
  std::printf("\nbit-identical simulation across tiers: %s\n",
              all_identical ? "yes" : "NO");

  session.Record("fig3.baseline_mips", fig3.InterpMips());
  session.Record("fig3.translated_mips", fig3.TranslatedMips());
  session.Record("fig3.translated_speedup", fig3.TranslatedSpeedup());
  session.Record("fig4.baseline_mips", fig4.InterpMips());
  session.Record("fig4.translated_mips", fig4.TranslatedMips());
  session.Record("fig4.translated_speedup", fig4.TranslatedSpeedup());
  session.Record("bit_identical", std::uint64_t{all_identical ? 1u : 0u});
  bench::WriteBenchJson(session);
  return all_identical ? 0 : 1;
}
