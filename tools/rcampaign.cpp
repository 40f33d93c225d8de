// rcampaign — run a declarative workload × defense × variant grid on the
// simulated ROLoad machine, in parallel, with merged telemetry.
//
//   rcampaign [--grid SPEC] [--jobs N] [--json FILE] [--profile] [--jit]
//             [--scale S] [--name NAME] [--emit-images DIR] [--quiet]
//             [--list-counters]
//
// --grid     semicolon-separated key=value grid (see src/campaign/grid.h),
//            e.g. "workloads=cpp;defenses=none,VCall,VTint;variants=full".
//            Default: the full CINT2006-like suite, unhardened, on the
//            full-ROLoad system.
// --jobs     worker threads (0 = one per hardware thread; the default).
//            Simulated results are bit-identical at any job count.
// --json     write the merged roload.campaign.v1 telemetry to FILE
// --profile  attach the cycle-attribution profiler to every run
// --jit      collect translation-tier telemetry ("jit.*" counters) on
//            every run; runs on the translated tier (the default) report
//            them, exec=interp runs report nothing
// --list-counters
//            dump every merged counter aggregate (name sum min max runs)
//            to stdout after the campaign
// --scale    workload scale when the grid does not set one (default 0.5)
// --name     campaign name used in the telemetry (default "campaign")
// --emit-images DIR
//            build every run of the grid and save its linked image as
//            DIR/<run name>.rimg (slashes become '_'), skipping
//            simulation entirely — the feed for whole-image rverify /
//            gadget-census sweeps in CI
// --quiet    suppress the per-run table, print only the summary line
//
// Exit code: 0 when every run is clean, 1 when any run faulted,
// 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "asmtool/image_io.h"
#include "campaign/env.h"
#include "campaign/grid.h"
#include "campaign/runner.h"
#include "support/strings.h"
#include "trace/session.h"

using namespace roload;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rcampaign [--grid SPEC] [--jobs N] [--json FILE] "
               "[--profile] [--jit] [--scale S] [--name NAME] "
               "[--emit-images DIR] [--quiet] [--list-counters]\n"
               "grid keys: workloads, defenses, variants, scale, seed, "
               "max-instructions, harts, exec, profile, jit\n");
  return 2;
}

// "<workload>/<config>/<variant>" -> a filesystem-safe image stem.
std::string SanitizeRunName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '/' || c == ' ') c = '_';
  }
  return out;
}

// Builds every run of the expanded grid and writes DIR/<name>.rimg;
// no simulation. Returns 0 when every build + save succeeded.
int EmitImages(const campaign::CampaignSpec& spec, const std::string& dir,
               bool quiet) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "rcampaign: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::size_t written = 0;
  std::size_t failed = 0;
  for (const campaign::RunSpec& run : campaign::Expand(spec)) {
    const ir::Module module = workloads::Generate(run.workload);
    auto build = core::Build(module, run.build);
    if (!build.ok()) {
      std::fprintf(stderr, "rcampaign: %s: %s\n", run.name.c_str(),
                   build.status().ToString().c_str());
      ++failed;
      continue;
    }
    const std::string path =
        dir + "/" + SanitizeRunName(run.name) + ".rimg";
    if (Status status = asmtool::SaveImage(build->image, path);
        !status.ok()) {
      std::fprintf(stderr, "rcampaign: %s: %s\n", path.c_str(),
                   status.ToString().c_str());
      ++failed;
      continue;
    }
    ++written;
    if (!quiet) std::printf("%-44s -> %s\n", run.name.c_str(), path.c_str());
  }
  std::printf("%zu images written to %s, %zu failed\n", written, dir.c_str(),
              failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid_text;
  std::string json_path;
  std::string name = "campaign";
  std::string jobs_text;
  std::string scale_text;
  std::string emit_dir;
  bool profile = false;
  bool jit = false;
  bool quiet = false;
  bool list_counters = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (FlagValue(argc, argv, &i, "--grid", &grid_text) ||
        FlagValue(argc, argv, &i, "--json", &json_path) ||
        FlagValue(argc, argv, &i, "--name", &name) ||
        FlagValue(argc, argv, &i, "--jobs", &jobs_text) ||
        FlagValue(argc, argv, &i, "--scale", &scale_text) ||
        FlagValue(argc, argv, &i, "--emit-images", &emit_dir)) {
      continue;
    }
    if (arg == "--profile") {
      profile = true;
    } else if (arg == "--jit") {
      jit = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-counters") {
      list_counters = true;
    } else {
      return Usage();
    }
  }

  unsigned jobs = campaign::JobsFromEnv(0);
  if (!jobs_text.empty()) {
    const auto parsed = campaign::ParseJobs(jobs_text);
    if (!parsed) {
      std::fprintf(stderr, "rcampaign: bad --jobs value: %s\n",
                   jobs_text.c_str());
      return Usage();
    }
    jobs = *parsed;
  }
  double scale = campaign::ScaleFromEnv(0.5);
  if (!scale_text.empty()) {
    const auto parsed = campaign::ParseScale(scale_text);
    if (!parsed) {
      std::fprintf(stderr, "rcampaign: bad --scale value: %s\n",
                   scale_text.c_str());
      return Usage();
    }
    scale = *parsed;
  }

  campaign::CampaignSpec spec;
  spec.name = name;
  if (Status status = campaign::ParseGrid(grid_text, scale, &spec);
      !status.ok()) {
    std::fprintf(stderr, "rcampaign: %s\n", status.ToString().c_str());
    return 2;
  }
  if (profile) spec.profile = true;
  if (jit) spec.jit = true;

  if (!emit_dir.empty()) return EmitImages(spec, emit_dir, quiet);

  const campaign::CampaignResult result =
      campaign::Run(spec, {.jobs = jobs});

  if (!quiet) {
    std::printf("%-44s | %6s | %14s | %14s | %10s\n", "run", "ok",
                "cycles", "instructions", "mem KiB");
    for (int i = 0; i < 100; ++i) std::fputc('-', stdout);
    std::fputc('\n', stdout);
    for (const campaign::RunOutcome& outcome : result.outcomes()) {
      if (!outcome.ok()) {
        std::printf("%-44s | %6s | %s\n", outcome.name.c_str(), "FAULT",
                    outcome.FailureText().c_str());
        continue;
      }
      if (outcome.build_only) {
        std::printf("%-44s | %6s | %14s | %14s | %10s\n",
                    outcome.name.c_str(), "build", "-", "-", "-");
        continue;
      }
      std::printf("%-44s | %6s | %14llu | %14llu | %10llu\n",
                  outcome.name.c_str(), "ok",
                  static_cast<unsigned long long>(outcome.metrics.cycles),
                  static_cast<unsigned long long>(
                      outcome.metrics.instructions),
                  static_cast<unsigned long long>(
                      outcome.metrics.peak_mem_kib));
    }
  }
  std::printf("%zu runs, %zu faults, %u jobs\n", result.outcomes().size(),
              result.faults(), result.jobs());

  if (list_counters) {
    for (const auto& [counter, agg] : result.merger().Merged()) {
      std::printf("%-44s %14llu %14llu %14llu %6llu\n", counter.c_str(),
                  static_cast<unsigned long long>(agg.sum),
                  static_cast<unsigned long long>(agg.min),
                  static_cast<unsigned long long>(agg.max),
                  static_cast<unsigned long long>(agg.runs));
    }
  }

  if (!json_path.empty()) {
    trace::TelemetrySession session(spec.name);
    result.FillSession(&session);
    if (Status status = session.WriteJson(json_path); !status.ok()) {
      std::fprintf(stderr, "rcampaign: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return result.all_ok() ? 0 : 1;
}
