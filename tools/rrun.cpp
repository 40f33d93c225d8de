// rrun — run a guest program (.rimg image or .s source) on the simulated
// ROLoad machine.
//
//   rrun program.rimg|program.s [--variant baseline|proc|full]
//        [--harts N] [--exec interp|translated]
//        [--max-instructions N] [--trace] [--stats] [--verify]
//        [--stats-json FILE] [--profile FILE] [--trace-events FILE]
//        [--audit FILE] [--jit-report FILE] [--list-counters]
//
// --harts         run on an N-hart machine (default 1; N >= 2 adds a
//                 shared L2 and the per-hart counter namespaces).
//                 Every hart boots at _start with a0 = hartid, a1 = N;
//                 the exit-code contract below is machine-level: a ROLoad
//                 kill on ANY hart exits 99, whichever hart it was
// --exec          host execute tier (default translated): "interp" is
//                 the reference interpreter, "translated" runs hot code
//                 as superblocks and the rest on the host fast paths.
//                 Tiers change only host speed — simulated cycles,
//                 counters and the exit code are bit-identical across
//                 both (--stats reports the host-side MIPS difference)
//
// --verify        run the static pointee-integrity verifier (src/verify)
//                 on the image first, then cross-check the loader: every
//                 keyed section must be mapped read-only with its key in
//                 the kernel-built page tables. Refuses to run a violating
//                 image and exits with the smallest violated rule id
// --stats-json    machine-readable counters (the --stats numbers and more)
// --profile       counters + cycle-attribution profile JSON
// --trace-events  Chrome trace_event JSON (open in Perfetto / about:tracing),
//                 streamed to the file during the run, so it holds every
//                 event however long the run is
// --audit         security forensics: write the roload.audit.v1 JSON
//                 (ld.ro dispatch census + fault autopsies) to FILE; on a
//                 fatal fault the human-readable autopsy also prints to
//                 stderr
// --jit-report    translation-tier introspection: write the roload.jit.v1
//                 JSON (per-superblock telemetry, deopt attribution,
//                 hot/cold census) to FILE and print the human top-blocks
//                 table on stderr. Forces --exec translated with an eager
//                 translate threshold of 1 so every block is visible —
//                 host-speed only, the simulated run is bit-identical
// --list-counters dump every registered telemetry counter (name value,
//                 sorted) to stdout after the run
//
// Exit-code contract, in evaluation order:
//    2          bad usage
//   10..35      --verify refused the image (smallest violated rule id)
//    1          I/O or load failure
//  124          --max-instructions limit hit before the guest exited
//   99          guest killed by a fatal signal classified as a ROLoad
//               pointee-integrity violation (the attack-detected path;
//               distinguishable from 128+sig so harnesses can assert
//               "blocked by ROLoad" without parsing stderr). Caveat: a
//               guest calling exit(99) is indistinguishable by code alone
//               — the stderr "[ROLoad violation]" line disambiguates.
//  128+signal   guest killed by any other fatal signal (shell convention)
//  otherwise    the guest's own exit code (low 8 bits)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "asmtool/assembler.h"
#include "asmtool/image_io.h"
#include "audit/report.h"
#include "audit/symbolize.h"
#include "core/system.h"
#include "core/toolchain.h"
#include "isa/disasm.h"
#include "support/strings.h"
#include "trace/exporters.h"
#include "trace/jitstats.h"
#include "trace/stream_sink.h"
#include "verify/binary.h"
#include "verify/verify.h"

using namespace roload;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rrun program.rimg|program.s "
               "[--variant baseline|proc|full] [--harts N] "
               "[--exec interp|translated] "
               "[--max-instructions N] "
               "[--trace] [--stats] [--verify] [--stats-json FILE] "
               "[--profile FILE] [--trace-events FILE] [--audit FILE] "
               "[--jit-report FILE] [--list-counters]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  core::SystemVariant variant = core::SystemVariant::kFullRoload;
  cpu::ExecTier exec = cpu::ExecTier::kTranslated;
  unsigned harts = 1;
  std::uint64_t max_instructions = 1ull << 32;
  bool trace = false;
  bool stats = false;
  bool verify_image = false;
  std::string stats_json_path;
  std::string profile_path;
  std::string trace_events_path;
  std::string audit_path;
  std::string jit_report_path;
  bool list_counters = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (FlagValue(argc, argv, &i, "--stats-json", &stats_json_path) ||
        FlagValue(argc, argv, &i, "--profile", &profile_path) ||
        FlagValue(argc, argv, &i, "--trace-events", &trace_events_path) ||
        FlagValue(argc, argv, &i, "--audit", &audit_path) ||
        FlagValue(argc, argv, &i, "--jit-report", &jit_report_path)) {
      continue;
    }
    if (arg == "--list-counters") {
      list_counters = true;
      continue;
    }
    if (arg == "--variant" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "baseline") {
        variant = core::SystemVariant::kBaseline;
      } else if (value == "proc") {
        variant = core::SystemVariant::kProcessorModified;
      } else if (value == "full") {
        variant = core::SystemVariant::kFullRoload;
      } else {
        return Usage();
      }
    } else if (arg == "--exec" && i + 1 < argc) {
      const auto parsed = cpu::ParseExecTier(argv[++i]);
      if (!parsed) return Usage();
      exec = *parsed;
    } else if (arg == "--harts" && i + 1 < argc) {
      const auto parsed = ParseInt(argv[++i]);
      if (!parsed || *parsed <= 0 || *parsed > 64) return Usage();
      harts = static_cast<unsigned>(*parsed);
    } else if (arg == "--max-instructions" && i + 1 < argc) {
      const auto parsed = ParseInt(argv[++i]);
      if (!parsed || *parsed < 0) return Usage();
      max_instructions = static_cast<std::uint64_t>(*parsed);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--verify") {
      verify_image = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (input.empty()) {
      input = arg;
    } else {
      return Usage();
    }
  }
  if (input.empty()) return Usage();

  asmtool::LinkImage image;
  if (EndsWith(input, ".s") || EndsWith(input, ".asm")) {
    std::ifstream in(input);
    if (!in) {
      std::fprintf(stderr, "rrun: cannot open %s\n", input.c_str());
      return 1;
    }
    const std::string source((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    auto assembled = asmtool::Assemble(source);
    if (!assembled.ok()) {
      std::fprintf(stderr, "rrun: %s\n",
                   assembled.status().ToString().c_str());
      return 1;
    }
    image = *std::move(assembled);
  } else {
    auto loaded = asmtool::LoadImage(input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "rrun: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    image = *std::move(loaded);
  }

  if (verify_image) {
    verify::Report report;
    verify::VerifyImage(image, verify::BinaryPolicy{},
                        /*expectations=*/nullptr, &report);
    if (!report.ok()) {
      std::fprintf(stderr, "rrun: static verification failed:\n%s",
                   report.ToText().c_str());
      return report.ExitCode();
    }
  }

  core::SystemConfig config;
  config.variant = variant;
  config.harts = harts;
  if (!jit_report_path.empty()) {
    // The report is about translated code, so the run must be on the
    // translated tier; threshold 1 translates every block on first sight
    // so the census sees one-shot code too. Both knobs are host-side
    // only: the simulated cycles/counters stay bit-identical.
    exec = cpu::ExecTier::kTranslated;
  }
  cpu::SetExecTier(&config.cpu, exec);
  if (!jit_report_path.empty()) {
    config.cpu.translate_threshold = 1;
    config.trace.jit = true;
  }
  config.trace.profile = !profile_path.empty();
  config.trace.audit = !audit_path.empty();
  if (!trace_events_path.empty()) {
    config.trace.categories = trace::kAllCategories;
  }
  // More than one hart shares the address space behind a shared L2.
  core::System system(config);
  if (Status status = system.Load(image); !status.ok()) {
    std::fprintf(stderr, "rrun: %s\n", status.ToString().c_str());
    return 1;
  }
  if (verify_image) {
    // Static checks passed; now cross-check the *loader*: every keyed
    // section must actually be mapped read-only with its key in the page
    // tables the kernel just built (a roload-unaware kernel silently maps
    // keys as 0, which would disarm ld.ro).
    const verify::Report loader_report =
        core::VerifyLoadedImage(system.kernel(), image);
    if (!loader_report.ok()) {
      std::fprintf(stderr, "rrun: loader verification failed:\n%s",
                   loader_report.ToText().c_str());
      return loader_report.ExitCode();
    }
  }
  // Events stream to the file as they are emitted; the hub keeps no copy.
  std::unique_ptr<trace::ChromeTraceFileSink> event_sink;
  if (!trace_events_path.empty()) {
    auto opened = trace::ChromeTraceFileSink::Open(trace_events_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "rrun: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    event_sink = std::move(opened).value();
    system.trace().AddSink(event_sink.get());
  }
  if (trace) {
    for (unsigned h = 0; h < harts; ++h) {
      system.cpu(h).set_trace_hook(
          [h](std::uint64_t pc, const isa::Instruction& inst) {
            std::fprintf(stderr, "[%u] %10llx:  %s\n", h,
                         static_cast<unsigned long long>(pc),
                         isa::Disassemble(inst).c_str());
          });
    }
  }

  const auto host_start = std::chrono::steady_clock::now();
  const kernel::RunResult result = system.Run(max_instructions);
  const double host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();
  if (!result.stdout_text.empty()) {
    std::fwrite(result.stdout_text.data(), 1, result.stdout_text.size(),
                stdout);
  }

  // Host-side speed: simulated instructions retired per host second.
  // Machine-level (sums across harts), so SMP runs report aggregate MIPS.
  const double simulated_mips =
      host_seconds > 0.0 ? static_cast<double>(result.instructions) /
                               host_seconds / 1e6
                         : 0.0;

  if (stats) {
    const auto& cpu = system.cpu().stats();
    std::fprintf(stderr,
                 "instructions %llu\ncycles       %llu\nIPC          %.3f\n"
                 "loads        %llu (ld.ro %llu)\nstores       %llu\n"
                 "branches     %llu (taken %llu)\n"
                 "i$ miss      %.4f%%\nd$ miss      %.4f%%\n"
                 "dtlb miss    %llu\npeak memory  %llu KiB\n",
                 static_cast<unsigned long long>(cpu.instructions),
                 static_cast<unsigned long long>(cpu.cycles),
                 cpu.cycles ? static_cast<double>(cpu.instructions) /
                                  static_cast<double>(cpu.cycles)
                            : 0.0,
                 static_cast<unsigned long long>(cpu.loads),
                 static_cast<unsigned long long>(cpu.roload_loads),
                 static_cast<unsigned long long>(cpu.stores),
                 static_cast<unsigned long long>(cpu.branches),
                 static_cast<unsigned long long>(cpu.taken_branches),
                 system.cpu().icache_stats().MissRate() * 100,
                 system.cpu().dcache_stats().MissRate() * 100,
                 static_cast<unsigned long long>(
                     system.cpu().dtlb_stats().misses),
                 static_cast<unsigned long long>(result.peak_mem_kib));
    // Host-side speed (not simulated state): how fast the host executed
    // the run, and under which tier.
    std::fprintf(stderr,
                 "exec tier    %.*s\nhost wall    %.3f s\n"
                 "sim MIPS     %.2f\n",
                 static_cast<int>(cpu::ExecTierName(exec).size()),
                 cpu::ExecTierName(exec).data(), host_seconds,
                 simulated_mips);
    // SMP runs append the per-hart split (the block above is hart 0) and
    // the machine totals the merged result reports.
    if (harts > 1) {
      for (unsigned h = 0; h < harts; ++h) {
        const auto& hart = system.cpu(h).stats();
        std::fprintf(stderr, "hart%u        %llu instructions, %llu cycles\n",
                     h, static_cast<unsigned long long>(hart.instructions),
                     static_cast<unsigned long long>(hart.cycles));
      }
      std::fprintf(stderr, "machine      %llu instructions, %llu cycles "
                   "(max over harts)\n",
                   static_cast<unsigned long long>(result.instructions),
                   static_cast<unsigned long long>(result.cycles));
    }
  }

  if (!stats_json_path.empty()) {
    trace::HostRunStats host;
    host.wall_seconds = host_seconds;
    host.simulated_mips = simulated_mips;
    host.exec_tier = std::string(cpu::ExecTierName(exec));
    if (Status status = trace::WriteFile(
            stats_json_path,
            trace::ExportCountersJson(system.trace().counters(), &host));
        !status.ok()) {
      std::fprintf(stderr, "rrun: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!profile_path.empty()) {
    if (Status status = trace::WriteFile(
            profile_path, trace::ExportProfileJson(system.trace()));
        !status.ok()) {
      std::fprintf(stderr, "rrun: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (event_sink != nullptr) {
    system.trace().RemoveSink(event_sink.get());
    if (Status status = event_sink->Close(); !status.ok()) {
      std::fprintf(stderr, "rrun: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!jit_report_path.empty()) {
    trace::JitReport report;
    for (unsigned h = 0; h < harts; ++h) {
      system.cpu(h).AppendJitReport(&report, h);
    }
    trace::FinalizeJitReport(&report);
    // The tool holds the link image, so the top-blocks rows get
    // nearest-symbol attribution the cpu layer cannot produce itself.
    audit::Symbolizer symbolizer;
    symbolizer.SetImage(image);
    for (trace::JitBlockRow& row : report.blocks) {
      row.symbol = symbolizer.NearestSymbol(row.head_pc);
    }
    if (Status status = trace::WriteFile(jit_report_path,
                                         trace::ExportJitJson(report));
        !status.ok()) {
      std::fprintf(stderr, "rrun: %s\n", status.ToString().c_str());
      return 1;
    }
    const std::string text = trace::ExportJitText(report);
    std::fwrite(text.data(), 1, text.size(), stderr);
  }
  if (list_counters) {
    for (const auto& [name, value] :
         system.trace().counters().Snapshot()) {
      std::printf("%s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  if (!audit_path.empty()) {
    const audit::Auditor* auditor = system.audit();
    if (Status status = trace::WriteFile(audit_path,
                                         audit::ExportAuditJson(*auditor));
        !status.ok()) {
      std::fprintf(stderr, "rrun: %s\n", status.ToString().c_str());
      return 1;
    }
    // A fatal fault with forensics on also prints the autopsy where a
    // human will see it.
    if (!auditor->autopsies().empty()) {
      const std::string text = audit::ExportAuditText(*auditor);
      std::fwrite(text.data(), 1, text.size(), stderr);
    }
  }

  switch (result.kind) {
    case kernel::ExitKind::kExited:
      return static_cast<int>(result.exit_code & 0xFF);
    case kernel::ExitKind::kKilled:
      std::fprintf(stderr, "rrun: killed by signal %d (%.*s)%s at pc=0x%llx"
                   " addr=0x%llx\n",
                   result.signal,
                   static_cast<int>(
                       isa::TrapCauseName(result.trap_cause).size()),
                   isa::TrapCauseName(result.trap_cause).data(),
                   result.roload_violation ? " [ROLoad violation]" : "",
                   static_cast<unsigned long long>(result.fault_pc),
                   static_cast<unsigned long long>(result.fault_addr));
      // ROLoad pointee-integrity kills get their own code (see the
      // contract in the header comment).
      return result.roload_violation ? 99 : 128 + result.signal;
    case kernel::ExitKind::kInstructionLimit:
      std::fprintf(stderr, "rrun: instruction limit reached\n");
      return 124;
  }
  return 1;
}
