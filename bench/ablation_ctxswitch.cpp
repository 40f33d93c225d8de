// Related-Work claim (Section VI): "Intel CET and ARM BTI require an
// extra architectural state, which needs to be maintained when the OS
// kernel is switching context... ROLoad needs no such state."
//
// This bench runs a multi-process workload with aggressive time slicing
// and accounts for the context-switch state footprint: ROLoad's per-
// process state is exactly the base ISA's (31 GPRs + pc + satp), keys
// living entirely in the page tables. A CET-like design adds a shadow-
// stack pointer + machine state per task; a BTI-like design adds a branch
// state machine. We also show the key checks stay correct across
// thousands of switches with zero TLB shootdowns.
//
// Rebased on the campaign runner like the figure benches: the per-process
// worker builds go through campaign::ParallelMap (deterministic,
// index-ordered at any ROLOAD_BENCH_JOBS), and the measurements land in
// BENCH_ablation_ctxswitch.json. The execution itself stays one preempted
// kernel — context switches only exist inside a single machine, so the
// run is a single cell rather than a workload × defense grid, and the
// printed table is bit-identical to the pre-rebase bench.
#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "asmtool/assembler.h"
#include "bench/bench_util.h"
#include "campaign/runner.h"
#include "core/system.h"
#include "support/strings.h"

using namespace roload;

namespace {

std::string Worker(unsigned tag, unsigned key, unsigned iters) {
  return StrFormat(R"(
.section .text
_start:
  li s0, %u
  li s2, 0
loop:
  la t0, tag
  ld.ro t1, (t0), %u
  add s2, s2, t1
  addi s0, s0, -1
  bnez s0, loop
  andi a0, s2, 63
  li a7, 93
  ecall
.section .rodata.key.%u
tag: .quad %u
)",
                   iters, key, key, tag);
}

// One worker's build (ParallelMap slots must be default-constructible,
// which StatusOr is not).
struct ImageCell {
  Status status = Status::Ok();
  asmtool::LinkImage image;
};

}  // namespace

int main() {
  std::printf("Context-switch ablation: per-process state and key "
              "correctness under preemption\n\n");

  constexpr unsigned kProcs = 8;
  constexpr unsigned kIters = 2000;
  trace::TelemetrySession session("ablation_ctxswitch");

  const std::vector<ImageCell> images = campaign::ParallelMap<ImageCell>(
      kProcs, campaign::JobsFromEnv(), [&](std::size_t p) {
        ImageCell cell;
        auto image = asmtool::Assemble(
            Worker(static_cast<unsigned>(p) + 1,
                   100 + static_cast<unsigned>(p), kIters));
        if (image.ok()) {
          cell.image = std::move(*image);
        } else {
          cell.status = image.status();
        }
        return cell;
      });

  core::System system;
  for (unsigned p = 0; p < kProcs; ++p) {
    if (!images[p].status.ok() ||
        !system.kernel().LoadProcess(images[p].image).ok()) {
      std::fprintf(stderr, "setup failed\n");
      return 1;
    }
  }

  const auto results = system.kernel().Run(/*max_instructions=*/1ull << 30,
                                           /*quantum=*/200);
  bool all_ok = true;
  for (unsigned p = 0; p < kProcs; ++p) {
    const bool ok =
        results[p].kind == kernel::ExitKind::kExited &&
        results[p].exit_code ==
            static_cast<std::int64_t>(((p + 1) * kIters) & 63);
    all_ok = all_ok && ok;
  }

  std::printf("  processes                  %u (each with its own keyed "
              "allowlist)\n", kProcs);
  std::printf("  context switches           %llu\n",
              static_cast<unsigned long long>(
                  system.kernel().context_switches()));
  std::printf("  TLB shootdowns on switch   %llu (root-tagged entries)\n",
              static_cast<unsigned long long>(
                  system.cpu().dtlb_stats().flushes));
  std::printf("  all results correct        %s\n", all_ok ? "yes" : "NO");

  std::printf("\n  per-process state saved/restored per switch:\n");
  std::printf("    base RISC-V            31 GPRs + pc + satp = 33 words\n");
  std::printf("    + ROLoad               +0 words (keys live in PTEs)\n");
  std::printf("    + CET-like shadow stk  +2 words (SSP + MSR state)\n");
  std::printf("    + BTI-like             +1 word  (branch-state/PSTATE."
              "BTYPE)\n");

  session.Record("processes", static_cast<std::uint64_t>(kProcs));
  session.Record("context_switches", system.kernel().context_switches());
  session.Record("tlb_shootdowns_on_switch",
                 system.cpu().dtlb_stats().flushes);
  session.Record("all_ok", static_cast<std::uint64_t>(all_ok));
  bench::WriteBenchJson(session);
  return all_ok ? 0 : 1;
}
