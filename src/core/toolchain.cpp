#include "core/toolchain.h"

#include "asmtool/assembler.h"
#include "support/strings.h"
#include "verify/binary.h"
#include "verify/ir_lint.h"

namespace roload::core {

std::string_view DefenseName(Defense defense) {
  switch (defense) {
    case Defense::kNone:
      return "none";
    case Defense::kVCall:
      return "VCall";
    case Defense::kVTint:
      return "VTint";
    case Defense::kICall:
      return "ICall";
    case Defense::kClassicCfi:
      return "CFI";
  }
  return "?";
}

StatusOr<BuildResult> Build(ir::Module module, const BuildOptions& options) {
  switch (options.defense) {
    case Defense::kNone:
      break;
    case Defense::kVCall:
      ROLOAD_RETURN_IF_ERROR(
          passes::VCallProtectPass(&module, options.vcall));
      break;
    case Defense::kVTint:
      ROLOAD_RETURN_IF_ERROR(passes::VTintPass(&module));
      break;
    case Defense::kICall:
      ROLOAD_RETURN_IF_ERROR(passes::ICallCfiPass(&module, options.icall));
      break;
    case Defense::kClassicCfi:
      ROLOAD_RETURN_IF_ERROR(passes::ClassicCfiPass(&module, options.cfi));
      break;
  }

  auto codegen = backend::Generate(module, options.codegen);
  if (!codegen.ok()) return codegen.status();

  auto image = asmtool::Assemble(codegen->assembly);
  if (!image.ok()) return image.status();

  BuildResult result;
  result.codegen = *codegen;
  result.image_bytes = image->MappedBytes();
  result.code_bytes = image->CodeBytes();
  result.image = *std::move(image);
  result.hardened = std::move(module);
  result.options = options;

  if (options.verify) {
    const verify::Report report = Verify(result);
    if (!report.ok()) {
      return Status::FailedPrecondition("static verification failed:\n" +
                                        report.ToText());
    }
  }
  return result;
}

verify::Report Verify(const BuildResult& build) {
  verify::Report report;
  verify::LintModule(build.hardened, &report);
  const verify::Expectations expectations =
      verify::ComputeExpectations(build.hardened);
  verify::BinaryPolicy policy;
  policy.name = std::string(DefenseName(build.options.defense));
  // Only ICall with hardened vtables claims *every* indirect call is
  // dispatched through ld.ro; VCall protects virtual calls only, and the
  // software baselines never use ld.ro for dispatch.
  policy.require_protected_dispatch =
      build.options.defense == Defense::kICall &&
      build.options.icall.harden_vtables;
  verify::VerifyImage(build.image, policy, &expectations, &report);
  return report;
}

StatusOr<RunMetrics> RunBuild(const BuildResult& build, SystemVariant variant,
                              std::uint64_t max_instructions,
                              const trace::TraceConfig& trace,
                              cpu::ExecTier exec, unsigned harts) {
  SystemConfig config;
  config.variant = variant;
  config.harts = harts;
  config.trace = trace;
  cpu::SetExecTier(&config.cpu, exec);
  System system(config);
  ROLOAD_RETURN_IF_ERROR(system.Load(build.image));
  const kernel::RunResult run = system.Run(max_instructions);

  RunMetrics metrics;
  metrics.cycles = run.cycles;
  metrics.instructions = run.instructions;
  metrics.peak_mem_kib = run.peak_mem_kib;
  metrics.image_bytes = build.image_bytes;
  metrics.exit_code = run.exit_code;
  metrics.completed = run.kind == kernel::ExitKind::kExited;
  metrics.roload_violation = run.roload_violation;
  metrics.stdout_text = run.stdout_text;

  metrics.counters = system.trace().counters().Snapshot();
  // The fleet sum at two harts or more.
  metrics.roload_loads = metrics.Counter("cpu.roload_loads");
  if (trace.profile) {
    const trace::CycleProfiler& profiler = system.trace().profiler();
    for (std::size_t b = 0;
         b < static_cast<std::size_t>(trace::CycleBucket::kNumBuckets); ++b) {
      const auto bucket = static_cast<trace::CycleBucket>(b);
      metrics.profile.emplace_back(std::string(trace::CycleBucketName(bucket)),
                                   profiler.bucket(bucket));
    }
  }
  if (trace.jit) {
    trace::JitReport report;
    for (unsigned h = 0; h < harts; ++h) {
      system.cpu(h).AppendJitReport(&report, h);
    }
    trace::FinalizeJitReport(&report);
    trace::AppendJitCounters(report, &metrics.jit_counters);
  }
  return metrics;
}

StatusOr<RunMetrics> CompileAndRun(const ir::Module& module,
                                   const BuildOptions& options,
                                   SystemVariant variant,
                                   std::uint64_t max_instructions,
                                   const trace::TraceConfig& trace) {
  auto build = Build(module, options);
  if (!build.ok()) return build.status();
  return RunBuild(*build, variant, max_instructions, trace);
}

verify::Report VerifyLoadedImage(kernel::Kernel& kernel,
                                 const asmtool::LinkImage& image) {
  verify::Report report;
  kernel::AddressSpace* space = kernel.address_space();
  if (space == nullptr) {
    report.Add(verify::Rule::kLoaderKeyMismatch, "",
               "no active process (call System::Load first)");
    return report;
  }
  for (const asmtool::Section& section : image.sections) {
    if (section.size == 0) continue;
    ++report.stats().sections;
    if (section.key == 0) continue;  // only keyed pages carry the proof
    ++report.stats().keyed_sections;
    const std::uint64_t pages =
        (section.size + mem::kPageSize - 1) / mem::kPageSize;
    for (std::uint64_t page = 0; page < pages; ++page) {
      const std::uint64_t vaddr = section.vaddr + page * mem::kPageSize;
      auto pte = space->GetPte(vaddr);
      if (!pte.ok() || !pte->valid() || !pte->readable()) {
        report.Add(verify::Rule::kLoaderKeyMismatch, section.name,
                   StrFormat("page 0x%llx of keyed section not mapped "
                             "readable",
                             static_cast<unsigned long long>(vaddr)));
        continue;
      }
      if (pte->writable()) {
        report.Add(verify::Rule::kLoaderKeyMismatch, section.name,
                   StrFormat("page 0x%llx of keyed section mapped writable",
                             static_cast<unsigned long long>(vaddr)));
      }
      if (pte->key() != section.key) {
        report.Add(
            verify::Rule::kLoaderKeyMismatch, section.name,
            StrFormat("page 0x%llx mapped with key %u, image requires key "
                      "%u (roload-unaware loader?)",
                      static_cast<unsigned long long>(vaddr), pte->key(),
                      section.key));
      }
    }
  }
  return report;
}

double OverheadPercent(double base, double value) {
  if (base == 0.0) return 0.0;
  return (value - base) / base * 100.0;
}

}  // namespace roload::core
