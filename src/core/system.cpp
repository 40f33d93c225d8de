#include "core/system.h"

#include <algorithm>
#include <map>
#include <utility>

#include "support/strings.h"

namespace roload::core {

void RegisterCpuCounters(trace::CounterRegistry* counters,
                         const cpu::Cpu& cpu) {
  const cpu::CpuStats& c = cpu.stats();
  counters->Register("cpu.cycles", &c.cycles);
  counters->Register("cpu.instret", &c.instructions);
  counters->Register("cpu.loads", &c.loads);
  counters->Register("cpu.stores", &c.stores);
  counters->Register("cpu.roload_loads", &c.roload_loads);
  counters->Register("cpu.branches", &c.branches);
  counters->Register("cpu.taken_branches", &c.taken_branches);
  counters->Register("cpu.indirect_jumps", &c.indirect_jumps);

  const tlb::TlbStats& it = cpu.itlb_stats();
  counters->Register("tlb.i.hit", &it.hits);
  counters->Register("tlb.i.miss", &it.misses);
  counters->Register("tlb.i.flush", &it.flushes);
  counters->Register("tlb.i.permission_fault", &it.permission_faults);

  const tlb::TlbStats& dt = cpu.dtlb_stats();
  counters->Register("tlb.d.hit", &dt.hits);
  counters->Register("tlb.d.miss", &dt.misses);
  counters->Register("tlb.d.flush", &dt.flushes);
  counters->Register("tlb.d.permission_fault", &dt.permission_faults);
  counters->Register("tlb.d.key_check", &dt.key_checks);
  counters->Register("tlb.d.key_check_hit", &dt.key_check_hits);
  counters->Register("tlb.d.key_fault", &dt.roload_key_faults);
  counters->Register("tlb.d.writable_fault",
                     &dt.roload_writable_faults);

  const cache::CacheStats& ic = cpu.icache_stats();
  counters->Register("cache.i.hit", &ic.hits);
  counters->Register("cache.i.miss", &ic.misses);
  counters->Register("cache.i.writeback", &ic.writebacks);

  const cache::CacheStats& dc = cpu.dcache_stats();
  counters->Register("cache.d.hit", &dc.hits);
  counters->Register("cache.d.miss", &dc.misses);
  counters->Register("cache.d.writeback", &dc.writebacks);

  // Per-key key-check breakdown. The keys a run exercises are not known
  // up front, so this is a dynamic source over the dTLB's per-key table
  // rather than fixed cells; the sums match tlb.d.key_check_hit and
  // tlb.d.key_check exactly (the differential test in tests/test_tlb.cpp
  // pins the invariant).
  const tlb::TlbStats* dtlb = &cpu.dtlb_stats();
  counters->RegisterSource(
      [dtlb](std::vector<std::pair<std::string, std::uint64_t>>* out) {
        for (const tlb::TlbKeyCheckCount& entry : dtlb->key_check_by_key) {
          out->emplace_back(StrFormat("tlb.keycheck.pass.%u", entry.key),
                            entry.passes);
          out->emplace_back(StrFormat("tlb.keycheck.fail.%u", entry.key),
                            entry.fails);
        }
      });
}

void RegisterKernelCounters(trace::CounterRegistry* counters,
                            const kernel::Kernel& kernel) {
  const kernel::KernelStats& k = kernel.stats();
  counters->Register("kernel.syscalls", &k.syscalls);
  counters->Register("kernel.traps", &k.traps);
  counters->Register("kernel.fault.roload", &k.roload_faults);
  counters->Register("kernel.signals", &k.signals);
  counters->Register("kernel.context_switches", &k.context_switches);
  counters->Register("kernel.tlb_shootdowns", &k.tlb_shootdowns);
}

System::System(const SystemConfig& config) : config_(config) {
  ROLOAD_CHECK(config.harts >= 1);
  memory_ = std::make_unique<mem::PhysMemory>(config.memory_bytes);

  // The audit layer's census is fed by kRoLoad events, so enabling audit
  // implies that category. Pure observation either way: the category mask
  // never influences architectural state or cycle accounting.
  trace::TraceConfig trace_config = config.trace;
  if (trace_config.audit) {
    trace_config.categories |=
        trace::CategoryBit(trace::EventCategory::kRoLoad);
  }
  trace_ = std::make_unique<trace::Hub>(trace_config);

  cpu::CpuConfig cpu_config = config.cpu;
  cpu_config.roload_enabled =
      config.variant != SystemVariant::kBaseline;
  // Per-superblock telemetry rides the trace config: host-only collection
  // inside the translator, observation by construction.
  if (trace_config.jit) cpu_config.jit_stats = true;

  if (config.harts >= 2) {
    l2_ = std::make_unique<cache::Cache>(config.l2);
    l2_->set_trace(trace_.get(), trace::Unit::kL2Cache);
  }
  std::vector<cpu::Cpu*> harts;
  for (unsigned h = 0; h < config.harts; ++h) {
    auto cpu = std::make_unique<cpu::Cpu>(cpu_config, memory_.get());
    if (l2_ != nullptr) cpu->set_next_level_cache(l2_.get());
    cpu->set_trace(trace_.get());
    // One code-version table for the whole machine (block caches stay
    // per-hart): a store on any hart must fail the self-modifying-code
    // guard of blocks every other hart translated from that page.
    if (h > 0) cpu->ShareCodeTable(cpus_[0]->code_table());
    harts.push_back(cpu.get());
    cpus_.push_back(std::move(cpu));
  }

  kernel::KernelConfig kernel_config;
  kernel_config.roload_aware = config.variant == SystemVariant::kFullRoload;
  kernel_config.tlb_shootdown = config.tlb_shootdown;
  kernel_ = std::make_unique<kernel::Kernel>(kernel_config, memory_.get(),
                                             std::move(harts));
  kernel_->set_trace(trace_.get());
  trace_->set_clock(&cpus_[0]->stats().cycles);

  trace::CounterRegistry& counters = trace_->counters();
  if (config.harts == 1) {
    RegisterCpuCounters(&counters, *cpus_[0]);
  } else {
    // Each hart under "hart<N>.", and every one of those names summed
    // into its unprefixed fleet aggregate; "smp.cycles_max" is the
    // parallel wall-clock (what Run() reports).
    hart_counters_.resize(config.harts);
    for (unsigned h = 0; h < config.harts; ++h) {
      RegisterCpuCounters(&hart_counters_[h], *cpus_[h]);
    }
    const std::vector<trace::CounterRegistry>* per_hart = &hart_counters_;
    counters.RegisterSource(
        [per_hart](std::vector<std::pair<std::string, std::uint64_t>>* out) {
          std::map<std::string, std::uint64_t> sums;
          std::uint64_t cycles_max = 0;
          for (std::size_t h = 0; h < per_hart->size(); ++h) {
            for (const auto& [name, value] : (*per_hart)[h].Snapshot()) {
              out->emplace_back(StrFormat("hart%zu.", h) + name, value);
              sums[name] += value;
            }
            cycles_max =
                std::max(cycles_max, (*per_hart)[h].Value("cpu.cycles"));
          }
          out->insert(out->end(), sums.begin(), sums.end());
          out->emplace_back("smp.harts", per_hart->size());
          out->emplace_back("smp.cycles_max", cycles_max);
        });
    const cache::CacheStats& l2s = l2_->stats();
    counters.Register("cache.l2.hit", &l2s.hits);
    counters.Register("cache.l2.miss", &l2s.misses);
    counters.Register("cache.l2.writeback", &l2s.writebacks);
  }
  RegisterKernelCounters(&counters, *kernel_);

  if (config_.trace.audit) {
    auditor_ = std::make_unique<audit::Auditor>(cpus_[0].get(),
                                                memory_.get());
    for (unsigned h = 1; h < config.harts; ++h) {
      auditor_->RegisterHartCpu(h, cpus_[h].get());
    }
    trace_->AddSink(auditor_.get());
    kernel_->set_fault_observer(auditor_.get());
    const audit::Auditor* auditor = auditor_.get();
    counters.RegisterSource(
        [auditor](std::vector<std::pair<std::string, std::uint64_t>>* out) {
          auditor->AppendCounters(out);
        });
  }
}

Status System::Load(const asmtool::LinkImage& image) {
  if (auditor_ != nullptr) auditor_->SetImage(image);
  return kernel_->Load(image);
}

kernel::RunResult System::Run(std::uint64_t max_instructions) {
  const std::vector<kernel::RunResult> results =
      kernel_->Run(max_instructions, config_.quantum);

  // Merge to one machine-level result: a kill wins (it halted the process
  // and carries the faulting hart), then an instruction limit, then a
  // clean exit with the first nonzero exit code.
  const kernel::RunResult* pick = nullptr;
  for (const kernel::ExitKind kind :
       {kernel::ExitKind::kKilled, kernel::ExitKind::kInstructionLimit}) {
    for (const kernel::RunResult& r : results) {
      if (pick == nullptr && r.kind == kind) pick = &r;
    }
  }
  kernel::RunResult merged = pick != nullptr ? *pick : results[0];
  if (pick == nullptr) {
    for (const kernel::RunResult& r : results) {
      if (r.exit_code != 0) {
        merged.exit_code = r.exit_code;
        merged.hart = r.hart;
        break;
      }
    }
  }
  merged.instructions = 0;
  merged.cycles = 0;
  for (const kernel::RunResult& r : results) {
    merged.instructions += r.instructions;
    merged.cycles = std::max(merged.cycles, r.cycles);
  }
  merged.stdout_text = results[0].stdout_text;
  merged.peak_mem_kib = results[0].peak_mem_kib;
  return merged;
}

}  // namespace roload::core
