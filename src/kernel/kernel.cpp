#include "kernel/kernel.h"

#include <utility>

#include "support/bits.h"

namespace roload::kernel {

Kernel::Kernel(const KernelConfig& config, mem::PhysMemory* memory,
               std::vector<cpu::Cpu*> harts)
    : config_(config),
      memory_(memory),
      cpu_(harts.at(0)),
      harts_(std::move(harts)),
      hart_states_(harts_.size()),
      installed_(harts_.size(), -1) {
  // Reserve the low frames so the null phys page is never handed out;
  // frames start right after a small kernel-reserved region.
  const std::uint64_t total_frames = memory_->size() >> mem::kPageShift;
  frames_ = std::make_unique<FrameAllocator>(16, total_frames - 16);
}

void Kernel::SetCurrentHart(unsigned hart) {
  current_hart_ = hart;
  cpu_ = harts_[hart];
  // Keep the telemetry stream coherent: timestamps come from the running
  // hart's cycle counter and every event carries the hart id. A single
  // hart keeps the clock the System wired once.
  if (trace_ != nullptr && harts_.size() > 1) {
    trace_->set_clock(&cpu_->stats().cycles);
    trace_->set_current_hart(hart);
  }
}

void Kernel::ShootdownTlbs() {
  // Local sfence.vma: the calling hart always flushes.
  cpu_->FlushTlbs();
  if (harts_.size() <= 1 || !config_.tlb_shootdown) return;
  // Remote shootdown: deliver a flush IPI to every other hart so no stale
  // keyed translation survives the PTE edit, and charge the initiator one
  // IPI round-trip per remote hart.
  unsigned remote = 0;
  const bool trace_events =
      trace_ != nullptr && trace_->enabled(trace::EventCategory::kKernel);
  for (unsigned h = 0; h < harts_.size(); ++h) {
    if (h == current_hart_) continue;
    harts_[h]->FlushTlbs();
    ++hart_states_[h].shootdowns_received;
    ++stats_.tlb_shootdowns;
    ++remote;
    if (trace_events) {
      trace_->Emit(trace::Unit::kKernel, trace::EventCategory::kKernel,
                   trace::EventType::kTlbShootdown, cpu_->pc(), 0,
                   (static_cast<std::uint64_t>(h) << 16) | current_hart_);
    }
  }
  cpu_->ChargeStallCycles(config_.shootdown_ipi_cycles * remote);
}

AddressSpace* Kernel::address_space() {
  return installed_[current_hart_] >= 0 ? current().space.get() : nullptr;
}

StatusOr<int> Kernel::LoadProcess(const asmtool::LinkImage& image) {
  if (num_harts() > 1 && !contexts_.empty()) {
    return Status::FailedPrecondition(
        "a machine with several harts runs one process");
  }
  Process process;
  process.space = std::make_unique<AddressSpace>(memory_, frames_.get());

  for (const asmtool::Section& section : image.sections) {
    if (section.size == 0) continue;
    if ((section.vaddr & (mem::kPageSize - 1)) != 0) {
      return Status::InvalidArgument("section not page aligned: " +
                                     section.name);
    }
    PageProt prot;
    prot.read = section.perms.read;
    prot.write = section.perms.write;
    prot.exec = section.perms.exec;
    // The roload-aware kernel honours the image's section keys during
    // executable loading; the unmodified kernel has no notion of keys.
    prot.key = config_.roload_aware ? section.key : mem::kDefaultPageKey;

    const std::uint64_t pages = PagesFor(section.size);
    // Map writable first so the loader can copy the initial bytes, then
    // tighten to the final permissions (the standard loader dance).
    PageProt staging = prot;
    staging.write = true;
    ROLOAD_RETURN_IF_ERROR(process.space->Map(section.vaddr, pages, staging));
    if (!section.bytes.empty()) {
      ROLOAD_RETURN_IF_ERROR(process.space->CopyIn(section.vaddr,
                                                   section.bytes.data(),
                                                   section.bytes.size()));
    }
    ROLOAD_RETURN_IF_ERROR(process.space->Protect(section.vaddr, pages, prot));
  }

  // Stacks: one equally-sized region per hart, hart 0's right below
  // stack_top and every further hart's stacked downwards below it.
  const std::uint64_t stride = config_.stack_pages * mem::kPageSize;
  for (unsigned h = 0; h < num_harts(); ++h) {
    ROLOAD_RETURN_IF_ERROR(process.space->Map(
        config_.stack_top - (h + 1) * stride, config_.stack_pages,
        PageProt::Rw()));
  }

  process.brk = config_.heap_base;
  process.mmap_cursor = config_.mmap_base;
  processes_.push_back(std::move(process));
  const int pid = static_cast<int>(processes_.size() - 1);

  // SBI-style boot protocol: a0 = hartid, a1 = hart count. _start
  // forwards both untouched, so main(i64, i64) receives them.
  for (unsigned h = 0; h < num_harts(); ++h) {
    Context context;
    context.pid = pid;
    context.hart = h;
    context.pc = image.entry;
    context.regs[isa::kSp] = config_.stack_top - h * stride - 64;
    context.regs[isa::kA0] = h;
    context.regs[isa::kA1] = num_harts();
    contexts_.push_back(context);
  }
  return pid;
}

void Kernel::SwitchTo(std::size_t index) {
  int& installed = installed_[current_hart_];
  if (installed == static_cast<int>(index)) return;
  const Context& next = contexts_[index];
  if (installed >= 0) {
    // Save exactly the base architectural state. ROLoad introduces no
    // per-process registers: keys live in the page tables, so nothing
    // extra crosses the context switch (contrast with shadow-stack
    // pointers or branch-state machines in Intel CET / ARM BTI).
    Context& old = contexts_[static_cast<std::size_t>(installed)];
    old.pc = cpu_->pc();
    for (unsigned r = 0; r < isa::kNumRegs; ++r) old.regs[r] = cpu_->reg(r);
    ++stats_.context_switches;
    if (trace_ != nullptr &&
        trace_->enabled(trace::EventCategory::kKernel)) {
      trace_->Emit(trace::Unit::kKernel, trace::EventCategory::kKernel,
                   trace::EventType::kContextSwitch, cpu_->pc(), 0,
                   static_cast<std::uint64_t>(next.pid));
    }
  }
  installed = static_cast<int>(index);
  cpu_->set_pc(next.pc);
  for (unsigned r = 1; r < isa::kNumRegs; ++r) {
    cpu_->set_reg(r, next.regs[r]);
  }
  // satp switch: the TLB tags entries with the root PPN (ASID model), so
  // no shootdown is required on the switch path.
  cpu_->set_root_ppn(
      processes_[static_cast<std::size_t>(next.pid)].space->root_ppn());
}

Status Kernel::Load(const asmtool::LinkImage& image) {
  contexts_.clear();
  installed_.assign(harts_.size(), -1);
  hart_states_.assign(harts_.size(), HartState{});
  ROLOAD_RETURN_IF_ERROR(LoadProcess(image).status());
  for (unsigned h = 0; h < num_harts(); ++h) {
    SetCurrentHart(h);
    SwitchTo(h);
    cpu_->FlushTlbs();  // fresh page tables may reuse recycled frames
  }
  SetCurrentHart(0);
  return Status::Ok();
}

bool Kernel::HandleSyscall(RunResult* result) {
  Process& process = current();
  const std::uint64_t number = cpu_->reg(isa::kA7);
  const std::uint64_t a0 = cpu_->reg(isa::kA0);
  const std::uint64_t a1 = cpu_->reg(isa::kA1);
  const std::uint64_t a2 = cpu_->reg(isa::kA2);

  ++stats_.syscalls;
  if (trace_ != nullptr && trace_->enabled(trace::EventCategory::kKernel)) {
    trace_->Emit(trace::Unit::kKernel, trace::EventCategory::kKernel,
                 trace::EventType::kSyscall, cpu_->pc(), a0, number);
  }

  switch (number) {
    case kSysExit:
      result->kind = ExitKind::kExited;
      result->exit_code = static_cast<std::int64_t>(a0);
      return false;
    case kSysWrite: {
      // write(fd, buf, len): only stdout/stderr, captured per process.
      if (a0 != 1 && a0 != 2) {
        cpu_->set_reg(isa::kA0, static_cast<std::uint64_t>(-9));  // EBADF
        return true;
      }
      std::string buffer(a2, '\0');
      Status status = process.space->CopyOut(
          a1, reinterpret_cast<std::uint8_t*>(buffer.data()), a2);
      if (!status.ok()) {
        cpu_->set_reg(isa::kA0, static_cast<std::uint64_t>(-14));  // EFAULT
        return true;
      }
      process.stdout_text += buffer;
      cpu_->set_reg(isa::kA0, a2);
      return true;
    }
    case kSysBrk: {
      if (a0 == 0) {
        cpu_->set_reg(isa::kA0, process.brk);
        return true;
      }
      const std::uint64_t new_brk = a0;
      if (new_brk < config_.heap_base || new_brk >= config_.mmap_base) {
        cpu_->set_reg(isa::kA0, process.brk);
        return true;
      }
      const std::uint64_t old_end = AlignUp(process.brk, mem::kPageSize);
      const std::uint64_t new_end = AlignUp(new_brk, mem::kPageSize);
      if (new_end > old_end) {
        Status status = process.space->Map(
            old_end, (new_end - old_end) >> mem::kPageShift, PageProt::Rw());
        if (!status.ok()) {
          cpu_->set_reg(isa::kA0, process.brk);
          return true;
        }
        ShootdownTlbs();
      }
      process.brk = new_brk;
      cpu_->set_reg(isa::kA0, process.brk);
      return true;
    }
    case kSysMmap: {
      // mmap(addr, len, prot, flags, fd, off) — anonymous only. The ROLoad
      // extension: prot bits [25:16] carry the page key. The unmodified
      // kernel masks the key off (it does not know the field).
      const std::uint64_t len = a1;
      const std::uint64_t prot_bits = a2;
      if (len == 0) {
        cpu_->set_reg(isa::kA0, static_cast<std::uint64_t>(-22));  // EINVAL
        return true;
      }
      PageProt prot;
      prot.read = (prot_bits & kProtRead) != 0;
      prot.write = (prot_bits & kProtWrite) != 0;
      prot.exec = (prot_bits & kProtExec) != 0;
      prot.key = config_.roload_aware
                     ? static_cast<std::uint32_t>(
                           (prot_bits >> kProtKeyShift) & mem::kPteKeyMax)
                     : mem::kDefaultPageKey;
      std::uint64_t addr = a0 != 0 ? a0 : process.mmap_cursor;
      addr = AlignUp(addr, mem::kPageSize);
      const std::uint64_t pages = PagesFor(len);
      Status status = process.space->Map(addr, pages, prot);
      if (!status.ok()) {
        cpu_->set_reg(isa::kA0, static_cast<std::uint64_t>(-12));  // ENOMEM
        return true;
      }
      if (a0 == 0) process.mmap_cursor = addr + pages * mem::kPageSize;
      ShootdownTlbs();
      cpu_->set_reg(isa::kA0, addr);
      return true;
    }
    case kSysMprotect: {
      const std::uint64_t addr = a0;
      const std::uint64_t len = a1;
      const std::uint64_t prot_bits = a2;
      PageProt prot;
      prot.read = (prot_bits & kProtRead) != 0;
      prot.write = (prot_bits & kProtWrite) != 0;
      prot.exec = (prot_bits & kProtExec) != 0;
      prot.key = config_.roload_aware
                     ? static_cast<std::uint32_t>(
                           (prot_bits >> kProtKeyShift) & mem::kPteKeyMax)
                     : mem::kDefaultPageKey;
      Status status = process.space->Protect(addr, PagesFor(len), prot);
      if (!status.ok()) {
        cpu_->set_reg(isa::kA0, static_cast<std::uint64_t>(-22));  // EINVAL
        return true;
      }
      // PTEs changed: the TLBs must be shot down (sfence.vma on the
      // calling hart, remote-flush IPIs to every other hart).
      ShootdownTlbs();
      cpu_->set_reg(isa::kA0, 0);
      return true;
    }
    default:  // unknown syscall
      cpu_->set_reg(isa::kA0, static_cast<std::uint64_t>(-38));  // ENOSYS
      return true;
  }
}

void Kernel::HandleTrap(const isa::Trap& trap, RunResult* result) {
  result->kind = ExitKind::kKilled;
  result->trap_cause = trap.cause;
  result->fault_addr = trap.tval;
  result->fault_pc = cpu_->pc();
  result->hart = current_hart_;

  // Latch the per-hart supervisor CSRs (sepc/scause/stval analogues)
  // exactly as trap entry would.
  HartState& hart = hart_states_[current_hart_];
  hart.sepc = cpu_->pc();
  hart.scause = static_cast<std::uint64_t>(trap.cause);
  hart.stval = trap.tval;
  ++hart.traps;

  ++stats_.traps;
  if (trap.cause == isa::TrapCause::kRoLoadPageFault) ++stats_.roload_faults;
  if (trace_ != nullptr && trace_->enabled(trace::EventCategory::kTrap)) {
    trace_->Emit(trace::Unit::kKernel, trace::EventCategory::kTrap,
                 trace::EventType::kTrapEnter, cpu_->pc(), trap.tval,
                 static_cast<std::uint64_t>(trap.cause));
  }

  switch (trap.cause) {
    case isa::TrapCause::kRoLoadPageFault:
      // The modified fault handler (arch/riscv/mm/fault.c in the paper)
      // recognises the ROLoad cause: the process is under attack (or
      // mis-hardened); deliver SIGSEGV.
      result->signal = kSigsegv;
      result->roload_violation = config_.roload_aware;
      break;
    case isa::TrapCause::kIllegalInstruction:
      result->signal = kSigill;
      break;
    default:
      result->signal = kSigsegv;
      break;
  }
  ++stats_.signals;
  // Forensics + teardown hooks, in that order: the autopsy observer sees
  // the process state first (it reads registers, walks page tables), then
  // the fatal-signal broadcast lets buffered sinks (the streaming trace
  // file) flush — so the autopsy's own trailing events make it to disk.
  if (fault_observer_ != nullptr) fault_observer_->OnFatalFault(trap, *result);
  if (trace_ != nullptr) trace_->NotifyFatalSignal();
}

std::uint64_t Kernel::Turn(std::size_t index, std::uint64_t budget) {
  Context& context = contexts_[index];
  SetCurrentHart(context.hart);
  SwitchTo(index);
  const std::uint64_t start = cpu_->stats().instructions;
  std::uint64_t retired = 0;
  while (context.alive && retired < budget) {
    // Batched execution: cpu::Run retires up to the rest of the budget
    // before returning, so turns end on exactly the instruction the
    // per-Step loop would — bit-identical across execute tiers — and the
    // translation tier gets a hot loop free of per-instruction checks.
    switch (cpu_->Run(budget - retired)) {
      case cpu::StepEvent::kRetired:
        break;
      case cpu::StepEvent::kEcall:
        context.alive = HandleSyscall(&context.result);
        break;
      case cpu::StepEvent::kTrap:
        HandleTrap(cpu_->pending_trap(), &context.result);
        // The fatal signal kills the process: every other context of it
        // stops where it stands (on several harts, the whole machine).
        for (Context& sibling : contexts_) {
          if (sibling.pid != context.pid || !sibling.alive) continue;
          sibling.alive = false;
          if (&sibling != &context) {
            sibling.result.kind = ExitKind::kInstructionLimit;
          }
        }
        break;
    }
    retired = cpu_->stats().instructions - start;
  }
  context.result.instructions += retired;
  context.result.cycles = cpu_->stats().cycles;
  return retired;
}

std::vector<RunResult> Kernel::Run(std::uint64_t max_instructions,
                                   std::uint64_t quantum) {
  ROLOAD_CHECK(!contexts_.empty());
  ROLOAD_CHECK(contexts_.size() == 1 || quantum > 0);
  for (Context& context : contexts_) {
    if (!context.alive) continue;
    context.result = RunResult{};
    context.result.hart = context.hart;
    context.result.cycles = harts_[context.hart]->stats().cycles;
  }
  std::uint64_t executed = 0;
  bool any_alive = true;
  while (any_alive && executed < max_instructions) {
    any_alive = false;
    for (std::size_t i = 0;
         i < contexts_.size() && executed < max_instructions; ++i) {
      if (!contexts_[i].alive) continue;
      any_alive = true;
      executed += Turn(i, contexts_.size() == 1
                              ? max_instructions - executed
                              : quantum);
    }
  }

  std::vector<RunResult> results;
  results.reserve(contexts_.size());
  for (Context& context : contexts_) {
    // Still runnable when the scheduler stopped: the budget ran out.
    if (context.alive) context.result.kind = ExitKind::kInstructionLimit;
    const Process& process =
        processes_[static_cast<std::size_t>(context.pid)];
    context.result.peak_mem_kib =
        process.space->mapped_pages() * mem::kPageSize / 1024;
    context.result.stdout_text = process.stdout_text;
    results.push_back(context.result);
  }
  return results;
}

}  // namespace roload::kernel
