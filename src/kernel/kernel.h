// Mini operating-system kernel for the simulated machine. Responsibilities
// mirror the paper's Linux changes:
//   * loading program images and setting up page keys for the
//     `.rodata.key.<K>` allowlist sections during executable loading,
//   * providing mmap/mprotect syscalls that accept a page key,
//   * handling traps: distinguishing the ROLoad page fault from benign
//     load page faults and delivering SIGSEGV to the faulting process.
//
// A kernel built with `roload_aware == false` models the unmodified Linux:
// the loader ignores section keys (maps allowlists as plain read-only
// pages with key 0) and the fault handler treats the ROLoad cause as an
// unknown fault.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asmtool/image.h"
#include "cpu/cpu.h"
#include "kernel/address_space.h"
#include "trace/hub.h"

namespace roload::kernel {

struct KernelConfig {
  bool roload_aware = true;
  std::uint64_t stack_top = 0x7FFF0000;
  std::uint64_t stack_pages = 64;      // 256 KiB stack
  std::uint64_t heap_base = 0x40000000;
  std::uint64_t mmap_base = 0x50000000;
  // SMP TLB-shootdown protocol: when a syscall edits PTEs (brk/mmap/
  // mprotect — including a page-key change), flush not just the calling
  // hart's TLBs but every other hart's too, charging the initiator an IPI
  // round-trip per remote hart. Turning this off models the unsound
  // kernel that only runs sfence.vma locally — the stale-translation race
  // the regression tests pin down. Irrelevant with a single hart.
  bool tlb_shootdown = true;
  unsigned shootdown_ipi_cycles = 40;  // per remote hart, charged to caller
};

// Signal numbers (only the ones the kernel delivers).
inline constexpr int kSigsegv = 11;
inline constexpr int kSigill = 4;

// Why a run ended.
enum class ExitKind : std::uint8_t {
  kExited,       // guest called exit()
  kKilled,       // kernel delivered a fatal signal
  kInstructionLimit,
};

struct RunResult {
  ExitKind kind = ExitKind::kExited;
  std::int64_t exit_code = 0;
  int signal = 0;
  isa::TrapCause trap_cause = isa::TrapCause::kIllegalInstruction;
  std::uint64_t fault_addr = 0;
  std::uint64_t fault_pc = 0;
  // True when a roload-aware kernel classified the fault as a ROLoad
  // pointee-integrity violation (the paper's attack-detected path).
  bool roload_violation = false;
  // Hart that produced this result (the faulting hart for kKilled); always
  // 0 on single-hart machines.
  unsigned hart = 0;
  std::string stdout_text;

  // Final performance counters.
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t peak_mem_kib = 0;
};

// Kernel-side activity counters, exposed to the telemetry registry
// ("kernel.syscalls", "kernel.fault.roload", ...).
struct KernelStats {
  std::uint64_t syscalls = 0;
  std::uint64_t traps = 0;
  std::uint64_t roload_faults = 0;   // hardware kRoLoadPageFault causes seen
  std::uint64_t signals = 0;         // fatal signals delivered
  std::uint64_t context_switches = 0;
  std::uint64_t tlb_shootdowns = 0;  // remote flushes delivered (SMP only)
};

// Observer of fatal-signal delivery, called synchronously from the trap
// handler *before* the run unwinds — i.e. while the faulting process's
// architectural state (registers, page tables, memory) is still intact
// and inspectable. The audit layer's fault autopsy hangs off this hook.
class FatalFaultObserver {
 public:
  virtual ~FatalFaultObserver() = default;
  // `trap` is the hardware trap being converted into a signal; `result`
  // already carries the kernel's classification (signal number,
  // roload_violation, fault pc/addr).
  virtual void OnFatalFault(const isa::Trap& trap,
                            const RunResult& result) = 0;
};

// Guest syscall numbers (RISC-V Linux numbers where they exist).
inline constexpr std::uint64_t kSysExit = 93;
inline constexpr std::uint64_t kSysWrite = 64;
inline constexpr std::uint64_t kSysBrk = 214;
inline constexpr std::uint64_t kSysMmap = 222;
inline constexpr std::uint64_t kSysMprotect = 226;

// mmap/mprotect `prot` encoding: low 3 bits = PROT_READ/WRITE/EXEC, and the
// ROLoad extension carries the page key in bits [25:16].
inline constexpr std::uint64_t kProtRead = 1;
inline constexpr std::uint64_t kProtWrite = 2;
inline constexpr std::uint64_t kProtExec = 4;
inline constexpr unsigned kProtKeyShift = 16;

// Per-hart supervisor state: the CSR analogues a real RISC-V kernel keeps
// per hart (sepc/scause/stval snapshots of the last trap taken on that
// hart) plus the shootdown bookkeeping.
struct HartState {
  std::uint64_t sepc = 0;      // pc of the last trap taken on this hart
  std::uint64_t scause = 0;    // its cause (isa::TrapCause value)
  std::uint64_t stval = 0;     // its faulting address
  std::uint64_t traps = 0;     // traps taken on this hart
  std::uint64_t shootdowns_received = 0;  // remote flushes delivered here
};

class Kernel {
 public:
  // `harts` are the machine's CPUs in hart-id order (at least one); they
  // share `memory`.
  Kernel(const KernelConfig& config, mem::PhysMemory* memory,
         std::vector<cpu::Cpu*> harts);

  // Starts a new session: forgets every earlier context, loads `image`
  // into a fresh process and boots it on every hart. Hart h enters at the
  // image entry with a0 = h, a1 = hart count and its own stack (hart h's
  // stack sits h stack-regions below stack_top).
  Status Load(const asmtool::LinkImage& image);

  // Adds a process to the session without starting it and returns its
  // pid; Run() time-slices the processes on the single hart. A machine
  // with several harts runs exactly one process.
  StatusOr<int> LoadProcess(const asmtool::LinkImage& image);

  // The scheduler. A context is one process on one hart: one per hart
  // after Load, one per process after LoadProcess. Run() goes round-robin
  // over the live contexts in load order on one host thread, so the
  // interleaving is a pure function of the program and never of host
  // parallelism. A lone context runs the whole remaining budget in one
  // turn; otherwise every turn is `quantum` instructions. Context switches
  // save/restore exactly the base architectural state (31 GPRs + pc +
  // satp root): ROLoad adds no per-process state, and the root-tagged TLB
  // needs no shootdown. Stops when every context has exited or died, or
  // once `max_instructions` have retired across all contexts. A fatal
  // signal kills the faulting process and so stops all of its contexts —
  // with several harts, the whole machine. Returns one result per
  // context, with the instructions retired by this call.
  std::vector<RunResult> Run(std::uint64_t max_instructions,
                             std::uint64_t quantum);

  unsigned num_harts() const { return static_cast<unsigned>(harts_.size()); }
  const HartState& hart_state(unsigned hart) const {
    return hart_states_[hart];
  }

  std::uint64_t context_switches() const { return stats_.context_switches; }
  const KernelStats& stats() const { return stats_; }
  AddressSpace* address_space();
  const KernelConfig& config() const { return config_; }

  // Telemetry attachment (null disables): trap/syscall/context-switch
  // events flow into `hub`; the counter cells stay in stats_.
  void set_trace(trace::Hub* hub) { trace_ = hub; }

  // Fatal-fault observer (null disables): called on every fatal-signal
  // delivery with the process state still intact. The observer must
  // outlive the kernel or be detached first.
  void set_fault_observer(FatalFaultObserver* observer) {
    fault_observer_ = observer;
  }

 private:
  struct Process {
    std::unique_ptr<AddressSpace> space;
    std::uint64_t brk = 0;
    std::uint64_t mmap_cursor = 0;
    std::string stdout_text;
  };

  struct Context {
    int pid = 0;
    unsigned hart = 0;
    // Architectural state, saved here while the context is switched out.
    std::array<std::uint64_t, isa::kNumRegs> regs{};
    std::uint64_t pc = 0;
    bool alive = true;
    RunResult result;
  };

  // One scheduler turn: runs context `index` on its hart for up to
  // `budget` instructions; returns the instructions it retired.
  std::uint64_t Turn(std::size_t index, std::uint64_t budget);
  // Points the kernel (and, with several harts, the trace hub's clock and
  // hart stamp) at hart `hart`.
  void SetCurrentHart(unsigned hart);
  // Installs context `index` on the current hart, saving the state of the
  // context it displaces.
  void SwitchTo(std::size_t index);
  Process& current() {
    return processes_[static_cast<std::size_t>(
        contexts_[static_cast<std::size_t>(installed_[current_hart_])].pid)];
  }

  // Services the ecall the CPU just raised. Returns true when the process
  // should keep running.
  bool HandleSyscall(RunResult* result);
  // Trap handler: the page-fault discrimination path.
  void HandleTrap(const isa::Trap& trap, RunResult* result);
  // The sfence.vma path after a PTE edit: flushes the calling hart's TLBs
  // and (on SMP machines with tlb_shootdown enabled) delivers a remote
  // flush to every other hart, charging the caller the IPI cost.
  void ShootdownTlbs();

  std::uint64_t PagesFor(std::uint64_t bytes) const {
    return (bytes + mem::kPageSize - 1) / mem::kPageSize;
  }

  KernelConfig config_;
  mem::PhysMemory* memory_;
  // The running hart's CPU — every handler below reads architectural
  // state through it; the scheduler moves it with SetCurrentHart.
  cpu::Cpu* cpu_;
  std::vector<cpu::Cpu*> harts_;
  std::vector<HartState> hart_states_;
  unsigned current_hart_ = 0;
  std::unique_ptr<FrameAllocator> frames_;
  std::vector<Process> processes_;
  std::vector<Context> contexts_;
  std::vector<int> installed_;  // per hart: the context it holds, or -1
  KernelStats stats_;
  trace::Hub* trace_ = nullptr;
  FatalFaultObserver* fault_observer_ = nullptr;
};

}  // namespace roload::kernel
