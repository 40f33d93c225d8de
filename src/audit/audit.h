// Security forensics for the ROLoad mechanism (the observability half of
// the paper's security argument). Two instruments, both riding on the
// telemetry hub and both strictly observation-only:
//
//  * Dispatch census — a per-run map of every *executed* ld.ro / lw.ro /
//    c.ld.ro site: pc, static key, pass/fail counts, distinct pages
//    touched and last check outcome, aggregated into per-key totals. Fed
//    by the kRoLoadCheck event stream the CPU emits on every keyed-load
//    translation, so key coverage and key reuse are visible at a glance.
//
//  * Fault autopsy — when the kernel delivers a fatal signal (the ROLoad
//    page fault's SIGSEGV above all), a structured forensic record taken
//    while the process state is still intact: faulting pc/VA, the
//    instruction key vs. the PTE key, the mapped/read-only/writable state
//    of the target page, a register-file snapshot, a best-effort ra/stack
//    backtrace, nearest symbols, and which .rodata.key.<K> section the
//    access *should* have resolved into.
//
// One Auditor per System; enable with SystemConfig::trace.audit (or
// `rrun --audit FILE`). Exports live in audit/report.h.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "asmtool/image.h"
#include "audit/symbolize.h"
#include "cpu/cpu.h"
#include "isa/registers.h"
#include "isa/traps.h"
#include "kernel/kernel.h"
#include "trace/events.h"

namespace roload::audit {

// Outcome of one ld.ro key check. Numeric values match
// tlb::RoLoadFailKind (with 0 = the check passed); the CPU packs them
// into kRoLoadCheck events as arg bits [31:16].
enum class CheckOutcome : std::uint8_t {
  kPass = 0,
  kKeyMismatch = 1,
  kWritablePage = 2,
  kUnmappedPage = 3,
};

std::string_view CheckOutcomeName(CheckOutcome outcome);

// One executed keyed-load site. On SMP machines a site is a (hart, pc)
// pair — the same static instruction executed from two harts is two
// census rows, so cross-hart key usage is visible per hart.
struct SiteRecord {
  std::uint64_t pc = 0;
  unsigned hart = 0;            // hart that executed this site
  std::uint32_t key = 0;        // static key of the instruction
  std::uint64_t passes = 0;
  std::uint64_t fails = 0;
  CheckOutcome last_outcome = CheckOutcome::kPass;
  // Distinct virtual pages this site loaded from, sorted. Bounded by
  // kMaxPagesPerSite; `pages_saturated` reports when the bound was hit
  // (the count is then a lower bound, never silently wrong).
  std::vector<std::uint64_t> pages;
  bool pages_saturated = false;

  static constexpr std::size_t kMaxPagesPerSite = 256;
};

// Per-key rollup of the census, including the cross-hart spread: how many
// distinct harts dispatched through the key.
struct KeyTotals {
  std::uint64_t sites = 0;
  std::uint64_t passes = 0;
  std::uint64_t fails = 0;
  std::uint64_t harts = 0;  // distinct harts that executed sites of this key
};

class DispatchCensus {
 public:
  void Record(std::uint64_t pc, std::uint32_t key, CheckOutcome outcome,
              std::uint64_t virt_addr, unsigned hart = 0);

  // Sites keyed by (hart, pc) packed as hart<<56 | pc — for hart 0 (and
  // thus every single-hart run) the map key is exactly the pc, and the
  // iteration order stays deterministic for the exporters.
  static std::uint64_t SiteKey(unsigned hart, std::uint64_t pc) {
    return (static_cast<std::uint64_t>(hart) << 56) | pc;
  }
  const std::map<std::uint64_t, SiteRecord>& sites() const { return sites_; }
  std::map<std::uint32_t, KeyTotals> PerKey() const;

  std::uint64_t total_passes() const { return total_passes_; }
  std::uint64_t total_fails() const { return total_fails_; }

 private:
  std::map<std::uint64_t, SiteRecord> sites_;
  std::uint64_t total_passes_ = 0;
  std::uint64_t total_fails_ = 0;
};

// The forensic record of one fatal fault.
struct Autopsy {
  std::uint64_t fault_pc = 0;
  std::uint64_t fault_va = 0;
  isa::TrapCause cause = isa::TrapCause::kLoadPageFault;
  int signal = 0;
  bool roload_violation = false;
  unsigned hart = 0;  // hart that took the fault (0 on single-hart runs)

  // The faulting instruction, re-fetched and decoded at autopsy time.
  bool inst_decoded = false;
  bool inst_is_roload = false;
  std::uint32_t inst_key = 0;
  std::string inst_text;  // disassembly ("" when undecodable)

  // Leaf-PTE state of the target page at fault time.
  bool page_mapped = false;
  bool page_readable = false;
  bool page_writable = false;
  std::uint32_t pte_key = 0;

  // Execution context.
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  std::vector<std::uint64_t> backtrace;  // [0] = fault pc, then ra/stack

  // Image-derived attribution (empty strings when unresolvable).
  std::string fault_symbol;      // nearest symbol at/below fault_pc
  std::string va_symbol;         // nearest symbol at/below fault_va
  std::string va_section;        // image section containing fault_va
  std::string expected_section;  // the .rodata.key.<inst_key> section

  // "key-mismatch" / "writable-page" / "unmapped-page" for ROLoad faults,
  // else the trap-cause name.
  std::string classification;
};

// The per-System forensics collector: an event sink (census feed) plus a
// fatal-fault observer (autopsy capture). Attach via System (which wires
// both hooks) — see SystemConfig::trace.audit.
class Auditor : public trace::EventSink, public kernel::FatalFaultObserver {
 public:
  Auditor(cpu::Cpu* cpu, mem::PhysMemory* memory);

  // Multi-hart systems: registers hart `hart`'s CPU so autopsies read the
  // *faulting* hart's architectural state (registers, satp, stack) rather
  // than hart 0's. Hart 0 is the constructor's cpu; unregistered hart ids
  // fall back to it.
  void RegisterHartCpu(unsigned hart, cpu::Cpu* cpu);

  // Copies the image's symbol table and section spans for symbolization
  // (delegates to the shared audit::Symbolizer). Call at load time;
  // without it autopsies still capture the hardware state, just with
  // empty symbol/section attribution.
  void SetImage(const asmtool::LinkImage& image);

  // trace::EventSink — consumes kRoLoadCheck events into the census.
  void OnEvent(const trace::TraceEvent& event) override;

  // kernel::FatalFaultObserver — captures an autopsy.
  void OnFatalFault(const isa::Trap& trap,
                    const kernel::RunResult& result) override;

  const DispatchCensus& census() const { return census_; }
  const std::vector<Autopsy>& autopsies() const { return autopsies_; }

  // "name" or "name+0xOFF" for the nearest symbol at/below `addr`; ""
  // when no symbol precedes it.
  std::string NearestSymbol(std::uint64_t addr) const;
  // Name of the image section containing `addr` ("" when none).
  std::string SectionContaining(std::uint64_t addr) const;
  // Name of the first image section carrying page key `key` ("" when the
  // image defines none — itself a forensic signal: the instruction names
  // a key no allowlist section has).
  std::string SectionForKey(std::uint32_t key) const;

  // Dynamic counter source ("audit.census.sites", "audit.census.pass",
  // "audit.census.fail", "audit.autopsies") for the registry.
  void AppendCounters(
      std::vector<std::pair<std::string, std::uint64_t>>* out) const;

 private:
  bool InExecutableSection(std::uint64_t addr) const;
  void CaptureBacktrace(cpu::Cpu* cpu, Autopsy* autopsy) const;

  cpu::Cpu* cpu_;
  std::vector<cpu::Cpu*> hart_cpus_;  // [0] == cpu_; grown by RegisterHartCpu
  mem::PhysMemory* memory_;
  Symbolizer symbolizer_;
  DispatchCensus census_;
  std::vector<Autopsy> autopsies_;
};

}  // namespace roload::audit
