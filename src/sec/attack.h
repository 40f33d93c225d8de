// Attack-injection harness (Section V-C2 and V-D). Models an adversary
// with an arbitrary-read/write primitive inside the victim process: the
// victim runs for a while, the harness corrupts memory through the
// debug port (which bypasses permissions, exactly like a memory-corruption
// bug), and the run continues. The outcome tells whether the defense
// blocked the attack, the attacker hijacked control flow, or the attacker
// merely diverted execution inside the allowlist (the residual
// pointee-reuse surface the paper's Remarks section describes).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/toolchain.h"

namespace roload::sec {

enum class AttackKind : std::uint8_t {
  // Overwrite the object's vptr with a pointer to a writable fake vtable
  // containing the address of attacker code (classic vtable injection).
  kVtableInjection,
  // Overwrite the vptr with the address of a *legitimate* vtable of a
  // different class hierarchy (COOP-style vtable reuse).
  kVtableReuseCrossHierarchy,
  // Overwrite a function-pointer slot with the raw address of attacker
  // code (forward-edge hijack).
  kFnPtrCorruptToEvil,
  // Overwrite a function-pointer slot with another legitimate target of
  // the same function type (pointee reuse; allowed by type-based CFI by
  // design — the paper's residual attack surface).
  kFnPtrReuseSameType,
};

std::string_view AttackKindName(AttackKind kind);

enum class AttackOutcome : std::uint8_t {
  kHijacked,  // attacker code executed (sentinel observed)
  kBlocked,   // process killed by the defense (fault or CFI abort)
  kDiverted,  // ran to completion, but computation was altered in-allowlist
  kNoEffect,  // ran to completion with the unattacked result
};

std::string_view AttackOutcomeName(AttackOutcome outcome);

struct AttackResult {
  AttackOutcome outcome = AttackOutcome::kNoEffect;
  bool roload_violation = false;  // blocked via the ROLoad page-fault path
  int signal = 0;
  std::int64_t exit_code = 0;

  // Forensics from the audit layer (src/audit), which RunAttackSmp keeps
  // enabled on the attacked system. `has_autopsy` is true exactly when the
  // block came through the ROLoad fault path — CFI/VTint software aborts
  // exit cleanly and leave no autopsy.
  bool has_autopsy = false;
  std::uint64_t fault_pc = 0;
  std::uint64_t fault_va = 0;
  std::uint32_t inst_key = 0;   // static key of the faulting ld.ro
  std::uint32_t pte_key = 0;    // key of the page it hit
  bool page_mapped = false;
  bool page_writable = false;
  // One-line verdict for matrices and logs:
  //   "caught:key-mismatch@<symbol>"   ld.ro landed on the wrong allowlist
  //   "caught:writable-page@<symbol>"  ld.ro landed on attacker memory
  //   "caught:unmapped-page@<symbol>"
  //   "caught:cfi-abort"               software-check abort (exit 134)
  //   "caught:signal"                  killed by a non-ROLoad fault
  //   "missed:hijacked" / "diverted:in-allowlist" / "no-effect"
  std::string classification;

  // SMP attribution: the hart the outcome was observed on (for a blocked
  // attack, the hart whose keyed dispatch caught it — not necessarily the
  // hart count minus one, the scheduler decides who dispatches first after
  // the corruption lands), the machine width the attack ran at, and the
  // hart whose debug port performed the corruption.
  unsigned hart = 0;
  unsigned harts = 1;
  unsigned inject_hart = 0;

  // End-of-run counter snapshot of the attacked system (census totals,
  // per-key TLB checks, ...) for cross-run aggregation via
  // campaign::CounterMerger.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

// The victim program: a loop of virtual dispatches (hierarchy A) and
// indirect callback calls, with a second hierarchy B (reuse target), a
// second same-type callback, and an attacker function `evil` that records
// a sentinel when executed.
ir::Module MakeVictimModule();

// Builds the victim with `defense`, runs it on a `harts`-hart system of
// `variant`, injects `kind` mid-execution, and classifies the outcome. The
// victim serves on every hart (one shared address space, so every hart
// dispatches through the same object and function-pointer slot), and the
// corruption lands mid-run while the other harts are mid-dispatch. The
// result records which hart's keyed dispatch caught the attack.
//
// `inject_hart` picks whose debug port the arbitrary write goes through
// (must be < harts). The address space is shared, so the verdict, the
// catching hart and the autopsy must not depend on it — the parity test in
// tests/test_smp.cpp pins hart-0 vs hart-(N-1) injection equal.
StatusOr<AttackResult> RunAttackSmp(AttackKind kind, core::Defense defense,
                                    unsigned harts = 1,
                                    core::SystemVariant variant =
                                        core::SystemVariant::kFullRoload,
                                    unsigned inject_hart = 0);

}  // namespace roload::sec
