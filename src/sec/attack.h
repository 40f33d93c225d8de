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
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "audit/audit.h"
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

// Every attack kind, in enum order: the rows of the security matrix.
inline constexpr AttackKind kAttackKinds[] = {
    AttackKind::kVtableInjection, AttackKind::kVtableReuseCrossHierarchy,
    AttackKind::kFnPtrCorruptToEvil, AttackKind::kFnPtrReuseSameType};

std::string_view AttackKindName(AttackKind kind);

enum class AttackOutcome : std::uint8_t {
  kHijacked,  // attacker code executed (sentinel observed)
  kBlocked,   // process killed by the defense (fault or CFI abort)
  kDiverted,  // ran to completion, but computation was altered in-allowlist
  kNoEffect,  // ran to completion with the unattacked result
};

std::string_view AttackOutcomeName(AttackOutcome outcome);

// The paper's verdict for `kind` under `defense` (Sections IV, V-C2 and
// V-D): the one copy of the security claim that bench/security_matrix and
// tests/test_sec.cpp check every measured outcome against.
AttackOutcome PaperOutcome(AttackKind kind, core::Defense defense);

struct AttackResult {
  AttackOutcome outcome = AttackOutcome::kNoEffect;
  bool roload_violation = false;  // blocked via the ROLoad page-fault path
  int signal = 0;
  std::int64_t exit_code = 0;

  // The audit layer's autopsy (src/audit) of the fault that killed the
  // attacked system, if one did: CFI/VTint software aborts leave none.
  std::optional<audit::Autopsy> autopsy;
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
  // trace::CounterMerger.
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  bool operator==(const AttackResult&) const = default;
};

// The victim program: a loop of virtual dispatches (hierarchy A) and
// indirect callback calls, with a second hierarchy B (reuse target), a
// second same-type callback, and an attacker function `evil` that records
// a sentinel when executed.
ir::Module MakeVictimModule();

// The victim of one (defense, harts, variant): its build and the exit code
// of an unattacked run at that width (the harts cooperatively advance the
// shared loop counter, so the clean exit code depends on the interleaving,
// which the deterministic scheduler makes reproducible). Read-only once
// prepared: any number of attacks, on any threads, may run off one Victim.
struct Victim {
  core::BuildResult build;
  std::int64_t clean_exit = 0;
  unsigned harts = 1;
  core::SystemVariant variant = core::SystemVariant::kFullRoload;
};

// Phase 1 of an attack: builds the victim with `defense` and runs it
// unattacked on a `harts`-hart system of `variant`. Fails when the victim
// does not run cleanly.
StatusOr<Victim> PrepareVictim(core::Defense defense, unsigned harts = 1,
                               core::SystemVariant variant =
                                   core::SystemVariant::kFullRoload);

// Phase 2: runs `victim` on a fresh machine, injects `kind` mid-execution,
// and classifies the outcome. The victim serves on every hart (one shared
// address space, so every hart dispatches through the same object and
// function-pointer slot), and the corruption lands mid-run while the other
// harts are mid-dispatch. The result records which hart's keyed dispatch
// caught the attack.
//
// `inject_hart` picks whose debug port the arbitrary write goes through
// (must be < harts). The address space is shared, so the verdict, the
// catching hart and the autopsy must not depend on it — the parity test in
// tests/test_smp.cpp pins hart-0 vs hart-(N-1) injection equal.
StatusOr<AttackResult> Attack(const Victim& victim, AttackKind kind,
                              unsigned inject_hart = 0);

// Both phases for one attack: PrepareVictim, then Attack.
StatusOr<AttackResult> RunAttackSmp(AttackKind kind, core::Defense defense,
                                    unsigned harts = 1,
                                    core::SystemVariant variant =
                                        core::SystemVariant::kFullRoload,
                                    unsigned inject_hart = 0);

}  // namespace roload::sec
