// VTable-hijacking demo (Section IV-A): the same victim binary is attacked
// with and without the VCall defense. Without it, the injected fake vtable
// redirects virtual dispatch into attacker code; with it, the ld.ro key
// check faults on the writable fake vtable and the kernel kills the
// process with SIGSEGV.
//
// Build and run:  ./build/examples/vcall_protection
#include <cstdio>

#include "sec/attack.h"

using namespace roload;

namespace {

void Narrate(sec::AttackKind kind, core::Defense defense) {
  auto result = sec::RunAttackSmp(kind, defense);
  if (!result.ok()) {
    std::printf("  error: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("  defense=%-6s -> %s", core::DefenseName(defense).data(),
              sec::AttackOutcomeName(result->outcome).data());
  switch (result->outcome) {
    case sec::AttackOutcome::kHijacked:
      std::printf("  (attacker function executed!)");
      break;
    case sec::AttackOutcome::kBlocked:
      if (result->roload_violation) {
        std::printf("  (ROLoad page fault -> SIGSEGV, cause distinguishable"
                    " by the kernel)");
      } else {
        std::printf("  (killed with signal %d / CFI abort)", result->signal);
      }
      break;
    case sec::AttackOutcome::kDiverted:
      std::printf("  (stayed inside the allowlist; computation altered)");
      break;
    case sec::AttackOutcome::kNoEffect:
      std::printf("  (no observable effect)");
      break;
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("Attack 1: vtable injection — vptr redirected to a writable "
              "fake vtable holding &evil\n");
  for (auto defense : {core::Defense::kNone, core::Defense::kVTint,
                       core::Defense::kVCall}) {
    Narrate(sec::AttackKind::kVtableInjection, defense);
  }

  std::printf("\nAttack 2: COOP-style vtable reuse — vptr redirected to a "
              "legitimate vtable of another class hierarchy\n");
  for (auto defense : {core::Defense::kNone, core::Defense::kVTint,
                       core::Defense::kVCall}) {
    Narrate(sec::AttackKind::kVtableReuseCrossHierarchy, defense);
  }

  std::printf("\nVCall blocks both: the fake vtable is writable (read-only "
              "check), and the foreign vtable lives in a page keyed for a\n"
              "different class hierarchy (key check). VTint, which only "
              "checks read-only-ness, stops the injection but not the "
              "reuse —\nthe security gap the paper's VCall closes at lower "
              "runtime cost.\n");
  return 0;
}
