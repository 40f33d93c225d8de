// Type-based forward-edge CFI demo (Section IV-B): a function pointer in
// writable memory is corrupted mid-run. The ICall hardening replaces
// function-pointer values with pointers into read-only, type-keyed global
// function-pointer tables (GFPTs, Listing 3) and loads the real target
// with ld.ro — so raw code addresses stop working, and only same-type
// allowlist entries remain reachable (the paper's residual surface).
//
// Build and run:  ./build/examples/icall_cfi
#include <cstdio>

#include "sec/attack.h"

using namespace roload;

int main() {
  std::printf("Attack: function-pointer slot overwritten with the raw "
              "address of attacker code\n");
  for (auto defense : {core::Defense::kNone, core::Defense::kClassicCfi,
                       core::Defense::kICall}) {
    auto result = sec::RunAttackSmp(sec::AttackKind::kFnPtrCorruptToEvil,
                                    defense);
    if (!result.ok()) {
      std::printf("  error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("  defense=%-6s -> %-9s%s\n",
                core::DefenseName(defense).data(),
                sec::AttackOutcomeName(result->outcome).data(),
                result->roload_violation
                    ? "  (ld.ro key check faulted: the slot no longer "
                      "points into the type's GFPT)"
                    : "");
  }

  std::printf("\nAttack: pointee reuse — the slot is redirected to another "
              "LEGITIMATE same-type target\n");
  for (auto defense : {core::Defense::kClassicCfi, core::Defense::kICall}) {
    auto result = sec::RunAttackSmp(sec::AttackKind::kFnPtrReuseSameType,
                                    defense);
    if (!result.ok()) {
      std::printf("  error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("  defense=%-6s -> %s\n", core::DefenseName(defense).data(),
                sec::AttackOutcomeName(result->outcome).data());
  }
  std::printf("\nBoth type-based schemes accept same-type reuse by design — "
              "Section V-D's remaining attack surface. ROLoad's advantage\n"
              "is getting the same policy at hardware speed: the check is "
              "a page-permission test, not inline software.\n");
  return 0;
}
