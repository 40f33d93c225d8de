#include "sec/attack.h"

#include <iterator>

#include "asmtool/image.h"
#include "audit/audit.h"
#include "ir/builder.h"

namespace roload::sec {
namespace {

constexpr std::int64_t kSentinel = 0xDEAD;
constexpr std::int64_t kSentinelOffset = 40;  // scratch slot used by evil
constexpr std::uint64_t kPauseInstructions = 50000;
constexpr std::uint64_t kVictimIterations = 4000;

// One arbitrary write of an attack: the address of symbol `value` goes
// into the 8-byte word at symbol `target`.
struct SymbolWrite {
  const char* target;
  const char* value;
};

// The corruption each attack performs, in write order.
std::vector<SymbolWrite> AttackWrites(AttackKind kind,
                                      core::Defense defense) {
  switch (kind) {
    case AttackKind::kVtableInjection:
      // A fake vtable in writable memory whose one entry is evil.
      return {{"attack_buffer", "evil"}, {"the_object", "attack_buffer"}};
    case AttackKind::kVtableReuseCrossHierarchy:
      return {{"the_object", "vt_B0"}};
    case AttackKind::kFnPtrCorruptToEvil:
      return {{"fslot", "evil"}};
    case AttackKind::kFnPtrReuseSameType:
      // Under ICall the legitimate pointer format is a GFPT entry; the
      // reuse attack swaps in *another* same-type GFPT entry. Under the
      // other defenses it is the raw address of the same-type function.
      return {{"fslot", defense == core::Defense::kICall ? "gfpt_cb_second"
                                                         : "cb_second"}};
  }
  return {};
}

}  // namespace

std::string_view AttackKindName(AttackKind kind) {
  switch (kind) {
    case AttackKind::kVtableInjection:
      return "vtable-injection";
    case AttackKind::kVtableReuseCrossHierarchy:
      return "vtable-reuse-cross-hierarchy";
    case AttackKind::kFnPtrCorruptToEvil:
      return "fnptr-corrupt-to-evil";
    case AttackKind::kFnPtrReuseSameType:
      return "fnptr-reuse-same-type";
  }
  return "?";
}

std::string_view AttackOutcomeName(AttackOutcome outcome) {
  switch (outcome) {
    case AttackOutcome::kHijacked:
      return "HIJACKED";
    case AttackOutcome::kBlocked:
      return "blocked";
    case AttackOutcome::kDiverted:
      return "diverted";
    case AttackOutcome::kNoEffect:
      return "no-effect";
  }
  return "?";
}

AttackOutcome PaperOutcome(AttackKind kind, core::Defense defense) {
  constexpr AttackOutcome kH = AttackOutcome::kHijacked;
  constexpr AttackOutcome kB = AttackOutcome::kBlocked;
  constexpr AttackOutcome kD = AttackOutcome::kDiverted;
  // One row per defense (core::kAllDefenses order); the columns are
  // kAttackKinds: vtable injection, cross-hierarchy vtable reuse, fnptr
  // corrupted to attacker code, same-type fnptr reuse.
  constexpr AttackOutcome kTable[][std::size(kAttackKinds)] = {
      // none (V-C2): both hijack primitives work and both reuses divert.
      {kH, kD, kH, kD},
      // VCall (IV-A): per-hierarchy vtable keys block injection and
      // cross-hierarchy reuse; plain function pointers are not covered.
      {kB, kB, kH, kD},
      // VTint (V-C2): read-only vtables block injection only.
      {kB, kD, kH, kD},
      // ICall (IV-B): raw-address hijacks are blocked; the unified vtable
      // key admits cross-hierarchy reuse, and same-type reuse is the
      // residual surface of V-D.
      {kB, kD, kB, kD},
      // CFI (V-C2): label checks block wrong-type targets and admit
      // same-type ones.
      {kB, kD, kB, kD},
  };
  static_assert(std::size(kTable) == std::size(core::kAllDefenses));
  return kTable[static_cast<std::size_t>(defense)]
               [static_cast<std::size_t>(kind)];
}

ir::Module MakeVictimModule() {
  ir::Module module;
  module.name = "victim";
  const int hier_a = module.InternClass("HierA");
  const int hier_b = module.InternClass("HierB");
  const int vcall_type = module.InternFnType("i64(ptr,i64)");
  const int cb_type = module.InternFnType("i64(i64)#cb");
  const int evil_type = module.InternFnType("i64(i64,i64,i64)#evil");

  // Victim object of hierarchy A.
  ir::Global object;
  object.name = "the_object";
  object.quads.push_back(ir::GlobalInit{0, "vt_A0"});
  object.quads.push_back(ir::GlobalInit{7, ""});
  module.globals.push_back(object);

  // Hierarchy A vtables (two classes) and hierarchy B (reuse target).
  for (const auto& [vt_name, method, hier] :
       {std::tuple{"vt_A0", "m_A0", hier_a}, {"vt_A1", "m_A1", hier_a},
        {"vt_B0", "m_B0", hier_b}}) {
    ir::Global vtable;
    vtable.name = vt_name;
    vtable.read_only = true;
    vtable.trait = ir::GlobalTrait::kVTable;
    vtable.trait_id = hier;
    vtable.quads.push_back(ir::GlobalInit{0, method});
    module.globals.push_back(vtable);
  }

  // Writable function-pointer slot and its initial target.
  ir::Global fslot;
  fslot.name = "fslot";
  fslot.quads.push_back(ir::GlobalInit{0, "cb_first"});
  module.globals.push_back(fslot);

  // Attacker-controlled writable buffer (the fake vtable) and scratch.
  ir::Global buffer;
  buffer.name = "attack_buffer";
  buffer.zero_bytes = 64;
  module.globals.push_back(buffer);
  ir::Global scratch;
  scratch.name = "scratch";
  scratch.zero_bytes = 64;
  module.globals.push_back(scratch);

  // Methods: distinct constants so diversion changes the checksum.
  for (const auto& [name, constant] :
       {std::pair{"m_A0", 11}, {"m_A1", 13}, {"m_B0", 17}}) {
    ir::FunctionBuilder b(&module, name, "i64(ptr,i64)", 2);
    b.Ret(b.BinImm(ir::BinOp::kXor,
                   b.BinImm(ir::BinOp::kAdd, b.Param(1), constant), 3));
  }
  (void)vcall_type;

  // Two same-type callbacks (reuse pair) and the attacker function.
  {
    ir::FunctionBuilder b(&module, "cb_first", "i64(i64)#cb", 1);
    b.Ret(b.BinImm(ir::BinOp::kAdd, b.Param(0), 101));
  }
  {
    ir::FunctionBuilder b(&module, "cb_second", "i64(i64)#cb", 1);
    b.Ret(b.BinImm(ir::BinOp::kAdd, b.Param(0), 203));
  }
  {
    // evil: records the sentinel, then behaves like a callback so the run
    // continues (a real payload would do worse).
    ir::FunctionBuilder b(&module, "evil", "i64(i64,i64,i64)#evil", 3);
    const int s = b.AddrOf("scratch");
    b.Store(s, b.Const(kSentinel), kSentinelOffset);
    b.Ret(b.BinImm(ir::BinOp::kAdd, b.Param(0), 999));
  }
  // Keep cb_second and evil address-taken so they exist in GFPTs/ID space
  // like real program functions would.
  ir::Global extra_table;
  extra_table.name = "extra_fns";
  extra_table.quads.push_back(ir::GlobalInit{0, "cb_second"});
  extra_table.quads.push_back(ir::GlobalInit{0, "evil"});
  module.globals.push_back(extra_table);

  // main: loop of vcall + icall.
  {
    ir::FunctionBuilder b(&module, "main", "i64()", 0);
    {
      const int s = b.AddrOf("scratch");
      b.Store(s, b.Const(0), 0);
      b.Store(s, b.Const(1), 8);
      b.Br("loop");
    }
    b.SetBlock("loop");
    {
      const int s = b.AddrOf("scratch");
      const int i = b.Load(s, 0);
      const int cond = b.BinImm(ir::BinOp::kSltu, i,
                                static_cast<std::int64_t>(kVictimIterations));
      b.CondBr(cond, "body", "done");
    }
    b.SetBlock("body");
    {
      const int s = b.AddrOf("scratch");
      const int i = b.Load(s, 0);
      const int acc = b.Load(s, 8);
      // Virtual dispatch on the object.
      const int obj = b.AddrOf("the_object");
      const int vptr = b.Load(obj, 0, 8, ir::Trait::kVPtrLoad, hier_a);
      const int method =
          b.Load(vptr, 0, 8, ir::Trait::kVTableEntryLoad, hier_a);
      const int r1 = b.ICall(method, {obj, acc}, vcall_type,
                             /*has_result=*/true, /*is_vcall=*/true);
      // Indirect callback call.
      const int slot = b.AddrOf("fslot");
      const int fn = b.Load(slot, 0, 8, ir::Trait::kFnPtrLoad, cb_type);
      const int r2 = b.ICall(fn, {r1}, cb_type);
      b.Store(s, r2, 8);
      b.Store(s, b.BinImm(ir::BinOp::kAdd, i, 1), 0);
      b.Br("loop");
    }
    b.SetBlock("done");
    {
      const int s = b.AddrOf("scratch");
      const int acc = b.Load(s, 8);
      b.Ret(b.BinImm(ir::BinOp::kAnd, acc, 63));
    }
  }
  (void)evil_type;
  module.RecomputeAddressTaken();
  return module;
}

StatusOr<Victim> PrepareVictim(core::Defense defense, unsigned harts,
                               core::SystemVariant variant) {
  core::BuildOptions options;
  options.defense = defense;
  auto build = core::Build(MakeVictimModule(), options);
  if (!build.ok()) return build.status();
  auto clean = core::RunBuild(*build, variant, 1ull << 34, {},
                              cpu::ExecTier::kTranslated, harts);
  if (!clean.ok()) return clean.status();
  if (!clean->completed) {
    return Status::Internal("victim does not run cleanly under " +
                            std::string(core::DefenseName(defense)));
  }
  return Victim{std::move(*build), clean->exit_code, harts, variant};
}

StatusOr<AttackResult> Attack(const Victim& victim, AttackKind kind,
                              unsigned inject_hart) {
  if (inject_hart >= (victim.harts == 0 ? 1u : victim.harts)) {
    return Status::InvalidArgument("inject_hart out of range");
  }
  const auto& symbols = victim.build.image.symbols;
  auto sym = [&symbols](const std::string& name) -> StatusOr<std::uint64_t> {
    auto it = symbols.find(name);
    if (it == symbols.end()) {
      return Status::NotFound("victim symbol missing: " + name);
    }
    return it->second;
  };

  core::SystemConfig config;
  config.variant = victim.variant;
  config.harts = victim.harts;
  // Forensics on: a blocked run must explain *how* it was blocked (which
  // ld.ro, which keys disagreed) — that's the evidence the result carries.
  config.trace.audit = true;
  core::System machine(config);
  ROLOAD_RETURN_IF_ERROR(machine.Load(victim.build.image));

  // Run the victim into its steady state — on an SMP machine, every hart
  // is mid-dispatch when the corruption lands.
  kernel::RunResult phase1 = machine.Run(kPauseInstructions);
  if (phase1.kind != kernel::ExitKind::kInstructionLimit) {
    return Status::Internal("victim finished before the attack landed");
  }

  // The corruption, through the attacker's arbitrary-write primitive. The
  // address space is shared, so whichever hart's debug port carries the
  // write (`inject_hart`) lands on the same memory — the verdict must not
  // depend on the choice.
  for (const SymbolWrite& write :
       AttackWrites(kind, victim.build.options.defense)) {
    auto value = sym(write.value);
    if (!value.ok()) return value.status();
    auto target = sym(write.target);
    if (!target.ok()) return target.status();
    if (!machine.cpu(inject_hart).DebugWriteVirt(*target, 8, *value)) {
      return Status::Internal("arbitrary write failed");
    }
  }

  // Let the victim continue.
  const kernel::RunResult phase3 = machine.Run();

  AttackResult result;
  result.roload_violation = phase3.roload_violation;
  result.signal = phase3.signal;
  result.exit_code = phase3.exit_code;
  result.hart = phase3.hart;
  result.harts = victim.harts;
  result.inject_hart = inject_hart;

  std::uint64_t sentinel = 0;
  auto scratch = sym("scratch");
  if (scratch.ok()) {
    machine.cpu(0).DebugReadVirt(
        *scratch + static_cast<std::uint64_t>(kSentinelOffset), 8, &sentinel);
  }

  if (sentinel == static_cast<std::uint64_t>(kSentinel)) {
    result.outcome = AttackOutcome::kHijacked;
  } else if (phase3.kind == kernel::ExitKind::kKilled) {
    result.outcome = AttackOutcome::kBlocked;
  } else if (phase3.kind == kernel::ExitKind::kExited &&
             phase3.exit_code == 134) {
    result.outcome = AttackOutcome::kBlocked;  // CFI/VTint abort path
  } else if (phase3.exit_code != victim.clean_exit) {
    result.outcome = AttackOutcome::kDiverted;
  } else {
    result.outcome = AttackOutcome::kNoEffect;
  }

  // Forensic verdict. The auditor is always attached here, so a fault-path
  // block always comes with an autopsy.
  const audit::Auditor* auditor = machine.audit();
  if (auditor != nullptr && !auditor->autopsies().empty()) {
    result.autopsy = auditor->autopsies().back();
  }
  switch (result.outcome) {
    case AttackOutcome::kHijacked:
      result.classification = "missed:hijacked";
      break;
    case AttackOutcome::kDiverted:
      result.classification = "diverted:in-allowlist";
      break;
    case AttackOutcome::kNoEffect:
      result.classification = "no-effect";
      break;
    case AttackOutcome::kBlocked:
      if (result.autopsy) {
        const std::string& site = result.autopsy->fault_symbol;
        result.classification = "caught:" + result.autopsy->classification +
                                (site.empty() ? "" : "@" + site);
      } else if (phase3.kind == kernel::ExitKind::kExited) {
        result.classification = "caught:cfi-abort";
      } else {
        result.classification = "caught:signal";
      }
      break;
  }
  result.counters = machine.trace().counters().Snapshot();
  return result;
}

StatusOr<AttackResult> RunAttackSmp(AttackKind kind, core::Defense defense,
                                    unsigned harts,
                                    core::SystemVariant variant,
                                    unsigned inject_hart) {
  auto victim = PrepareVictim(defense, harts, variant);
  if (!victim.ok()) return victim.status();
  return Attack(*victim, kind, inject_hart);
}

}  // namespace roload::sec
