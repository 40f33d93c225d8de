#include "sec/attack.h"

#include "asmtool/image.h"
#include "audit/audit.h"
#include "ir/builder.h"

namespace roload::sec {
namespace {

constexpr std::int64_t kSentinel = 0xDEAD;
constexpr std::int64_t kSentinelOffset = 40;  // scratch slot used by evil
constexpr std::uint64_t kPauseInstructions = 50000;
constexpr std::uint64_t kVictimIterations = 4000;

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

StatusOr<AttackResult> RunAttackSmp(AttackKind kind, core::Defense defense,
                                    unsigned harts,
                                    core::SystemVariant variant,
                                    unsigned inject_hart) {
  if (inject_hart >= (harts == 0 ? 1u : harts)) {
    return Status::InvalidArgument("inject_hart out of range");
  }
  core::BuildOptions options;
  options.defense = defense;
  auto build = core::Build(MakeVictimModule(), options);
  if (!build.ok()) return build.status();
  const auto& symbols = build->image.symbols;
  auto sym = [&symbols](const std::string& name) -> StatusOr<std::uint64_t> {
    auto it = symbols.find(name);
    if (it == symbols.end()) {
      return Status::NotFound("victim symbol missing: " + name);
    }
    return it->second;
  };

  // Baseline (unattacked) exit code for divergence detection, at the same
  // hart count (the harts cooperatively advance the shared loop counter,
  // so the clean exit code is a function of the interleaving — which the
  // deterministic scheduler makes reproducible).
  std::int64_t baseline_exit = 0;
  {
    core::SystemConfig config;
    config.variant = variant;
    config.harts = harts;
    core::System machine(config);
    ROLOAD_RETURN_IF_ERROR(machine.Load(build->image));
    const kernel::RunResult run = machine.Run();
    if (run.kind != kernel::ExitKind::kExited) {
      return Status::Internal("victim does not run cleanly under " +
                              std::string(core::DefenseName(defense)));
    }
    baseline_exit = run.exit_code;
  }

  core::SystemConfig config;
  config.variant = variant;
  config.harts = harts;
  // Forensics on: a blocked run must explain *how* it was blocked (which
  // ld.ro, which keys disagreed) — that's the evidence the result carries.
  config.trace.audit = true;
  core::System machine(config);
  ROLOAD_RETURN_IF_ERROR(machine.Load(build->image));

  // Phase 1: run the victim into its steady state — on an SMP machine,
  // every hart is mid-dispatch when the corruption lands.
  kernel::RunResult phase1 = machine.Run(kPauseInstructions);
  if (phase1.kind != kernel::ExitKind::kInstructionLimit) {
    return Status::Internal("victim finished before the attack landed");
  }

  // Phase 2: the corruption, through the attacker's arbitrary-write
  // primitive. The address space is shared, so whichever hart's debug port
  // carries the write (`inject_hart`) lands on the same memory — the
  // verdict must not depend on the choice.
  auto write64 = [&machine, inject_hart](std::uint64_t addr,
                                         std::uint64_t value) -> Status {
    if (!machine.cpu(inject_hart).DebugWriteVirt(addr, 8, value)) {
      return Status::Internal("arbitrary write failed");
    }
    return Status::Ok();
  };
  switch (kind) {
    case AttackKind::kVtableInjection: {
      auto buffer = sym("attack_buffer");
      auto evil = sym("evil");
      auto object = sym("the_object");
      if (!buffer.ok()) return buffer.status();
      if (!evil.ok()) return evil.status();
      if (!object.ok()) return object.status();
      ROLOAD_RETURN_IF_ERROR(write64(*buffer, *evil));
      ROLOAD_RETURN_IF_ERROR(write64(*object, *buffer));
      break;
    }
    case AttackKind::kVtableReuseCrossHierarchy: {
      auto other = sym("vt_B0");
      auto object = sym("the_object");
      if (!other.ok()) return other.status();
      if (!object.ok()) return object.status();
      ROLOAD_RETURN_IF_ERROR(write64(*object, *other));
      break;
    }
    case AttackKind::kFnPtrCorruptToEvil: {
      auto evil = sym("evil");
      auto slot = sym("fslot");
      if (!evil.ok()) return evil.status();
      if (!slot.ok()) return slot.status();
      ROLOAD_RETURN_IF_ERROR(write64(*slot, *evil));
      break;
    }
    case AttackKind::kFnPtrReuseSameType: {
      // Under ICall the legitimate pointer format is a GFPT entry; the
      // reuse attack swaps in *another* same-type GFPT entry. Under the
      // other defenses it is the raw address of the same-type function.
      auto target = defense == core::Defense::kICall ? sym("gfpt_cb_second")
                                                     : sym("cb_second");
      auto slot = sym("fslot");
      if (!target.ok()) return target.status();
      if (!slot.ok()) return slot.status();
      ROLOAD_RETURN_IF_ERROR(write64(*slot, *target));
      break;
    }
  }

  // Phase 3: let the victim continue.
  const kernel::RunResult phase3 = machine.Run();

  AttackResult result;
  result.roload_violation = phase3.roload_violation;
  result.signal = phase3.signal;
  result.exit_code = phase3.exit_code;
  result.hart = phase3.hart;
  result.harts = harts;
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
  } else if (phase3.exit_code != baseline_exit) {
    result.outcome = AttackOutcome::kDiverted;
  } else {
    result.outcome = AttackOutcome::kNoEffect;
  }

  // Forensic verdict. The auditor is always attached here, so a fault-path
  // block always comes with an autopsy.
  const audit::Auditor* auditor = machine.audit();
  if (auditor != nullptr && !auditor->autopsies().empty()) {
    const audit::Autopsy& autopsy = auditor->autopsies().back();
    result.has_autopsy = true;
    result.fault_pc = autopsy.fault_pc;
    result.fault_va = autopsy.fault_va;
    result.inst_key = autopsy.inst_key;
    result.pte_key = autopsy.pte_key;
    result.page_mapped = autopsy.page_mapped;
    result.page_writable = autopsy.page_writable;
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
      if (result.has_autopsy && auditor != nullptr) {
        const audit::Autopsy& autopsy = auditor->autopsies().back();
        const std::string site = auditor->NearestSymbol(autopsy.fault_pc);
        result.classification =
            "caught:" + autopsy.classification +
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

}  // namespace roload::sec
