#include "cpu/cpu.h"

#include <type_traits>

#include "support/bits.h"
#include "support/status.h"

namespace roload::cpu {
namespace {

// Superblock terminators: unconditional transfers and environment ops end
// a block (conditional branches continue fall-through; execution exits on
// divergence).
bool EndsBlock(isa::Opcode op) {
  return op == isa::Opcode::kJal || op == isa::Opcode::kJalr ||
         op == isa::Opcode::kEcall || op == isa::Opcode::kEbreak;
}

// Sign-extends the low 32 bits (the RV64 *W result rule).
inline std::uint64_t SextW(std::uint64_t value) {
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(static_cast<std::int32_t>(value)));
}

// The one definition of every ALU, M-extension, lui and auipc op (kAddi
// through kAuipc, which the opcode enum keeps contiguous). Writes the
// result to *rd, adds any multi-cycle latency to *latency and returns
// true; returns false, touching nothing, for every other opcode. Both
// executors call it ahead of their own control/memory/system switch, so
// an ALU op pays one jump table and any other op one compare.
template <typename Cycles>
[[gnu::always_inline]] inline bool ExecAlu(const isa::Instruction& inst,
                                           std::uint64_t pc, std::uint64_t rs1,
                                           std::uint64_t rs2,
                                           const CpuConfig& config,
                                           std::uint64_t* rd, Cycles* latency) {
  using isa::Opcode;
  if (inst.op > Opcode::kAuipc) return false;
  const auto imm = static_cast<std::uint64_t>(inst.imm);
  switch (inst.op) {
    case Opcode::kAddi:
      *rd = rs1 + imm;
      return true;
    case Opcode::kSlti:
      *rd = static_cast<std::int64_t>(rs1) < inst.imm ? 1 : 0;
      return true;
    case Opcode::kSltiu:
      *rd = rs1 < imm ? 1 : 0;
      return true;
    case Opcode::kXori:
      *rd = rs1 ^ imm;
      return true;
    case Opcode::kOri:
      *rd = rs1 | imm;
      return true;
    case Opcode::kAndi:
      *rd = rs1 & imm;
      return true;
    case Opcode::kSlli:
      *rd = rs1 << (imm & 63);
      return true;
    case Opcode::kSrli:
      *rd = rs1 >> (imm & 63);
      return true;
    case Opcode::kSrai:
      *rd = static_cast<std::uint64_t>(static_cast<std::int64_t>(rs1) >>
                                       (imm & 63));
      return true;
    case Opcode::kAddiw:
      *rd = SextW(rs1 + imm);
      return true;
    case Opcode::kSlliw:
      *rd = SextW(rs1 << (imm & 31));
      return true;
    case Opcode::kSrliw:
      *rd = SextW(static_cast<std::uint32_t>(rs1) >> (imm & 31));
      return true;
    case Opcode::kSraiw:
      *rd = SextW(static_cast<std::uint64_t>(static_cast<std::int32_t>(rs1) >>
                                             (imm & 31)));
      return true;
    case Opcode::kAdd:
      *rd = rs1 + rs2;
      return true;
    case Opcode::kSub:
      *rd = rs1 - rs2;
      return true;
    case Opcode::kSll:
      *rd = rs1 << (rs2 & 63);
      return true;
    case Opcode::kSlt:
      *rd = static_cast<std::int64_t>(rs1) < static_cast<std::int64_t>(rs2)
                ? 1
                : 0;
      return true;
    case Opcode::kSltu:
      *rd = rs1 < rs2 ? 1 : 0;
      return true;
    case Opcode::kXor:
      *rd = rs1 ^ rs2;
      return true;
    case Opcode::kSrl:
      *rd = rs1 >> (rs2 & 63);
      return true;
    case Opcode::kSra:
      *rd = static_cast<std::uint64_t>(static_cast<std::int64_t>(rs1) >>
                                       (rs2 & 63));
      return true;
    case Opcode::kOr:
      *rd = rs1 | rs2;
      return true;
    case Opcode::kAnd:
      *rd = rs1 & rs2;
      return true;
    case Opcode::kAddw:
      *rd = SextW(rs1 + rs2);
      return true;
    case Opcode::kSubw:
      *rd = SextW(rs1 - rs2);
      return true;
    case Opcode::kSllw:
      *rd = SextW(rs1 << (rs2 & 31));
      return true;
    case Opcode::kSrlw:
      *rd = SextW(static_cast<std::uint32_t>(rs1) >> (rs2 & 31));
      return true;
    case Opcode::kSraw:
      *rd = SextW(static_cast<std::uint64_t>(static_cast<std::int32_t>(rs1) >>
                                             (rs2 & 31)));
      return true;
    case Opcode::kMul:
      *latency += config.mul_cycles;
      *rd = rs1 * rs2;
      return true;
    case Opcode::kMulw:
      *latency += config.mul_cycles;
      *rd = SextW(rs1 * rs2);
      return true;
    // Division never traps: RISC-V defines x/0 as all ones (x%0 = x) and
    // the signed overflow MIN/-1 as MIN (MIN%-1 = 0).
    case Opcode::kDiv: {
      *latency += config.div_cycles;
      const auto a = static_cast<std::int64_t>(rs1);
      const auto b = static_cast<std::int64_t>(rs2);
      *rd = b == 0                        ? ~std::uint64_t{0}
            : (a == INT64_MIN && b == -1) ? rs1
                                          : static_cast<std::uint64_t>(a / b);
      return true;
    }
    case Opcode::kDivu:
      *latency += config.div_cycles;
      *rd = rs2 == 0 ? ~std::uint64_t{0} : rs1 / rs2;
      return true;
    case Opcode::kRem: {
      *latency += config.div_cycles;
      const auto a = static_cast<std::int64_t>(rs1);
      const auto b = static_cast<std::int64_t>(rs2);
      *rd = b == 0                        ? rs1
            : (a == INT64_MIN && b == -1) ? 0
                                          : static_cast<std::uint64_t>(a % b);
      return true;
    }
    case Opcode::kRemu:
      *latency += config.div_cycles;
      *rd = rs2 == 0 ? rs1 : rs1 % rs2;
      return true;
    case Opcode::kDivw: {
      *latency += config.div_cycles;
      const auto a = static_cast<std::int32_t>(rs1);
      const auto b = static_cast<std::int32_t>(rs2);
      const std::int32_t q = b == 0                        ? -1
                             : (a == INT32_MIN && b == -1) ? a
                                                           : a / b;
      *rd = SextW(static_cast<std::uint64_t>(q));
      return true;
    }
    case Opcode::kRemw: {
      *latency += config.div_cycles;
      const auto a = static_cast<std::int32_t>(rs1);
      const auto b = static_cast<std::int32_t>(rs2);
      const std::int32_t r = b == 0                        ? a
                             : (a == INT32_MIN && b == -1) ? 0
                                                           : a % b;
      *rd = SextW(static_cast<std::uint64_t>(r));
      return true;
    }
    case Opcode::kLui:
      *rd = static_cast<std::uint64_t>(inst.imm << 12);
      return true;
    case Opcode::kAuipc:
      *rd = pc + static_cast<std::uint64_t>(inst.imm << 12);
      return true;
    default:
      return false;
  }
}

// The one definition of the six conditional-branch conditions.
[[gnu::always_inline]] inline bool BranchTaken(isa::Opcode op,
                                               std::uint64_t rs1,
                                               std::uint64_t rs2) {
  switch (op) {
    case isa::Opcode::kBeq:
      return rs1 == rs2;
    case isa::Opcode::kBne:
      return rs1 != rs2;
    case isa::Opcode::kBlt:
      return static_cast<std::int64_t>(rs1) < static_cast<std::int64_t>(rs2);
    case isa::Opcode::kBge:
      return static_cast<std::int64_t>(rs1) >= static_cast<std::int64_t>(rs2);
    case isa::Opcode::kBltu:
      return rs1 < rs2;
    case isa::Opcode::kBgeu:
      return rs1 >= rs2;
    default:
      return false;
  }
}

// Compile-time access kind of a block memory micro-op.
template <tlb::AccessType A>
using AccessTag = std::integral_constant<tlb::AccessType, A>;

}  // namespace

void SetHostFastPaths(CpuConfig* config, bool enabled) {
  config->host_decode_cache = enabled;
  config->icache.host_fast_path = enabled;
  config->dcache.host_fast_path = enabled;
  config->itlb.host_indexed_lookup = enabled;
  config->dtlb.host_indexed_lookup = enabled;
}

void SetExecTier(CpuConfig* config, ExecTier tier) {
  SetHostFastPaths(config, tier == ExecTier::kTranslated);
  config->host_translate = tier == ExecTier::kTranslated;
}

std::string_view ExecTierName(ExecTier tier) {
  switch (tier) {
    case ExecTier::kInterp:
      return "interp";
    case ExecTier::kTranslated:
      return "translated";
  }
  return "?";
}

std::optional<ExecTier> ParseExecTier(std::string_view name) {
  if (name == "interp") return ExecTier::kInterp;
  if (name == "translated") return ExecTier::kTranslated;
  return std::nullopt;
}

Cpu::Cpu(const CpuConfig& config, mem::PhysMemory* memory)
    : config_(config),
      memory_(memory),
      icache_(config.icache),
      dcache_(config.dcache),
      itlb_(config.itlb, memory),
      dtlb_(config.dtlb, memory) {
  if (config.host_decode_cache) decode_cache_.resize(kDecodeCacheSlots);
  if (config.host_translate) {
    translator_ = std::make_unique<Translator>(config.translate_threshold);
    code_table_ = std::make_shared<CodeVersionTable>(memory->size());
    code_table_ptr_ = code_table_.get();
  }
}

void Cpu::set_reg(unsigned index, std::uint64_t value) {
  ROLOAD_CHECK(index < isa::kNumRegs);
  if (index != 0) regs_[index] = value;
}

void Cpu::FlushTlbs() {
  itlb_.Flush();
  dtlb_.Flush();
  if (code_table_ptr_ != nullptr) code_table_ptr_->Advance();
  // The sfence.vma analogue also drops host-cached decodes: a remap can
  // change the bytes behind an unchanged pc, and a same-bytes remap must
  // not resurrect a decode taken under dropped translations.
  InvalidateDecodeCache();
  // Same reasoning for translated blocks: a flush signals PTE edits
  // (remap, mprotect re-key, shootdown), so drop them all. Flushes only
  // happen between blocks (kernel code runs between Run calls), so no
  // block is mid-replay and no chain source is live.
  if (translator_ != nullptr) translator_->InvalidateAll();
}

void Cpu::InvalidateDecodeCache() {
  if (++decode_generation_ == 0) {
    // Generation wrapped: scrub the slots so pre-wrap entries can never
    // alias the restarted counter.
    for (DecodeSlot& slot : decode_cache_) slot = DecodeSlot{};
    decode_generation_ = 1;
  }
}

void Cpu::set_trace(trace::Hub* hub) {
  trace_ = hub;
  itlb_.set_trace(hub, trace::Unit::kITlb);
  dtlb_.set_trace(hub, trace::Unit::kDTlb);
  icache_.set_trace(hub, trace::Unit::kICache);
  dcache_.set_trace(hub, trace::Unit::kDCache);
  if (hub != nullptr && hub->config().jit && translator_ != nullptr) {
    translator_->EnableJitStats();
  }
}

void Cpu::RaiseTrap(isa::TrapCause cause, std::uint64_t tval) {
  pending_trap_ = isa::Trap{cause, tval};
}

bool Cpu::FetchDecode(isa::Instruction* inst, unsigned* cycles) {
  if ((pc_ & 1) != 0) {
    RaiseTrap(isa::TrapCause::kInstructionAddressMisaligned, pc_);
    return false;
  }
  const bool profiling = trace_ != nullptr && trace_->profiling();
  auto low = itlb_.Translate(root_ppn_, pc_, tlb::AccessType::kFetch, 0);
  *cycles += low.cycles;
  if (profiling) {
    trace_->profiler().Charge(trace::CycleBucket::kITlbWalk, low.cycles);
  }
  if (!low.ok) {
    RaiseTrap(low.cause, pc_);
    return false;
  }
  if (!memory_->Contains(low.phys_addr, 2)) {
    RaiseTrap(isa::TrapCause::kInstructionAccessFault, pc_);
    return false;
  }
  const unsigned ifetch_cycles = icache_.Access(low.phys_addr, /*write=*/false);
  *cycles += ifetch_cycles;
  if (profiling) {
    // The hit latency is part of ordinary execution; only the fill beyond
    // it is a miss stall.
    trace_->profiler().Charge(trace::CycleBucket::kICacheMiss,
                              ifetch_cycles - config_.icache.hit_cycles);
  }

  std::uint32_t raw =
      static_cast<std::uint32_t>(memory_->ReadUnchecked(low.phys_addr, 2));
  const unsigned length = isa::ParcelLength(static_cast<std::uint16_t>(raw));
  if (length == 4) {
    // The upper half may live on the next page.
    std::uint64_t upper_phys = low.phys_addr + 2;
    if (((pc_ + 2) & (mem::kPageSize - 1)) == 0) {
      auto high =
          itlb_.Translate(root_ppn_, pc_ + 2, tlb::AccessType::kFetch, 0);
      *cycles += high.cycles;
      if (profiling) {
        trace_->profiler().Charge(trace::CycleBucket::kITlbWalk,
                                  high.cycles);
      }
      if (!high.ok) {
        RaiseTrap(high.cause, pc_ + 2);
        return false;
      }
      upper_phys = high.phys_addr;
      const unsigned upper_cycles =
          icache_.Access(upper_phys, /*write=*/false);
      *cycles += upper_cycles;
      if (profiling) {
        trace_->profiler().Charge(trace::CycleBucket::kICacheMiss,
                                  upper_cycles - config_.icache.hit_cycles);
      }
    }
    if (!memory_->Contains(upper_phys, 2)) {
      RaiseTrap(isa::TrapCause::kInstructionAccessFault, pc_);
      return false;
    }
    raw |= static_cast<std::uint32_t>(memory_->ReadUnchecked(upper_phys, 2))
           << 16;
  }

  DecodeSlot* slot = nullptr;
  if (config_.host_decode_cache) {
    slot = &decode_cache_[(pc_ >> 1) & (kDecodeCacheSlots - 1)];
    if (slot->generation == decode_generation_ && slot->pc == pc_ &&
        slot->raw == raw) {
      *inst = slot->inst;
      return true;
    }
  }

  auto decoded = isa::Decode(raw);
  if (!decoded) {
    RaiseTrap(isa::TrapCause::kIllegalInstruction, raw);
    return false;
  }
  // The unmodified baseline core has no ROLoad decoder: the custom-0 and
  // reserved-RVC encodings are illegal instructions there.
  if (!config_.roload_enabled && isa::IsRoLoad(decoded->op)) {
    RaiseTrap(isa::TrapCause::kIllegalInstruction, raw);
    return false;
  }
  // Only successful decodes are cached, so the roload_enabled rejection
  // (fixed per Cpu) can never be skipped by a hit.
  if (slot != nullptr) {
    slot->pc = pc_;
    slot->raw = raw;
    slot->generation = decode_generation_;
    slot->inst = *decoded;
  }
  *inst = *decoded;
  return true;
}

bool Cpu::MemAccess(const isa::Instruction& inst, std::uint64_t virt_addr,
                    bool write, std::uint64_t* value, unsigned* cycles) {
  const unsigned bytes = isa::MemAccessBytes(inst.op);
  if ((virt_addr & (bytes - 1)) != 0) {
    RaiseTrap(write ? isa::TrapCause::kStoreAddressMisaligned
                    : isa::TrapCause::kLoadAddressMisaligned,
              virt_addr);
    return false;
  }
  const tlb::AccessType access =
      write ? tlb::AccessType::kStore
            : (isa::IsRoLoad(inst.op) ? tlb::AccessType::kRoLoad
                                      : tlb::AccessType::kLoad);
  const bool profiling = trace_ != nullptr && trace_->profiling();
  auto xlat = dtlb_.Translate(root_ppn_, virt_addr, access, inst.key);
  *cycles += xlat.cycles;
  if (profiling) {
    trace_->profiler().Charge(trace::CycleBucket::kDTlbWalk, xlat.cycles);
  }
  if (access == tlb::AccessType::kRoLoad && trace_ != nullptr &&
      trace_->enabled(trace::EventCategory::kRoLoad)) {
    // Dispatch-census feed: one record per executed ld.ro site, pass or
    // fail, with the outcome packed over the static key (see
    // EventType::kRoLoadCheck). The CPU emits it (not the TLB) because
    // only the CPU knows the site pc.
    const std::uint64_t outcome =
        xlat.ok ? 0 : static_cast<std::uint64_t>(xlat.roload_fail_kind);
    trace_->Emit(trace::Unit::kCpu, trace::EventCategory::kRoLoad,
                 trace::EventType::kRoLoadCheck, pc_, virt_addr,
                 (outcome << 16) | inst.key);
  }
  if (!xlat.ok) {
    RaiseTrap(xlat.cause, virt_addr);
    return false;
  }
  if (!memory_->Contains(xlat.phys_addr, bytes)) {
    RaiseTrap(write ? isa::TrapCause::kStoreAccessFault
                    : isa::TrapCause::kLoadAccessFault,
              virt_addr);
    return false;
  }
  const unsigned dcache_cycles = dcache_.Access(xlat.phys_addr, write);
  *cycles += dcache_cycles;
  if (profiling) {
    trace_->profiler().Charge(trace::CycleBucket::kDCacheMiss,
                              dcache_cycles - config_.dcache.hit_cycles);
  }
  if (write) {
    memory_->WriteUnchecked(xlat.phys_addr, bytes, *value);
    // Self-modifying-code barrier for the translation tier (no-op unless
    // the page holds translated code; stores are size-aligned, so one
    // page covers the whole access).
    if (code_table_ptr_ != nullptr) code_table_ptr_->OnWrite(xlat.phys_addr);
  } else {
    std::uint64_t raw = memory_->ReadUnchecked(xlat.phys_addr, bytes);
    if (!isa::LoadIsUnsigned(inst.op) && bytes < 8) {
      raw = static_cast<std::uint64_t>(
          SignExtend(raw, bytes * 8));
    }
    *value = raw;
  }
  return true;
}

StepEvent Cpu::Step() {
  isa::Instruction inst;
  unsigned cycles = 0;
  // An interpreted step can evict I-TLB entries and I-cache lines (its
  // fetch runs the real lookup paths), so every proven block guard may be
  // stale afterwards — advance the epoch so re-entries re-prove.
  if (code_table_ptr_ != nullptr) code_table_ptr_->Advance();
  const bool profiling = trace_ != nullptr && trace_->profiling();
  const std::uint64_t step_pc = pc_;
  if (profiling) trace_->profiler().BeginStep();
  if (!FetchDecode(&inst, &cycles)) {
    stats_.cycles += cycles + 1;
    if (profiling) {
      trace_->profiler().EndStep(trace::CycleBucket::kTrap, step_pc,
                                 cycles + 1);
    }
    return StepEvent::kTrap;
  }
  if (trace_hook_) trace_hook_(pc_, inst);
  return ExecuteDecoded(inst, cycles);
}

StepEvent Cpu::ExecuteDecoded(const isa::Instruction& inst, unsigned cycles) {
  return ExecuteDecodedImpl<false>(inst, cycles);
}

template <bool kLean>
StepEvent Cpu::ExecuteDecodedImpl(const isa::Instruction& inst,
                                  unsigned cycles) {
  // kLean runs strictly under TranslationTransparent(), where profiling is
  // guaranteed off — fold the checks away at compile time.
  const bool profiling =
      !kLean && trace_ != nullptr && trace_->profiling();
  const std::uint64_t step_pc = pc_;
  const std::uint64_t next_pc = pc_ + inst.length;
  std::uint64_t new_pc = next_pc;
  const std::uint64_t rs1 = regs_[inst.rs1];
  const std::uint64_t rs2 = regs_[inst.rs2];
  std::uint64_t rd_value = 0;
  bool writes_rd = true;

  using isa::Opcode;
  if (!ExecAlu(inst, pc_, rs1, rs2, config_, &rd_value, &cycles)) {
    switch (inst.op) {
      case Opcode::kJal:
        rd_value = next_pc;
        new_pc = pc_ + static_cast<std::uint64_t>(inst.imm);
        cycles += config_.taken_branch_cycles;
        break;
      case Opcode::kJalr:
        rd_value = next_pc;
        new_pc =
            (rs1 + static_cast<std::uint64_t>(inst.imm)) & ~std::uint64_t{1};
        cycles += config_.taken_branch_cycles;
        ++stats_.indirect_jumps;
        break;
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
        writes_rd = false;
        ++stats_.branches;
        if (BranchTaken(inst.op, rs1, rs2)) {
          ++stats_.taken_branches;
          new_pc = pc_ + static_cast<std::uint64_t>(inst.imm);
          cycles += config_.taken_branch_cycles;
        }
        break;
      case Opcode::kLb:
      case Opcode::kLh:
      case Opcode::kLw:
      case Opcode::kLd:
      case Opcode::kLbu:
      case Opcode::kLhu:
      case Opcode::kLwu:
      case Opcode::kLbRo:
      case Opcode::kLhRo:
      case Opcode::kLwRo:
      case Opcode::kLdRo:
      case Opcode::kCLdRo: {
        // ROLoad-family addresses are (rs1) with no offset; inst.imm is 0
        // for them by decode construction, so the same expression serves
        // both.
        const std::uint64_t addr = rs1 + static_cast<std::uint64_t>(inst.imm);
        ++stats_.loads;
        if (isa::IsRoLoad(inst.op)) ++stats_.roload_loads;
        if (!MemAccess(inst, addr, /*write=*/false, &rd_value, &cycles)) {
          goto trap;
        }
        break;
      }
      case Opcode::kSb:
      case Opcode::kSh:
      case Opcode::kSw:
      case Opcode::kSd: {
        writes_rd = false;
        ++stats_.stores;
        const std::uint64_t addr = rs1 + static_cast<std::uint64_t>(inst.imm);
        std::uint64_t value = rs2;
        if (!MemAccess(inst, addr, /*write=*/true, &value, &cycles)) {
          goto trap;
        }
        break;
      }
      case Opcode::kEcall:
        // Retires like any instruction; the kernel then services it.
        writes_rd = false;
        break;
      case Opcode::kEbreak:
        RaiseTrap(isa::TrapCause::kBreakpoint, pc_);
        goto trap;
      case Opcode::kFence:
        writes_rd = false;
        break;
      default:  // the ALU opcodes, executed by ExecAlu above
        break;
    }
  }

  if (writes_rd && inst.rd != 0) regs_[inst.rd] = rd_value;
  pc_ = new_pc;
  stats_.cycles += cycles + 1;
  ++stats_.instructions;
  // Lean mode is only entered with kInstruction events masked and the
  // profiler off, so this whole tail is statically dead there.
  if (!kLean && trace_ != nullptr) {
    if (profiling) {
      // A ld.ro's own execution cycles form the "roload_load" bucket —
      // the direct cost of the checked-load path (Fig 3/4 decomposition).
      trace::CycleBucket bucket = trace::CycleBucket::kCompute;
      if (inst.op == Opcode::kEcall) {
        bucket = trace::CycleBucket::kSyscall;
      } else if (isa::IsRoLoad(inst.op)) {
        bucket = trace::CycleBucket::kRoLoadLoad;
      }
      trace_->profiler().EndStep(bucket, step_pc, cycles + 1);
    }
    if (trace_->enabled(trace::EventCategory::kInstruction)) {
      trace_->Emit(trace::Unit::kCpu, trace::EventCategory::kInstruction,
                   trace::EventType::kRetire, step_pc, 0,
                   static_cast<std::uint64_t>(inst.op));
    }
  }
  return inst.op == Opcode::kEcall ? StepEvent::kEcall : StepEvent::kRetired;

trap:
  // A faulting load/store or an ebreak: its cycles are charged, but it
  // does not retire and pc stays at the trapping instruction.
  stats_.cycles += cycles + 1;
  if (profiling) {
    trace_->profiler().EndStep(trace::CycleBucket::kTrap, step_pc,
                               cycles + 1);
  }
  return StepEvent::kTrap;
}

bool Cpu::TranslationTransparent() const {
  if (translator_ == nullptr) return false;
  // A per-retire hook, the cycle profiler, or per-instruction retire
  // events all observe individual fetch/decode steps — interpret so they
  // see exactly the reference stream. TLB/cache/roload event categories
  // stay exact under translation (hits emit no events; misses and the
  // whole data side run the real paths), so they do not deopt.
  if (trace_hook_) return false;
  if (trace_ != nullptr &&
      (trace_->profiling() ||
       trace_->enabled(trace::EventCategory::kInstruction))) {
    return false;
  }
  return true;
}

StepEvent Cpu::Run(std::uint64_t budget) {
  if (budget == 0) budget = 1;
  const std::uint64_t target = stats_.instructions + budget;
  if (!TranslationTransparent()) {
    while (true) {
      const StepEvent event = Step();
      if (event != StepEvent::kRetired || stats_.instructions >= target) {
        return event;
      }
    }
  }
  // Translated hot loop: chained block -> block, falling back to the map,
  // the builder, and finally single-step interpretation (which performs
  // any real TLB/cache miss the guards refused to replay).
  TranslatedBlock* prev = nullptr;
  while (true) {
    TranslatedBlock* block =
        prev != nullptr ? prev->ChainLookup(pc_, root_ppn_) : nullptr;
    const bool via_chain = block != nullptr;
    if (block != nullptr) {
      ++translator_->stats().chained_entries;
    } else {
      if (prev != nullptr) ++translator_->stats().chain_breaks;
      // Visit-count gate before the map: the direct-mapped counter is a
      // fraction of the hash lookup's cost, and a block can only exist
      // for a pc that crossed the threshold. Aliasing in the counter
      // table can evict a hot pc's count; that merely re-warms the pc
      // through the interpreter for a few steps — the map is consulted
      // again as soon as the count returns, never a correctness issue.
      if (translator_->NoteVisit(root_ppn_, pc_)) {
        block = translator_->Lookup(root_ppn_, pc_);
        if (block == nullptr) {
          if (translator_->AtCapacity()) {
            // Frees every block; drop the chain source before it dangles.
            translator_->InvalidateAll();
            prev = nullptr;
          }
          block = BuildBlock();
        }
        if (block != nullptr && prev != nullptr) {
          prev->ChainInstall(pc_, block);
        }
      }
    }
    StepEvent event;
    if (block != nullptr && BlockGuardsPass(block)) {
      ++translator_->stats().block_entries;
      if (block->jit != nullptr) {
        ++block->jit->entries;
        if (via_chain) ++block->jit->chained;
      }
      event = ExecuteBlock(block, target);
      prev = block->dead ? nullptr : block;
    } else {
      event = Step();
      prev = nullptr;
    }
    if (event != StepEvent::kRetired || stats_.instructions >= target) {
      return event;
    }
  }
}

TranslatedBlock* Cpu::BuildBlock() {
  if ((pc_ & 1) != 0) return nullptr;
  tlb::Tlb::Entry* entry = itlb_.Probe(root_ppn_, pc_);
  if (entry == nullptr) return nullptr;
  if (!entry->pte.executable() || !entry->pte.user()) return nullptr;
  auto block = std::make_unique<TranslatedBlock>();
  block->head_pc = pc_;
  block->root_ppn = root_ppn_;
  block->vpn = pc_ >> mem::kPageShift;
  block->pte_raw = entry->pte.raw();
  block->phys_page = entry->phys_page;
  block->itlb_entry = entry;
  std::uint64_t vpc = pc_;
  while (block->ops.size() < kTranslateMaxOps) {
    if ((vpc >> mem::kPageShift) != block->vpn) break;  // page end
    const std::uint64_t phys =
        (block->phys_page << mem::kPageShift) | (vpc & (mem::kPageSize - 1));
    if (!memory_->Contains(phys, 2)) break;
    std::uint32_t raw =
        static_cast<std::uint32_t>(memory_->ReadUnchecked(phys, 2));
    const unsigned length = isa::ParcelLength(static_cast<std::uint16_t>(raw));
    if (length == 4) {
      // A page-straddling fetch takes the interpreter's two-translation
      // path; blocks simply stop before it.
      if (((vpc + 2) & (mem::kPageSize - 1)) == 0) break;
      if (!memory_->Contains(phys + 2, 2)) break;
      raw |= static_cast<std::uint32_t>(memory_->ReadUnchecked(phys + 2, 2))
             << 16;
    }
    auto decoded = isa::Decode(raw);
    if (!decoded) break;
    if (!config_.roload_enabled && isa::IsRoLoad(decoded->op)) break;
    cache::Cache::Line* line = icache_.Probe(phys);
    if (line == nullptr) break;  // not resident yet; interpreting warms it
    // Dedup line guards by identity: Probe returning the same way for two
    // addresses proves they share one cache line.
    std::uint32_t line_index = 0;
    for (; line_index < block->lines.size(); ++line_index) {
      if (block->lines[line_index].line == line) break;
    }
    if (line_index == block->lines.size()) {
      block->lines.push_back(LineGuard{line, phys, icache_.TagOf(phys)});
    }
    TranslatedOp op;
    op.inst = *decoded;
    op.pc = vpc;
    op.fetch_phys = phys;
    op.line_index = line_index;
    if (isa::IsLoad(decoded->op) || isa::IsStore(decoded->op)) {
      op.mem_bytes =
          static_cast<std::uint8_t>(isa::MemAccessBytes(decoded->op));
      op.load_unsigned = isa::LoadIsUnsigned(decoded->op);
    }
    block->ops.push_back(op);
    vpc += decoded->length;
    if (EndsBlock(decoded->op)) break;
  }
  if (block->ops.empty()) return nullptr;
  code_table_ptr_->MarkCode(block->phys_page);
  block->code_version = code_table_ptr_->Version(block->phys_page);
  return translator_->Insert(std::move(block));
}

bool Cpu::BlockGuardsPass(TranslatedBlock* block) {
  // Epoch fast path: the full guard set below was proven at valid_epoch,
  // and the epoch advances on every event that could invalidate any guard
  // (interpreted step, TLB flush/shootdown, code-page write, root switch;
  // Retire resets valid_epoch to 0). Same epoch ⟹ same proof holds.
  if (block->valid_epoch == code_table_ptr_->guard_epoch()) return true;
  // Every failure below is one guard_fails increment attributed to
  // exactly one DeoptReason bucket, keeping the roload.jit.v1 invariant
  // Σ deopt[] == guard_fails true by construction.
  TranslatorStats& tstats = translator_->stats();
  const auto deopt = [&tstats](trace::DeoptReason reason) {
    ++tstats.guard_fails;
    ++tstats.deopt[static_cast<std::size_t>(reason)];
  };
  if (block->dead || block->root_ppn != root_ppn_) {
    deopt(trace::DeoptReason::kStaleBlock);
    return false;
  }
  tlb::Tlb::Entry* entry = block->itlb_entry;
  if (!(entry->valid && entry->vpn == block->vpn &&
        entry->asid_root == block->root_ppn &&
        entry->pte.raw() == block->pte_raw &&
        entry->phys_page == block->phys_page)) {
    // The pinned entry no longer covers the page. It may simply have been
    // refilled into another slot after a flush — re-pin it.
    entry = itlb_.Probe(block->root_ppn, block->head_pc);
    if (entry == nullptr) {
      // Genuine TLB miss: deopt so the interpreter takes the real miss.
      deopt(trace::DeoptReason::kItlbMiss);
      return false;
    }
    if (entry->pte.raw() != block->pte_raw ||
        entry->phys_page != block->phys_page) {
      // Remapped or re-keyed: the decoded bytes/permissions are stale.
      translator_->Retire(block);
      deopt(trace::DeoptReason::kPageRemap);
      return false;
    }
    block->itlb_entry = entry;
  }
  if (code_table_ptr_->Version(block->phys_page) != block->code_version) {
    translator_->Retire(block);  // self- or cross-hart-modified code
    deopt(trace::DeoptReason::kCodeVersion);
    return false;
  }
  for (LineGuard& guard : block->lines) {
    if (guard.line->valid && guard.line->tag == guard.tag) continue;
    cache::Cache::Line* line = icache_.Probe(guard.phys);
    if (line == nullptr) {
      // Evicted: deopt so the interpreter performs the real refill.
      deopt(trace::DeoptReason::kIcacheLine);
      return false;
    }
    guard.line = line;
  }
  block->valid_epoch = code_table_ptr_->guard_epoch();
  return true;
}

// The threaded micro-op executor. Every pre-decoded op goes through the
// same ExecAlu the interpreter uses; the rest dispatch through one compact
// switch whose hot cases (branches, jumps, loads, ld.ro, stores) reuse
// BranchTaken and one memory micro-op path, with the per-op bookkeeping
// batched:
//
//   * fetch side — every replayed op is one I-TLB hit plus one I-cache
//     hit, and nothing inside the run touches either structure (data
//     accesses go to the D-side, traps/ecalls end the run; pinned by
//     TranslateTest.FetchBatchMatchesReferenceAroundGenericOps): stamp
//     each line's final LRU tick in the loop, commit counts/hints once at
//     the end;
//   * retire side — each fast op costs (fetch_cycles + 1) cycles plus
//     per-op extras (mul/div latency, taken branches, D-TLB walk and
//     D-cache miss cycles) and retires one instruction; the sums land in
//     stats_ at exit. Counter updates are pure +=, so batching commutes
//     and the committed totals are bit-identical to per-op updates.
//
// pc_ is materialized lazily (fast ops never read it; kAuipc and branch
// targets use the pre-decoded op.pc) and synced before anything that
// observes it: the generic-op fallback, trap delivery, and block exit.
// Ops outside the fast set — ecall/ebreak, ld.ro while the roload_check
// event stream is live, and any future opcode — run through the
// unmodified ExecuteDecodedImpl<true>, which does its own accounting.
// Memory ops use per-site inline caches (TranslatedOp memos): a memo that
// still covers the access calls the D-TLB's or D-cache's one hit body
// (Tlb::Hit, Cache::Hit), so a memo hit applies the reference hit's
// mutations at once; nothing on the data side is batched.
StepEvent Cpu::ExecuteBlock(TranslatedBlock* block, std::uint64_t target) {
  TranslatedOp* ops = block->ops.data();  // non-const: per-site memo re-arming
  const LineGuard* lines = block->lines.data();
  const std::size_t count = block->ops.size();
  const std::uint64_t icache_base = icache_.replay_base();
  const unsigned fetch_cycles = config_.icache.hit_cycles;
  // Run() only enters with instructions < target, so remaining >= 1.
  const std::uint64_t remaining = target - stats_.instructions;
  const std::size_t limit =
      remaining < count ? static_cast<std::size_t>(remaining) : count;

  std::uint64_t fast_ops = 0;      // ops retired by the fast cases below
  std::uint64_t extra_cycles = 0;  // their cycles beyond (fetch_cycles + 1)
  std::size_t done = 0;            // ops whose fetch replayed (incl. traps)
  std::uint64_t next_pc = pc_;     // architectural pc after the last op
  StepEvent result = StepEvent::kRetired;
  // Hoisted hot members: the inline memory ops below store through
  // byte/line/entry pointers the compiler must assume alias `this`, so
  // reading these once keeps every later use a register instead of a
  // reload. All are loop-invariant (no op mutates them; a store that
  // remaps pages can only do so via a trap, which exits the run).
  const std::uint64_t root = root_ppn_;
  mem::PhysMemory* const memory = memory_;
  CodeVersionTable* const code_table = code_table_ptr_;
  // ld.ro with the kRoLoad event category live must emit one kRoLoadCheck
  // event per executed site with the site pc — exactly what the reference
  // executor does — so those ops take the generic fallback below.
  const bool ro_generic =
      trace_ != nullptr && trace_->enabled(trace::EventCategory::kRoLoad);

  // Trap from an inline memory op: the op's fetch replayed and its cycles
  // are charged, but it does not retire and pc stays at the faulting
  // instruction — exactly the reference MemAccess-failure path.
  auto trap_exit = [&](std::size_t idx, isa::TrapCause cause,
                       std::uint64_t tval, unsigned cycles) {
    RaiseTrap(cause, tval);
    stats_.cycles += cycles + 1;
    done = idx + 1;
    next_pc = ops[idx].pc;
    result = StepEvent::kTrap;
    if (cause == isa::TrapCause::kRoLoadPageFault) {
      ++translator_->stats().roload_fault_exits;
    } else {
      ++translator_->stats().trap_exits;
    }
  };

  // The one memory micro-op path: a load, ld.ro or store of op `idx`,
  // specialized at compile time on its access type. The three differ only
  // where their semantics do: the permission bits the D-TLB hit checks,
  // the ld.ro key check, and the store's write, code-page bump and
  // self-modifying-code exit. Returns true when the op retired and the run
  // goes on; false when it trapped or ended the run (done/next_pc set).
  auto mem_op = [&](std::size_t idx, std::uint64_t rs1, std::uint64_t rs2,
                    auto access) -> bool {
    constexpr tlb::AccessType A = decltype(access)::value;
    constexpr bool kStore = A == tlb::AccessType::kStore;
    TranslatedOp& op = ops[idx];
    const isa::Instruction& inst = op.inst;
    // ROLoad-family addresses are (rs1) with no offset; inst.imm is 0 for
    // them by decode construction.
    const std::uint64_t addr = rs1 + static_cast<std::uint64_t>(inst.imm);
    if constexpr (kStore) {
      ++stats_.stores;
    } else {
      ++stats_.loads;
      if constexpr (A == tlb::AccessType::kRoLoad) ++stats_.roload_loads;
    }
    const unsigned bytes = op.mem_bytes;
    if ((addr & (bytes - 1)) != 0) {
      trap_exit(idx,
                kStore ? isa::TrapCause::kStoreAddressMisaligned
                       : isa::TrapCause::kLoadAddressMisaligned,
                addr, fetch_cycles);
      return false;
    }
    // Site-cached translation: a memo that still covers the page takes
    // the TLB's one hit body (permission check and fault included);
    // otherwise the generic lookup runs and re-arms the memo.
    tlb::TlbResult xlat;
    if (tlb::Tlb::Covers(op.dtlb_memo, root, addr)) {
      xlat = dtlb_.Hit(op.dtlb_memo, addr, A, inst.key);
    } else {
      ++translator_->stats().dtlb_memo_misses;
      xlat = dtlb_.Translate(root, addr, A, inst.key);
      op.dtlb_memo = dtlb_.site_hint(A);
    }
    unsigned mem_cycles = xlat.cycles;  // D-TLB walk + D-cache beyond fetch
    if (!xlat.ok) {
      trap_exit(idx, xlat.cause, addr, fetch_cycles + mem_cycles);
      return false;
    }
    const std::uint64_t phys = xlat.phys_addr;
    if (!memory->Contains(phys, bytes)) {
      trap_exit(idx,
                kStore ? isa::TrapCause::kStoreAccessFault
                       : isa::TrapCause::kLoadAccessFault,
                addr, fetch_cycles + mem_cycles);
      return false;
    }
    const std::uint64_t line_addr = dcache_.LineAddrOf(phys);
    if (line_addr == op.dline_addr &&
        dcache_.Holds(op.dline_memo, line_addr)) {
      mem_cycles += dcache_.Hit(op.dline_memo, line_addr, kStore);
    } else {
      ++translator_->stats().dcache_memo_misses;
      mem_cycles += dcache_.Access(phys, kStore);
      op.dline_memo = dcache_.site_hint();
      op.dline_addr = line_addr;
    }
    ++fast_ops;
    extra_cycles += mem_cycles;
    if constexpr (kStore) {
      memory->WriteUnchecked(phys, bytes, rs2);
      code_table->OnWrite(phys);
      if (code_table->Version(block->phys_page) != block->code_version) {
        // The block stored into its own code page: everything executed
        // so far is exact, but the remaining decodes are stale. Stop at
        // this boundary; the next entry attempt rebuilds fresh.
        translator_->Retire(block);
        ++translator_->stats().smc_exits;
        done = idx + 1;
        next_pc = op.pc + inst.length;
        return false;
      }
    } else {
      std::uint64_t raw = memory->ReadUnchecked(phys, bytes);
      if (!op.load_unsigned && bytes < 8) {
        raw = static_cast<std::uint64_t>(SignExtend(raw, bytes * 8));
      }
      if (inst.rd != 0) regs_[inst.rd] = raw;
    }
    return true;
  };

  for (std::size_t i = 0; i < limit; ++i) {
    TranslatedOp& op = ops[i];
    lines[op.line_index].line->lru_tick = icache_base + i + 1;
    const isa::Instruction& inst = op.inst;
    const std::uint64_t rs1 = regs_[inst.rs1];
    const std::uint64_t rs2 = regs_[inst.rs2];
    std::uint64_t rd_value = 0;
    if (ExecAlu(inst, op.pc, rs1, rs2, config_, &rd_value, &extra_cycles)) {
      if (inst.rd != 0) regs_[inst.rd] = rd_value;
      ++fast_ops;
      continue;
    }
    using isa::Opcode;
    switch (inst.op) {
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu: {
        ++stats_.branches;
        std::uint64_t branch_pc = op.pc + inst.length;
        if (BranchTaken(inst.op, rs1, rs2)) {
          ++stats_.taken_branches;
          extra_cycles += config_.taken_branch_cycles;
          branch_pc = op.pc + static_cast<std::uint64_t>(inst.imm);
        }
        ++fast_ops;
        if (i + 1 < count && branch_pc == ops[i + 1].pc) continue;
        done = i + 1;
        next_pc = branch_pc;
        goto exit;  // diverged from the superblock (or block end)
      }
      case Opcode::kJal:
        // Unconditional transfers end the superblock; retire inline and
        // exit. The link register is written after the target is formed
        // so jalr with rd == rs1 reads the pre-link value, exactly as the
        // reference executor does.
        if (inst.rd != 0) regs_[inst.rd] = op.pc + inst.length;
        extra_cycles += config_.taken_branch_cycles;
        ++fast_ops;
        done = i + 1;
        next_pc = op.pc + static_cast<std::uint64_t>(inst.imm);
        goto exit;
      case Opcode::kJalr: {
        const std::uint64_t jalr_target =
            (rs1 + static_cast<std::uint64_t>(inst.imm)) & ~std::uint64_t{1};
        if (inst.rd != 0) regs_[inst.rd] = op.pc + inst.length;
        extra_cycles += config_.taken_branch_cycles;
        ++stats_.indirect_jumps;
        ++fast_ops;
        done = i + 1;
        next_pc = jalr_target;
        goto exit;
      }
      case Opcode::kLb:
      case Opcode::kLh:
      case Opcode::kLw:
      case Opcode::kLd:
      case Opcode::kLbu:
      case Opcode::kLhu:
      case Opcode::kLwu:
        if (mem_op(i, rs1, rs2, AccessTag<tlb::AccessType::kLoad>{})) continue;
        goto exit;
      case Opcode::kLbRo:
      case Opcode::kLhRo:
      case Opcode::kLwRo:
      case Opcode::kLdRo:
      case Opcode::kCLdRo:
        if (ro_generic) goto generic_op;  // reference path emits the event
        if (mem_op(i, rs1, rs2, AccessTag<tlb::AccessType::kRoLoad>{})) {
          continue;
        }
        goto exit;
      case Opcode::kSb:
      case Opcode::kSh:
      case Opcode::kSw:
      case Opcode::kSd:
        if (mem_op(i, rs1, rs2, AccessTag<tlb::AccessType::kStore>{})) {
          continue;
        }
        goto exit;
      case Opcode::kFence:
        ++fast_ops;
        continue;
      default:
      generic_op: {
        // Generic micro-op (ecall/ebreak, ld.ro with the event stream
        // live): run the reference executor, which needs pc_ live and
        // accounts for itself.
        pc_ = op.pc;
        const StepEvent event = ExecuteDecodedImpl<true>(inst, fetch_cycles);
        if (event != StepEvent::kRetired) {
          if (event == StepEvent::kTrap) {
            if (pending_trap_.cause == isa::TrapCause::kRoLoadPageFault) {
              ++translator_->stats().roload_fault_exits;
            } else {
              ++translator_->stats().trap_exits;
            }
          }
          result = event;  // trap or ecall: the op (and its fetch) happened
          done = i + 1;
          next_pc = pc_;
          goto exit;
        }
        if (i + 1 < count && pc_ != ops[i + 1].pc) {
          done = i + 1;
          next_pc = pc_;
          goto exit;
        }
        continue;
      }
    }
  }
  // Loop exhausted (block end or budget): every `continue` path above left
  // the architectural pc at the straight-line successor of the op it
  // executed — a branch or generic op only continues when its target
  // equals the next op's pc, which for consecutive decodes is pc + length.
  done = limit;
  {
    const TranslatedOp& last_op = ops[limit - 1];
    next_pc = last_op.pc + last_op.inst.length;
  }
exit:
  if (fast_ops != 0) {
    stats_.instructions += fast_ops;
    stats_.cycles += fast_ops * (fetch_cycles + 1) + extra_cycles;
  }
  pc_ = next_pc;
  if (done != 0) {
    itlb_.ReplayFetchHits(block->itlb_entry, done);
    icache_.CommitReplayBatch(done);
    const TranslatedOp& last = ops[done - 1];
    icache_.ReplayHint(lines[last.line_index].line, last.fetch_phys);
    translator_->stats().ops_replayed += done;
    if (block->jit != nullptr) block->jit->replayed += done;
  }
  return result;
}

void Cpu::AppendJitReport(trace::JitReport* report, unsigned hart) const {
  report->total_instructions += stats_.instructions;
  if (translator_ == nullptr) return;
  ++report->harts;
  const TranslatorStats& s = translator_->stats();
  report->blocks_built += s.blocks_built;
  report->blocks_retired += s.blocks_retired;
  report->block_entries += s.block_entries;
  report->chained_entries += s.chained_entries;
  report->guard_fails += s.guard_fails;
  report->ops_replayed += s.ops_replayed;
  report->invalidations += s.invalidations;
  report->evictions += s.evictions;
  for (std::size_t r = 0; r < trace::kNumDeoptReasons; ++r) {
    report->deopt[r] += s.deopt[r];
  }
  report->chain_breaks += s.chain_breaks;
  report->dtlb_memo_misses += s.dtlb_memo_misses;
  report->dcache_memo_misses += s.dcache_memo_misses;
  report->roload_fault_exits += s.roload_fault_exits;
  report->trap_exits += s.trap_exits;
  report->smc_exits += s.smc_exits;
  for (const auto& [key, block_stats] : translator_->jit_blocks()) {
    trace::JitBlockRow row;
    row.root_ppn = key.first;
    row.head_pc = key.second;
    row.hart = hart;
    row.builds = block_stats.builds;
    row.retires = block_stats.retires;
    row.entries = block_stats.entries;
    row.chained = block_stats.chained;
    row.replayed = block_stats.replayed;
    report->blocks.push_back(std::move(row));
  }
}

bool Cpu::DebugReadVirt(std::uint64_t virt_addr, unsigned bytes,
                        std::uint64_t* value) {
  mem::PageWalker walker(memory_);
  auto walk = walker.Walk(root_ppn_, virt_addr);
  if (!walk || !memory_->Contains(walk->phys_addr, bytes)) return false;
  *value = memory_->Read(walk->phys_addr, bytes);
  return true;
}

bool Cpu::DebugWriteVirt(std::uint64_t virt_addr, unsigned bytes,
                         std::uint64_t value) {
  mem::PageWalker walker(memory_);
  auto walk = walker.Walk(root_ppn_, virt_addr);
  if (!walk || !memory_->Contains(walk->phys_addr, bytes)) return false;
  memory_->Write(walk->phys_addr, bytes, value);
  if (code_table_ptr_ != nullptr) {
    // Debug/attack writes need not be size-aligned; cover both end pages.
    code_table_ptr_->OnWrite(walk->phys_addr);
    code_table_ptr_->OnWrite(walk->phys_addr + bytes - 1);
  }
  return true;
}

}  // namespace roload::cpu
