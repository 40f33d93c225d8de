// RV64 processor core model: in-order fetch/decode/execute with L1
// caches, I/D TLBs and the ROLoad extension. The core is the analogue of
// the modified Rocket Core: when `roload_enabled` is false the decoder
// rejects ROLoad-family encodings (illegal instruction), exactly like the
// unmodified baseline processor.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "cache/cache.h"
#include "cpu/translate.h"
#include "isa/encoding.h"
#include "isa/instruction.h"
#include "isa/registers.h"
#include "isa/traps.h"
#include "mem/phys_memory.h"
#include "tlb/tlb.h"
#include "trace/hub.h"

namespace roload::cpu {

struct CpuConfig {
  bool roload_enabled = true;
  cache::CacheConfig icache;
  cache::CacheConfig dcache;
  tlb::TlbConfig itlb;
  tlb::TlbConfig dtlb;
  unsigned mul_cycles = 3;
  unsigned div_cycles = 20;
  unsigned taken_branch_cycles = 1;  // redirect penalty
  // Host-only decode cache: direct-mapped, keyed by pc and validated
  // against the raw bits fetched this step, so isa::Decode is skipped for
  // loop bodies. Never changes simulated cycles, faults or stats (the
  // fetch-side TLB/cache traffic still happens; only the pure decode
  // computation is reused). FlushTlbs() invalidates it alongside the TLBs;
  // self-modified code is additionally caught by the raw-bit check.
  bool host_decode_cache = true;
  // Host-only translation tier (src/cpu/translate.h): pre-decode hot
  // superblocks into replayable micro-op form and execute them under
  // TLB/I-cache/code-version guards, deopting to the interpreter on any
  // guard miss. Only Run() uses blocks; Step() always interprets. On by
  // default; on and off are bit-identical (the differential suite in
  // tests/test_translate.cpp pins it).
  bool host_translate = true;
  // Visits of one pc before a block is built there (1 = translate eagerly;
  // tests use 1 to force building on short fixtures). 2 is the sweet spot:
  // building a block costs about as much as interpreting its ops once, so
  // translating on the second visit never loses (one-shot code is skipped,
  // anything re-entered amortizes immediately), while higher thresholds
  // leave warm code (executed a handful of times) interpreting forever.
  unsigned translate_threshold = 2;
};

// The two execute tiers: the reference interpreter (every host fast path
// off) and the translation tier (the default config), which runs hot code
// as blocks and everything else through Step() on the host fast paths
// (decode cache, indexed TLB, cache shift math). Both share one
// definition of each instruction (ALU, branch conditions, guest memory
// access) and are bit-identical in cycles and every architectural
// counter; only host speed differs.
enum class ExecTier : std::uint8_t {
  kInterp,
  kTranslated,
};

// Applies a tier to a config: kInterp disables every host fast path and
// the block translator, kTranslated enables them all (the default config).
void SetExecTier(CpuConfig* config, ExecTier tier);
std::string_view ExecTierName(ExecTier tier);
// Parses "interp"/"translated"; nullopt on anything else.
std::optional<ExecTier> ParseExecTier(std::string_view name);

// Toggles every host-only fast path in one call: the decode cache, the
// indexed TLB lookup (both TLBs) and the cache index math (both caches).
// Disabled reproduces the reference implementations that the differential
// tests and bench/host_throughput compare against. Guest bytes move
// through PhysMemory's unchecked accessors on every tier: each access
// already sits behind a Contains() test.
void SetHostFastPaths(CpuConfig* config, bool enabled);

// What happened during one Step().
enum class StepEvent : std::uint8_t {
  kRetired,  // one instruction retired normally
  kTrap,     // a trap is pending (see pending_trap())
  kEcall,    // environment call; kernel services it then calls AckEcall()
};

struct CpuStats {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t roload_loads = 0;
  std::uint64_t branches = 0;
  std::uint64_t taken_branches = 0;
  std::uint64_t indirect_jumps = 0;
};

class Cpu {
 public:
  Cpu(const CpuConfig& config, mem::PhysMemory* memory);

  // Architectural state.
  std::uint64_t pc() const { return pc_; }
  void set_pc(std::uint64_t pc) { pc_ = pc; }
  std::uint64_t reg(unsigned index) const { return regs_[index]; }
  void set_reg(unsigned index, std::uint64_t value);

  // Address translation root (satp.PPN analogue). The kernel sets this on
  // process switch and must FlushTlbs() after page-table edits.
  void set_root_ppn(std::uint64_t root_ppn) {
    root_ppn_ = root_ppn;
    // A root switch invalidates every proven block guard (blocks are
    // keyed and proven per root); stale the epoch fast path.
    if (code_table_ptr_ != nullptr) code_table_ptr_->Advance();
  }
  std::uint64_t root_ppn() const { return root_ppn_; }
  void FlushTlbs();

  // Executes one instruction. On kTrap the faulting pc stays in pc() and
  // the trap is in pending_trap(); the kernel decides what to do. On
  // kEcall pc() has already advanced past the ecall.
  StepEvent Step();

  // Executes up to `budget` instructions (at least one attempt), stopping
  // early on the first trap or ecall. Semantically identical to calling
  // Step() in a loop and stopping once `budget` instructions retired —
  // kRetired means exactly that the budget boundary was reached without a
  // trap/ecall. This is the entry point that uses the translation tier
  // when `host_translate` is on and the run is translation-transparent
  // (no per-instruction trace hook, profiler or instruction events);
  // otherwise it interprets. The kernel's scheduler calls this with the
  // remaining quantum/limit so blocks can run without per-instruction
  // scheduler checks.
  StepEvent Run(std::uint64_t budget);

  const isa::Trap& pending_trap() const { return pending_trap_; }

  const CpuStats& stats() const { return stats_; }
  const tlb::TlbStats& itlb_stats() const { return itlb_.stats(); }
  const tlb::TlbStats& dtlb_stats() const { return dtlb_.stats(); }
  const cache::CacheStats& icache_stats() const { return icache_.stats(); }
  const cache::CacheStats& dcache_stats() const { return dcache_.stats(); }

  const CpuConfig& config() const { return config_; }

  // Per-retired-instruction trace hook (pc, decoded instruction). Used by
  // the rrun --trace tool and the debugger-style tests; null disables.
  using TraceHook = std::function<void(std::uint64_t pc,
                                       const isa::Instruction& inst)>;
  void set_trace_hook(TraceHook hook) { trace_hook_ = std::move(hook); }

  // Telemetry attachment: retire events, cycle attribution, and the
  // TLB/cache event streams all flow into `hub` (null detaches). The hub
  // observes only — attaching one never changes architectural state or
  // cycle counts. A hub whose config asks for jit telemetry
  // (TraceConfig::jit) also turns on the translator's per-block records.
  void set_trace(trace::Hub* hub);

  // Attaches a shared next-level cache (the SMP machine's L2) below both
  // L1s: L1 misses are then filled from it instead of at the flat DRAM
  // latency, and dirty evictions flow into it. Null (the default) keeps
  // the single-level behaviour bit-identical. Not owned.
  void set_next_level_cache(cache::Cache* next) {
    icache_.set_next_level(next);
    dcache_.set_next_level(next);
  }

  // Adds stall cycles that did not come from executing an instruction —
  // the TLB-shootdown IPI cost the kernel charges to the initiating hart.
  void ChargeStallCycles(unsigned cycles) { stats_.cycles += cycles; }

  // Translation-tier introspection (empty stats when the tier is off).
  const TranslatorStats& translator_stats() const {
    static const TranslatorStats kEmpty{};
    return translator_ != nullptr ? translator_->stats() : kEmpty;
  }
  bool translation_enabled() const { return translator_ != nullptr; }

  // Accumulates this hart's translator telemetry into `report` as hart
  // `hart`: the aggregate counters, the per-reason deopt attribution and
  // (when TraceConfig::jit collected them) one row per translated
  // (root, head_pc). Rows carry empty symbol fields — symbolization needs
  // the link image, which this layer cannot see (callers use
  // audit::Symbolizer). Only total_instructions is added when the tier is
  // off, so the census denominator stays right on mixed configurations.
  void AppendJitReport(trace::JitReport* report, unsigned hart = 0) const;

  // The per-physical-page code version table backing the self-modifying
  // code guard; null when the tier is off. An SMP machine shares hart 0's
  // table across all harts (ShareCodeTable) so cross-hart code writes
  // retire the writing *and* the executing hart's blocks.
  const std::shared_ptr<CodeVersionTable>& code_table() const {
    return code_table_;
  }
  void ShareCodeTable(const std::shared_ptr<CodeVersionTable>& table) {
    if (table == nullptr) return;
    code_table_ = table;
    code_table_ptr_ = code_table_.get();
  }

  // Direct (debug/kernel) access to guest memory through the page tables,
  // bypassing caches and permission checks. Used by the loader, the syscall
  // layer, and the attack-injection harness (which models an arbitrary
  // read/write primitive). Returns false when unmapped.
  bool DebugReadVirt(std::uint64_t virt_addr, unsigned bytes,
                     std::uint64_t* value);
  bool DebugWriteVirt(std::uint64_t virt_addr, unsigned bytes,
                      std::uint64_t value);

 private:
  // One decode-cache slot: the decoded form of the parcel whose raw bits
  // were `raw` at address `pc`. A slot is live only while its generation
  // matches decode_generation_ (bumping the generation is the O(1)
  // whole-cache invalidation used by FlushTlbs).
  struct DecodeSlot {
    std::uint64_t pc = ~std::uint64_t{0};
    std::uint32_t raw = 0;
    std::uint32_t generation = 0;
    isa::Instruction inst;
  };
  static constexpr std::size_t kDecodeCacheSlots = 4096;  // direct-mapped

  // Fetches and decodes the parcel at pc_. Returns false with a pending
  // trap recorded on failure.
  bool FetchDecode(isa::Instruction* inst, unsigned* cycles);
  // Executes a memory access; returns false with pending trap on fault.
  bool MemAccess(const isa::Instruction& inst, std::uint64_t virt_addr,
                 bool write, std::uint64_t* value, unsigned* cycles);
  // The execute half of Step(): everything after fetch+decode, starting
  // from `cycles` already charged by the fetch. The block executor runs it
  // for the ops it does not replay inline (ecall/ebreak, ld.ro with the
  // roload_check event stream live), and shares its ALU and branch
  // definitions (ExecAlu/BranchTaken in cpu.cpp) for the rest.
  //
  // kLean compiles out the profiler charges and the per-retire event
  // emission. It is only ever instantiated by the block executor, which
  // runs strictly under TranslationTransparent() — i.e. when profiling is
  // off and kInstruction events are masked — so the stripped code is code
  // that could not have executed anyway; simulated state is untouched.
  template <bool kLean>
  StepEvent ExecuteDecodedImpl(const isa::Instruction& inst, unsigned cycles);
  StepEvent ExecuteDecoded(const isa::Instruction& inst, unsigned cycles);

  // Translation tier (all no-ops unless config_.host_translate).
  // True when a translated run is observationally equivalent to an
  // interpreted one: no per-retire trace hook, no cycle profiler, no
  // per-instruction event stream. TLB/cache/roload events stay exact
  // under translation (hits emit no events; misses and the whole data
  // side run the real paths), so those categories do not deopt.
  bool TranslationTransparent() const;
  // Builds a superblock at pc_ from the current I-TLB/I-cache contents;
  // nullptr when the head is not fetchable from resident state.
  TranslatedBlock* BuildBlock();
  // Proves (or revalidates) a block's guards; false demands interpretation.
  bool BlockGuardsPass(TranslatedBlock* block);
  // Replays a guard-proven block until block end, divergence, trap,
  // ecall, self-modifying store, or `target` total retired instructions.
  StepEvent ExecuteBlock(TranslatedBlock* block, std::uint64_t target);

  void RaiseTrap(isa::TrapCause cause, std::uint64_t tval);

  CpuConfig config_;
  mem::PhysMemory* memory_;
  cache::Cache icache_;
  cache::Cache dcache_;
  tlb::Tlb itlb_;
  tlb::Tlb dtlb_;

  std::array<std::uint64_t, isa::kNumRegs> regs_{};
  std::uint64_t pc_ = 0;
  std::uint64_t root_ppn_ = 0;
  isa::Trap pending_trap_{isa::TrapCause::kIllegalInstruction, 0};
  CpuStats stats_;
  TraceHook trace_hook_;
  trace::Hub* trace_ = nullptr;

  std::vector<DecodeSlot> decode_cache_;
  std::uint32_t decode_generation_ = 1;  // never matches the 0 in fresh slots
  void InvalidateDecodeCache();

  // Translation tier state (null when host_translate is off). The raw
  // code-table pointer keeps the store write barrier a single test on the
  // hot path.
  std::unique_ptr<Translator> translator_;
  std::shared_ptr<CodeVersionTable> code_table_;
  CodeVersionTable* code_table_ptr_ = nullptr;
};

}  // namespace roload::cpu
