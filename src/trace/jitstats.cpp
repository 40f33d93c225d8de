#include "trace/jitstats.h"

#include <algorithm>
#include <tuple>

#include "support/json.h"
#include "support/strings.h"

namespace roload::trace {

std::string_view DeoptReasonName(DeoptReason reason) {
  switch (reason) {
    case DeoptReason::kStaleBlock:
      return "stale_block";
    case DeoptReason::kItlbMiss:
      return "itlb_miss";
    case DeoptReason::kPageRemap:
      return "page_remap";
    case DeoptReason::kCodeVersion:
      return "code_version";
    case DeoptReason::kIcacheLine:
      return "icache_line";
    case DeoptReason::kNumDeoptReasons:
      break;
  }
  return "?";
}

void FinalizeJitReport(JitReport* report, std::size_t top_n) {
  std::sort(report->blocks.begin(), report->blocks.end(),
            [](const JitBlockRow& a, const JitBlockRow& b) {
              if (a.replayed != b.replayed) return a.replayed > b.replayed;
              return std::tie(a.hart, a.root_ppn, a.head_pc) <
                     std::tie(b.hart, b.root_ppn, b.head_pc);
            });
  // Census. interpreted = instret - ops_replayed saturates at 0: a
  // replayed op that trapped was counted in ops_replayed but never
  // retired, so the difference can undershoot by the trapping-op count.
  report->interpreted_instructions =
      report->total_instructions > report->ops_replayed
          ? report->total_instructions - report->ops_replayed
          : 0;
  report->one_shot_blocks = 0;
  report->one_shot_replayed = 0;
  for (const JitBlockRow& row : report->blocks) {
    if (row.entries <= 1) {
      ++report->one_shot_blocks;
      report->one_shot_replayed += row.replayed;
    }
  }
  report->cold_instructions =
      report->interpreted_instructions + report->one_shot_replayed;
  report->hot_instructions =
      report->total_instructions > report->cold_instructions
          ? report->total_instructions - report->cold_instructions
          : 0;
  // Fold the tail so the exported document stays bounded without hiding
  // how much it folded.
  report->omitted_blocks = 0;
  report->omitted_replayed = 0;
  if (report->blocks.size() > top_n) {
    for (std::size_t i = top_n; i < report->blocks.size(); ++i) {
      ++report->omitted_blocks;
      report->omitted_replayed += report->blocks[i].replayed;
    }
    report->blocks.resize(top_n);
  }
  report->finalized = true;
}

std::string ExportJitJson(const JitReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.KV("schema", "roload.jit.v1");
  json.KV("harts", static_cast<std::uint64_t>(report.harts));

  json.Key("totals").BeginObject();
  json.KV("blocks_built", report.blocks_built);
  json.KV("blocks_retired", report.blocks_retired);
  json.KV("block_entries", report.block_entries);
  json.KV("chained_entries", report.chained_entries);
  json.KV("guard_fails", report.guard_fails);
  json.KV("ops_replayed", report.ops_replayed);
  json.KV("invalidations", report.invalidations);
  json.KV("evictions", report.evictions);
  json.EndObject();

  json.Key("deopt").BeginObject();
  for (std::size_t r = 0; r < kNumDeoptReasons; ++r) {
    json.KV(DeoptReasonName(static_cast<DeoptReason>(r)), report.deopt[r]);
  }
  json.EndObject();

  json.Key("soft_exits").BeginObject();
  json.KV("chain_breaks", report.chain_breaks);
  json.KV("dtlb_memo_misses", report.dtlb_memo_misses);
  json.KV("dcache_memo_misses", report.dcache_memo_misses);
  json.KV("roload_fault_exits", report.roload_fault_exits);
  json.KV("trap_exits", report.trap_exits);
  json.KV("smc_exits", report.smc_exits);
  json.EndObject();

  json.Key("census").BeginObject();
  json.KV("total_instructions", report.total_instructions);
  json.KV("interpreted_instructions", report.interpreted_instructions);
  json.KV("one_shot_blocks", report.one_shot_blocks);
  json.KV("one_shot_replayed", report.one_shot_replayed);
  json.KV("cold_instructions", report.cold_instructions);
  json.KV("hot_instructions", report.hot_instructions);
  json.EndObject();

  json.Key("blocks").BeginArray();
  for (const JitBlockRow& row : report.blocks) {
    json.BeginObject();
    json.KV("head_pc", Hex(row.head_pc));
    json.KV("root_ppn", Hex(row.root_ppn));
    json.KV("hart", static_cast<std::uint64_t>(row.hart));
    json.KV("builds", row.builds);
    json.KV("retires", row.retires);
    json.KV("entries", row.entries);
    json.KV("chained", row.chained);
    json.KV("replayed", row.replayed);
    json.KV("symbol", row.symbol);
    json.EndObject();
  }
  json.EndArray();
  json.KV("omitted_blocks", report.omitted_blocks);
  json.KV("omitted_replayed", report.omitted_replayed);

  json.EndObject();
  return json.str() + "\n";
}

std::string ExportJitText(const JitReport& report, std::size_t top_rows) {
  std::string out = "== translation tier ==\n";
  const auto line = [&out](const char* name, std::uint64_t value) {
    out += StrFormat("%-24s %llu\n", name,
                     static_cast<unsigned long long>(value));
  };
  line("blocks_built", report.blocks_built);
  line("blocks_retired", report.blocks_retired);
  line("block_entries", report.block_entries);
  line("chained_entries", report.chained_entries);
  line("guard_fails", report.guard_fails);
  line("ops_replayed", report.ops_replayed);
  line("invalidations", report.invalidations);
  line("evictions", report.evictions);
  if (report.block_entries > 0) {
    out += StrFormat("chain-hit rate           %.2f%%\n",
                     100.0 * static_cast<double>(report.chained_entries) /
                         static_cast<double>(report.block_entries));
  }
  out += "== deopt reasons ==\n";
  for (std::size_t r = 0; r < kNumDeoptReasons; ++r) {
    out += StrFormat("%-24s %llu\n",
                     std::string(DeoptReasonName(static_cast<DeoptReason>(r)))
                         .c_str(),
                     static_cast<unsigned long long>(report.deopt[r]));
  }
  out += "== soft exits ==\n";
  line("chain_breaks", report.chain_breaks);
  line("dtlb_memo_misses", report.dtlb_memo_misses);
  line("dcache_memo_misses", report.dcache_memo_misses);
  line("roload_fault_exits", report.roload_fault_exits);
  line("trap_exits", report.trap_exits);
  line("smc_exits", report.smc_exits);
  out += "== hot/cold census ==\n";
  line("total_instructions", report.total_instructions);
  line("interpreted", report.interpreted_instructions);
  line("one_shot_blocks", report.one_shot_blocks);
  line("one_shot_replayed", report.one_shot_replayed);
  if (report.total_instructions > 0) {
    out += StrFormat(
        "cold_instructions        %llu (%.2f%%)\n",
        static_cast<unsigned long long>(report.cold_instructions),
        100.0 * static_cast<double>(report.cold_instructions) /
            static_cast<double>(report.total_instructions));
    out += StrFormat(
        "hot_instructions         %llu (%.2f%%)\n",
        static_cast<unsigned long long>(report.hot_instructions),
        100.0 * static_cast<double>(report.hot_instructions) /
            static_cast<double>(report.total_instructions));
  }
  if (!report.blocks.empty()) {
    out += "== top blocks (by replayed ops) ==\n";
    out += StrFormat("%4s %-14s %10s %10s %12s %6s %s\n", "hart", "head_pc",
                     "entries", "chained", "replayed", "builds", "symbol");
    const std::size_t rows = std::min(top_rows, report.blocks.size());
    for (std::size_t i = 0; i < rows; ++i) {
      const JitBlockRow& row = report.blocks[i];
      out += StrFormat("%4u %-14s %10llu %10llu %12llu %6llu %s\n", row.hart,
                       Hex(row.head_pc).c_str(),
                       static_cast<unsigned long long>(row.entries),
                       static_cast<unsigned long long>(row.chained),
                       static_cast<unsigned long long>(row.replayed),
                       static_cast<unsigned long long>(row.builds),
                       row.symbol.c_str());
    }
    if (report.blocks.size() > rows || report.omitted_blocks > 0) {
      out += StrFormat(
          "... %llu more blocks (%llu replayed ops)\n",
          static_cast<unsigned long long>(report.blocks.size() - rows +
                                          report.omitted_blocks),
          static_cast<unsigned long long>(report.omitted_replayed));
    }
  }
  return out;
}

void AppendJitCounters(
    const JitReport& report,
    std::vector<std::pair<std::string, std::uint64_t>>* out) {
  out->emplace_back("jit.blocks_built", report.blocks_built);
  out->emplace_back("jit.blocks_retired", report.blocks_retired);
  out->emplace_back("jit.block_entries", report.block_entries);
  out->emplace_back("jit.chained_entries", report.chained_entries);
  out->emplace_back("jit.guard_fails", report.guard_fails);
  out->emplace_back("jit.ops_replayed", report.ops_replayed);
  out->emplace_back("jit.invalidations", report.invalidations);
  out->emplace_back("jit.evictions", report.evictions);
  for (std::size_t r = 0; r < kNumDeoptReasons; ++r) {
    out->emplace_back(
        StrFormat("jit.deopt.%s",
                  std::string(DeoptReasonName(static_cast<DeoptReason>(r)))
                      .c_str()),
        report.deopt[r]);
  }
  out->emplace_back("jit.chain_breaks", report.chain_breaks);
  out->emplace_back("jit.dtlb_memo_misses", report.dtlb_memo_misses);
  out->emplace_back("jit.dcache_memo_misses", report.dcache_memo_misses);
  out->emplace_back("jit.roload_fault_exits", report.roload_fault_exits);
  out->emplace_back("jit.trap_exits", report.trap_exits);
  out->emplace_back("jit.smc_exits", report.smc_exits);
  out->emplace_back("jit.interpreted_instructions",
                    report.interpreted_instructions);
  out->emplace_back("jit.one_shot_blocks", report.one_shot_blocks);
  out->emplace_back("jit.one_shot_replayed", report.one_shot_replayed);
  out->emplace_back("jit.cold_instructions", report.cold_instructions);
  out->emplace_back("jit.hot_instructions", report.hot_instructions);
}

}  // namespace roload::trace
