#include "audit/report.h"

#include <string_view>

#include "isa/registers.h"
#include "isa/traps.h"
#include "support/json.h"
#include "support/strings.h"

namespace roload::audit {
namespace {

// Writes one autopsy as a JSON object into `writer` (the caller opens the
// surrounding array/keys).
void WriteAutopsyJson(JsonWriter* writer, const Autopsy& autopsy) {
  writer->BeginObject();
  writer->KV("classification", autopsy.classification);
  writer->KV("cause", isa::TrapCauseName(autopsy.cause));
  writer->KV("signal", autopsy.signal);
  writer->KV("roload_violation", autopsy.roload_violation);
  writer->KV("hart", static_cast<std::uint64_t>(autopsy.hart));
  writer->KV("fault_pc", Hex(autopsy.fault_pc));
  writer->KV("fault_va", Hex(autopsy.fault_va));
  writer->KV("fault_symbol", autopsy.fault_symbol);

  writer->Key("instruction").BeginObject();
  writer->KV("decoded", autopsy.inst_decoded);
  writer->KV("is_roload", autopsy.inst_is_roload);
  writer->KV("key", static_cast<std::uint64_t>(autopsy.inst_key));
  writer->KV("text", autopsy.inst_text);
  writer->EndObject();

  writer->Key("page").BeginObject();
  writer->KV("mapped", autopsy.page_mapped);
  writer->KV("readable", autopsy.page_readable);
  writer->KV("writable", autopsy.page_writable);
  writer->KV("key", static_cast<std::uint64_t>(autopsy.pte_key));
  writer->KV("section", autopsy.va_section);
  writer->KV("symbol", autopsy.va_symbol);
  writer->EndObject();

  writer->KV("expected_section", autopsy.expected_section);

  writer->Key("backtrace").BeginArray();
  for (std::uint64_t frame : autopsy.backtrace) writer->Value(Hex(frame));
  writer->EndArray();

  writer->Key("regs").BeginObject();
  for (unsigned r = 1; r < isa::kNumRegs; ++r) {
    writer->KV(isa::RegName(r), Hex(autopsy.regs[r]));
  }
  writer->EndObject();

  writer->EndObject();
}

}  // namespace

std::string ExportAuditJson(const Auditor& auditor) {
  JsonWriter writer;
  writer.BeginObject();
  writer.KV("schema", "roload.audit.v1");

  const DispatchCensus& census = auditor.census();
  writer.Key("census").BeginObject();
  writer.KV("total_pass", census.total_passes());
  writer.KV("total_fail", census.total_fails());

  writer.Key("sites").BeginArray();
  for (const auto& [pc, site] : census.sites()) {
    writer.BeginObject();
    writer.KV("pc", Hex(site.pc));
    writer.KV("hart", static_cast<std::uint64_t>(site.hart));
    writer.KV("symbol", auditor.NearestSymbol(site.pc));
    writer.KV("key", static_cast<std::uint64_t>(site.key));
    writer.KV("passes", site.passes);
    writer.KV("fails", site.fails);
    writer.KV("last_outcome", CheckOutcomeName(site.last_outcome));
    writer.KV("pages", static_cast<std::uint64_t>(site.pages.size()));
    writer.KV("pages_saturated", site.pages_saturated);
    writer.EndObject();
  }
  writer.EndArray();

  writer.Key("per_key").BeginArray();
  for (const auto& [key, totals] : census.PerKey()) {
    writer.BeginObject();
    writer.KV("key", static_cast<std::uint64_t>(key));
    writer.KV("section", auditor.SectionForKey(key));
    writer.KV("sites", totals.sites);
    writer.KV("passes", totals.passes);
    writer.KV("fails", totals.fails);
    writer.KV("harts", totals.harts);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();  // census

  writer.Key("autopsies").BeginArray();
  for (const Autopsy& autopsy : auditor.autopsies()) {
    WriteAutopsyJson(&writer, autopsy);
  }
  writer.EndArray();

  writer.EndObject();
  return writer.str();
}

std::string ExportAuditText(const Auditor& auditor) {
  std::string out;

  int index = 0;
  for (const Autopsy& autopsy : auditor.autopsies()) {
    out += StrFormat("=== ROLoad fault autopsy #%d ===\n", index++);
    out += StrFormat("classification : %s\n", autopsy.classification.c_str());
    out += StrFormat("hart           : %u\n", autopsy.hart);
    out += StrFormat("cause          : %s (signal %d%s)\n",
                     std::string(isa::TrapCauseName(autopsy.cause)).c_str(),
                     autopsy.signal,
                     autopsy.roload_violation ? ", roload violation" : "");
    out += StrFormat("fault pc       : %s  %s\n", Hex(autopsy.fault_pc).c_str(),
                     autopsy.fault_symbol.c_str());
    out += StrFormat("fault va       : %s  %s\n", Hex(autopsy.fault_va).c_str(),
                     autopsy.va_symbol.c_str());
    if (autopsy.inst_decoded) {
      out += StrFormat("instruction    : %s  (key %u)\n",
                       autopsy.inst_text.c_str(), autopsy.inst_key);
    } else {
      out += "instruction    : <undecodable>\n";
    }
    if (autopsy.page_mapped) {
      out += StrFormat("target page    : %s%s%s key %u  section %s\n",
                       autopsy.page_readable ? "r" : "-",
                       autopsy.page_writable ? "w" : "-", "-", autopsy.pte_key,
                       autopsy.va_section.empty() ? "<none>"
                                                  : autopsy.va_section.c_str());
    } else {
      out += "target page    : <unmapped>\n";
    }
    if (!autopsy.expected_section.empty()) {
      out += StrFormat("expected in    : %s\n",
                       autopsy.expected_section.c_str());
    }
    out += "backtrace      :";
    for (std::uint64_t frame : autopsy.backtrace) {
      const std::string symbol = auditor.NearestSymbol(frame);
      out += StrFormat(" %s%s%s%s", Hex(frame).c_str(),
                       symbol.empty() ? "" : " (",
                       symbol.c_str(), symbol.empty() ? "" : ")");
    }
    out += "\n";
    // Registers most relevant to a hijack investigation first.
    out += StrFormat("ra/sp          : %s / %s\n",
                     Hex(autopsy.regs[isa::kRa]).c_str(),
                     Hex(autopsy.regs[isa::kSp]).c_str());
    out += "\n";
  }

  const DispatchCensus& census = auditor.census();
  out += "=== ld.ro dispatch census ===\n";
  out += StrFormat("sites: %zu  pass: %llu  fail: %llu\n",
                   census.sites().size(),
                   static_cast<unsigned long long>(census.total_passes()),
                   static_cast<unsigned long long>(census.total_fails()));
  for (const auto& [key, totals] : census.PerKey()) {
    const std::string section = auditor.SectionForKey(key);
    out += StrFormat(
        "  key %-4u sites %-4llu pass %-8llu fail %-4llu harts %-2llu %s\n",
        key, static_cast<unsigned long long>(totals.sites),
        static_cast<unsigned long long>(totals.passes),
        static_cast<unsigned long long>(totals.fails),
        static_cast<unsigned long long>(totals.harts),
        section.empty() ? "<no section>" : section.c_str());
  }
  for (const auto& [site_key, site] : census.sites()) {
    const std::string symbol = auditor.NearestSymbol(site.pc);
    out += StrFormat(
        "  site %s hart %-2u key %-4u pass %-8llu fail %-4llu pages %zu%s  "
        "%s\n",
        Hex(site.pc).c_str(), site.hart, site.key,
        static_cast<unsigned long long>(site.passes),
        static_cast<unsigned long long>(site.fails), site.pages.size(),
        site.pages_saturated ? "+" : "", symbol.c_str());
  }
  return out;
}

}  // namespace roload::audit
