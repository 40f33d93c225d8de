#include "verify/verify.h"

#include <algorithm>

#include "support/json.h"
#include "support/strings.h"

namespace roload::verify {

int RuleId(Rule rule) { return static_cast<int>(rule); }

std::string_view RuleName(Rule rule) {
  switch (rule) {
    case Rule::kIrKeyInvalid:
      return "ir-key-invalid";
    case Rule::kIrKeyedGlobalWritable:
      return "ir-keyed-global-writable";
    case Rule::kIrLoadKeyMismatch:
      return "ir-load-key-mismatch";
    case Rule::kIrSensitiveGlobalUnkeyed:
      return "ir-sensitive-global-unkeyed";
    case Rule::kIrTypeKeyCollision:
      return "ir-type-key-collision";
    case Rule::kIrStructural:
      return "ir-structural";
    case Rule::kBinSectionAttrs:
      return "bin-section-attrs";
    case Rule::kBinWritableKeyAlias:
      return "bin-writable-key-alias";
    case Rule::kBinKeyUnmapped:
      return "bin-key-unmapped";
    case Rule::kBinStaticTargetMismatch:
      return "bin-static-target-mismatch";
    case Rule::kBinUnprovenDispatch:
      return "bin-unproven-dispatch";
    case Rule::kBinRoloadCountMismatch:
      return "bin-roload-count-mismatch";
    case Rule::kBinMissingFixup:
      return "bin-missing-fixup";
    case Rule::kBinSymbolMisplaced:
      return "bin-symbol-misplaced";
    case Rule::kBinMissingCfiId:
      return "bin-missing-cfi-id";
    case Rule::kLoaderKeyMismatch:
      return "loader-key-mismatch";
    case Rule::kBinCalleeSavedClobbered:
      return "bin-callee-saved-clobbered";
    case Rule::kBinRoloadEscape:
      return "bin-roload-escape";
    case Rule::kBinUnprovenCalleeArg:
      return "bin-unproven-callee-arg";
    case Rule::kBinObligationUndischargeable:
      return "bin-obligation-undischargeable";
    case Rule::kBinRetAddrUnproven:
      return "bin-ret-addr-unproven";
    case Rule::kBinSpImbalance:
      return "bin-sp-imbalance";
  }
  return "unknown-rule";
}

void Report::Add(Rule rule, std::string where, std::string message) {
  violations_.push_back(
      Violation{rule, std::move(where), 0, false, std::move(message)});
}

void Report::AddAt(Rule rule, std::string where, std::uint64_t pc,
                   std::string message) {
  violations_.push_back(
      Violation{rule, std::move(where), pc, true, std::move(message)});
}

int Report::ExitCode() const {
  int code = 0;
  for (const Violation& v : violations_) {
    if (code == 0 || RuleId(v.rule) < code) code = RuleId(v.rule);
  }
  return code;
}

std::string Report::ToText() const {
  std::string out;
  for (const Violation& v : violations_) {
    out += StrFormat("RV%03d %s", RuleId(v.rule),
                     std::string(RuleName(v.rule)).c_str());
    if (!v.where.empty()) out += " " + v.where;
    if (v.has_pc) {
      out += StrFormat(" (pc 0x%llx)", static_cast<unsigned long long>(v.pc));
    }
    out += ": " + v.message + "\n";
  }
  out += StrFormat(
      "%zu violation%s; %llu function%s, %llu instructions, %llu ld.ro, "
      "%llu/%llu dispatches proven\n",
      violations_.size(), violations_.size() == 1 ? "" : "s",
      static_cast<unsigned long long>(stats_.functions),
      stats_.functions == 1 ? "" : "s",
      static_cast<unsigned long long>(stats_.instructions),
      static_cast<unsigned long long>(stats_.roload_instructions),
      static_cast<unsigned long long>(stats_.proven_dispatches),
      static_cast<unsigned long long>(stats_.dispatches));
  return out;
}

std::string Report::ToJson(std::string_view tool, std::string_view image,
                           std::string_view policy) const {
  JsonWriter json;
  json.BeginObject();
  json.KV("schema", "roload.verify.v1");
  json.KV("tool", tool);
  json.KV("image", image);
  json.KV("policy", policy);
  json.KV("ok", ok());
  json.KV("exit_code", ExitCode());
  json.Key("stats");
  json.BeginObject();
  json.KV("lint_globals", stats_.lint_globals);
  json.KV("lint_md_loads", stats_.lint_md_loads);
  json.KV("sections", stats_.sections);
  json.KV("keyed_sections", stats_.keyed_sections);
  json.KV("functions", stats_.functions);
  json.KV("instructions", stats_.instructions);
  json.KV("roload_instructions", stats_.roload_instructions);
  json.KV("dispatches", stats_.dispatches);
  json.KV("proven_dispatches", stats_.proven_dispatches);
  json.EndObject();
  json.Key("violations");
  json.BeginArray();
  for (const Violation& v : violations_) {
    json.BeginObject();
    json.KV("rule_id", RuleId(v.rule));
    json.KV("rule", RuleName(v.rule));
    json.KV("where", v.where);
    if (v.has_pc) json.KV("pc", Hex(v.pc));
    json.KV("message", v.message);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

Expectations ComputeExpectations(const ir::Module& hardened) {
  Expectations exp;
  for (const ir::Global& global : hardened.globals) {
    if (global.key != 0) exp.keyed_symbols[global.name] = global.key;
  }
  for (const ir::Function& fn : hardened.functions) {
    if (!fn.blocks.empty() && !fn.blocks.front().instrs.empty()) {
      const ir::Instr& first = fn.blocks.front().instrs.front();
      if (first.kind == ir::InstrKind::kCfiLabel) {
        exp.cfi_ids[fn.name] =
            static_cast<std::uint32_t>(first.imm) & 0xFFFFF;
      }
    }
    for (const ir::Block& block : fn.blocks) {
      for (const ir::Instr& instr : block.instrs) {
        if (instr.kind != ir::InstrKind::kLoad || !instr.has_roload_md) {
          continue;
        }
        ++exp.roload_loads;
        if (instr.imm != 0) ++exp.addi_fixups;
      }
    }
  }
  return exp;
}

}  // namespace roload::verify
