// rperf — perf-regression sentinel over the BENCH_*.json telemetry.
//
//   rperf --baseline FILE [--fresh FILE] [--run CMD] [--rule PAT=TOL]...
//
// Diffs a fresh bench result against a committed baseline, key by key,
// under per-key tolerance rules, and exits nonzero with a readable delta
// table when any gating key regressed. The division of labor with the
// benches: they *measure*, rperf *judges* — so CI has one place that
// decides what counts as a regression, and the judgement is data
// (tolerance rules), not code scattered across workflows.
//
// --baseline  the committed BENCH_*.json to diff against (required)
// --fresh     the freshly produced JSON. Defaults to the baseline's
//             filename in the current directory — where the bench
//             binaries write it — which is what --run produces
// --run       shell command to run first (the bench itself); rperf fails
//             if the command exits nonzero
// --rule      PAT=TOL tolerance override, first match wins, checked
//             before the built-ins. PAT is a glob over the flattened key
//             path ('*' matches any run). TOL is one of:
//               exact     any numeric difference is a gating regression
//               skip      never compared
//               advisory  reported but never gates
//               <P>%      gating when |fresh-base| > P% of |base|
//
// Built-in rules (after user rules): keys matching *mips*, *speedup*,
// *wall* or *seconds* are advisory — they measure the host, not the
// simulation, and no tolerance makes a shared CI runner honest. Every
// other numeric key is exact: the simulator is deterministic, so a
// counter that moved is a real behavior change someone must own (the
// baseline is regenerated deliberately, with the diff in review).
//
// Keys present in the baseline but missing fresh are gating whatever
// their rule, advisory included (a bench that silently stopped reporting
// a number is itself a regression); only `skip` exempts them. New fresh
// keys are advisory notes.
//
// Exit code: 0 clean, 1 gating regression (or --run failure), 2 usage
// or I/O error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "support/json_parse.h"
#include "support/strings.h"

using namespace roload;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rperf --baseline FILE [--fresh FILE] [--run CMD] "
               "[--rule PAT=TOL]...\n"
               "TOL: exact | skip | advisory | <percent>%%\n");
  return 2;
}

enum class Tolerance { kExact, kSkip, kAdvisory, kPercent };

struct Rule {
  std::string pattern;
  Tolerance tolerance = Tolerance::kExact;
  double percent = 0.0;
};

// Classic '*'-glob over the whole key path ('*' spans '.' too — the
// paths are flat dotted names, per-component anchoring buys nothing).
bool GlobMatch(std::string_view pattern, std::string_view text) {
  if (pattern.empty()) return text.empty();
  if (pattern[0] == '*') {
    for (std::size_t skip = 0; skip <= text.size(); ++skip) {
      if (GlobMatch(pattern.substr(1), text.substr(skip))) return true;
    }
    return false;
  }
  if (text.empty() || pattern[0] != text[0]) return false;
  return GlobMatch(pattern.substr(1), text.substr(1));
}

bool ParseRule(std::string_view text, Rule* rule) {
  const std::size_t eq = text.rfind('=');
  if (eq == std::string_view::npos || eq == 0) return false;
  rule->pattern = std::string(text.substr(0, eq));
  const std::string_view tol = text.substr(eq + 1);
  if (tol == "exact") {
    rule->tolerance = Tolerance::kExact;
    return true;
  }
  if (tol == "skip") {
    rule->tolerance = Tolerance::kSkip;
    return true;
  }
  if (tol == "advisory") {
    rule->tolerance = Tolerance::kAdvisory;
    return true;
  }
  std::string digits(tol);
  if (!digits.empty() && digits.back() == '%') digits.pop_back();
  char* end = nullptr;
  const double percent = std::strtod(digits.c_str(), &end);
  if (digits.empty() || end != digits.c_str() + digits.size() ||
      !std::isfinite(percent) || percent < 0) {
    return false;
  }
  rule->tolerance = Tolerance::kPercent;
  rule->percent = percent;
  return true;
}

const Rule* MatchRule(const std::vector<Rule>& rules,
                      const std::string& key) {
  for (const Rule& rule : rules) {
    if (GlobMatch(rule.pattern, key)) return &rule;
  }
  return nullptr;
}

StatusOr<std::vector<JsonLeaf>> LoadLeaves(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::InvalidArgument("cannot open: " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  auto parsed = ParseJson(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   parsed.status().ToString());
  }
  std::vector<JsonLeaf> leaves;
  FlattenJson(*parsed, "", &leaves);
  return leaves;
}

const JsonLeaf* FindLeaf(const std::vector<JsonLeaf>& leaves,
                         const std::string& path) {
  for (const JsonLeaf& leaf : leaves) {
    if (leaf.path == path) return &leaf;
  }
  return nullptr;
}

std::string FormatNumber(double value) {
  // Integers (the counter keys) print exactly; everything else gets
  // enough digits to see the drift.
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    return StrFormat("%.0f", value);
  }
  return StrFormat("%.6g", value);
}

struct Delta {
  std::string key;
  std::string baseline;
  std::string fresh;
  std::string delta;
  std::string rule;
  bool gating = false;
};

void PrintTable(const std::vector<Delta>& deltas) {
  std::printf("%-44s %14s %14s %10s %-10s %s\n", "key", "baseline",
              "fresh", "delta", "rule", "verdict");
  for (int i = 0; i < 104; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
  for (const Delta& d : deltas) {
    std::printf("%-44s %14s %14s %10s %-10s %s\n", d.key.c_str(),
                d.baseline.c_str(), d.fresh.c_str(), d.delta.c_str(),
                d.rule.c_str(), d.gating ? "GATING" : "advisory");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string fresh_path;
  std::string run_command;
  std::vector<Rule> rules;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (arg != flag) return nullptr;
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = value("--baseline")) {
      baseline_path = v;
    } else if (const char* v = value("--fresh")) {
      fresh_path = v;
    } else if (const char* v = value("--run")) {
      run_command = v;
    } else if (const char* v = value("--rule")) {
      Rule rule;
      if (!ParseRule(v, &rule)) {
        std::fprintf(stderr, "rperf: bad --rule %s\n", v);
        return Usage();
      }
      rules.push_back(std::move(rule));
    } else {
      return Usage();
    }
  }
  if (baseline_path.empty()) return Usage();
  if (fresh_path.empty()) {
    // The bench binaries write BENCH_<name>.json into the working
    // directory; default to that file, i.e. "re-run and compare".
    const std::size_t slash = baseline_path.find_last_of('/');
    fresh_path = slash == std::string::npos
                     ? baseline_path
                     : baseline_path.substr(slash + 1);
  }
  // The host-measurement keys judge the runner, not the simulator: never
  // gate on them. User rules precede these, so they can be tightened.
  for (const char* pattern : {"*mips*", "*speedup*", "*wall*", "*seconds*"}) {
    rules.push_back({pattern, Tolerance::kAdvisory, 0.0});
  }

  if (!run_command.empty()) {
    std::fprintf(stderr, "rperf: running: %s\n", run_command.c_str());
    const int rc = std::system(run_command.c_str());
    if (rc != 0) {
      std::fprintf(stderr, "rperf: command failed (status %d)\n", rc);
      return 1;
    }
  }

  auto baseline = LoadLeaves(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "rperf: %s\n", baseline.status().ToString().c_str());
    return 2;
  }
  auto fresh = LoadLeaves(fresh_path);
  if (!fresh.ok()) {
    std::fprintf(stderr, "rperf: %s\n", fresh.status().ToString().c_str());
    return 2;
  }

  std::vector<Delta> deltas;
  std::size_t gating = 0;
  std::size_t checked = 0;
  for (const JsonLeaf& base : *baseline) {
    const Rule* rule = MatchRule(rules, base.path);
    const Tolerance tolerance =
        rule != nullptr ? rule->tolerance : Tolerance::kExact;
    if (tolerance == Tolerance::kSkip) continue;
    ++checked;
    const JsonLeaf* now = FindLeaf(*fresh, base.path);

    Delta delta;
    delta.key = base.path;
    delta.rule = rule != nullptr
                     ? (tolerance == Tolerance::kPercent
                            ? StrFormat("%.3g%%", rule->percent)
                            : (tolerance == Tolerance::kAdvisory ? "advisory"
                                                                 : "exact"))
                     : "exact";
    if (now == nullptr) {
      delta.baseline = base.is_number ? FormatNumber(base.number) : base.text;
      delta.fresh = "(missing)";
      delta.delta = "-";
      delta.gating = true;
      ++gating;
      deltas.push_back(std::move(delta));
      continue;
    }
    if (base.is_number != now->is_number) {
      delta.baseline = base.is_number ? FormatNumber(base.number) : base.text;
      delta.fresh = now->is_number ? FormatNumber(now->number) : now->text;
      delta.delta = "type";
      delta.gating = tolerance != Tolerance::kAdvisory;
      gating += delta.gating ? 1 : 0;
      deltas.push_back(std::move(delta));
      continue;
    }
    if (!base.is_number) {
      if (base.text == now->text) continue;
      delta.baseline = base.text;
      delta.fresh = now->text;
      delta.delta = "-";
      delta.gating = tolerance != Tolerance::kAdvisory;
      gating += delta.gating ? 1 : 0;
      deltas.push_back(std::move(delta));
      continue;
    }
    const double diff = now->number - base.number;
    if (diff == 0.0) continue;
    const double pct =
        base.number != 0.0 ? diff / std::fabs(base.number) * 100.0 : 0.0;
    delta.baseline = FormatNumber(base.number);
    delta.fresh = FormatNumber(now->number);
    delta.delta = base.number != 0.0 ? StrFormat("%+.3f%%", pct)
                                     : StrFormat("%+g", diff);
    switch (tolerance) {
      case Tolerance::kExact:
        delta.gating = true;
        break;
      case Tolerance::kPercent:
        delta.gating = base.number == 0.0 ||
                       std::fabs(pct) > rule->percent;
        break;
      case Tolerance::kAdvisory:
      case Tolerance::kSkip:
        delta.gating = false;
        break;
    }
    gating += delta.gating ? 1 : 0;
    deltas.push_back(std::move(delta));
  }
  // New keys are worth a note (a bench grew a number the baseline does
  // not pin yet) but never a failure.
  for (const JsonLeaf& now : *fresh) {
    if (FindLeaf(*baseline, now.path) != nullptr) continue;
    Delta delta;
    delta.key = now.path;
    delta.baseline = "(new)";
    delta.fresh = now.is_number ? FormatNumber(now.number) : now.text;
    delta.delta = "-";
    delta.rule = "new-key";
    deltas.push_back(std::move(delta));
  }

  if (!deltas.empty()) PrintTable(deltas);
  std::printf("%zu keys checked against %s: %zu gating, %zu advisory\n",
              checked, baseline_path.c_str(), gating,
              deltas.size() - gating);
  return gating == 0 ? 0 : 1;
}
