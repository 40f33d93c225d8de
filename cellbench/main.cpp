// cellbench: the cell-level host benchmark.
//
//   cellbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//             [--reference FILE] [--trace-out FILE] [--result-out FILE]
//             [--git-sha SHA] [--src-digest HEX]
//   cellbench --derive --workload W|all [--seed N] --out FILE
//   cellbench --self-test
//
// A run makes round(seconds / pass_seconds) whole passes over the
// workload's ops in canonical order, closed loop at the workload's client
// count, checks every op against the reference and prints one JSON result
// object as its last line of standard output. --trace 1 instead runs each
// op twice, through the public entry point and then layer by layer under
// spans, and reports the per-layer ledger. cellbench/run.py builds this
// binary and derives references; use it rather than calling cellbench
// directly.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cells.h"
#include "ledger.h"
#include "support/json.h"

namespace cellbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool derive = false;
  bool self_test = false;
  std::string reference;
  std::string out;
  std::string trace_out;
  std::string result_out;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

// A run starts no new pass once it has taken this many times --seconds,
// so a host far slower than the one the passes were sized on cannot
// stretch it without limit; the run still holds whole passes.
constexpr double kOverrunLimit = 1.35;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::mutex g_log_mu;

void Report(const std::string& op, const std::vector<std::string>& bad) {
  std::lock_guard<std::mutex> lock(g_log_mu);
  for (const std::string& line : bad) {
    std::fprintf(stderr, "cellbench: FAIL %s: %s\n", op.c_str(), line.c_str());
  }
}

// What one client saw.
struct ClientLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> op_ms;        // untraced ops (the twins, when traced)
  std::vector<double> traced_ms;    // traced workload ops
  std::uint64_t instructions = 0;   // simulated, over untraced ops
  std::uint64_t ledger_failures = 0;
  std::uint64_t divergences = 0;  // known translated-tier D-TLB divergences
  std::map<std::string, std::uint64_t> classifications;
};

// Runs `op` through its public entry point, times it and checks it.
// Returns the facts; counts the op as failed on any mismatch.
Facts RunChecked(const Op& op, const Reference& reference, ClientLog* log) {
  const Clock::time_point start = Clock::now();
  Facts facts = RunOp(op);
  const double ms = SecondsSince(start) * 1e3;
  std::string divergence;
  const std::vector<std::string> bad =
      Check(op, facts, reference, &divergence);
  Report(op.name, bad);
  if (!divergence.empty()) {
    ++log->divergences;
    std::lock_guard<std::mutex> lock(g_log_mu);
    std::fprintf(stderr, "cellbench: DIVERGENCE %s: %s\n", op.name.c_str(),
                 divergence.c_str());
  }
  ++log->attempted;
  if (!bad.empty()) ++log->failed;
  log->op_ms.push_back(ms);
  log->instructions += facts.instructions;
  if (op.kind == OpKind::kAttack) ++log->classifications[facts.classification];
  return facts;
}

// One traced op and its untraced twin; the layer-by-layer run must
// reproduce the twin's facts exactly. Which of the two runs first
// alternates with the op id, so warm host caches favour neither side of
// the tracing-overhead figure.
void RunTraced(const Op& op, bool workload_op, std::uint64_t id,
               unsigned client, const Reference& reference, Ledger* ledger,
               ClientLog* log) {
  Facts twin;
  auto run_twin = [&] {
    twin = workload_op ? RunChecked(op, reference, log) : RunOp(op);
  };
  if (id % 2 == 0) run_twin();
  OpTrace trace;
  trace.id = id;
  trace.name = op.name;
  trace.client = client;
  OpRecorder recorder(ledger->epoch(), std::move(trace));
  const Facts traced = RunOpTraced(op, &recorder);
  trace = recorder.Finish();
  if (id % 2 == 1) run_twin();
  std::vector<std::string> bad = CompareTwin(twin, traced);
  std::string divergence;
  for (std::string& line : Check(op, traced, reference, &divergence)) {
    bad.push_back("traced: " + line);
  }
  Report(op.name, bad);
  if (!bad.empty()) {
    if (workload_op) {
      ++log->failed;
    } else {
      ++log->ledger_failures;
    }
  }
  if (workload_op) {
    log->traced_ms.push_back(
        static_cast<double>(trace.spans[0].end_ns - trace.spans[0].start_ns) /
        1e6);
  }
  ledger->Add(std::move(trace));
}

// Nearest-rank percentile of sorted values.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// The highest percentile of the grid with at least ten samples beyond it.
double TailPercentile(std::size_t samples) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples)));
    if (samples >= rank + 10) return p;
  }
  return 50.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void WriteFile(const std::string& path, const std::string& text) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << text;
  if (!out) std::fprintf(stderr, "cellbench: cannot write %s\n", path.c_str());
}

int Derive(const Args& args) {
  std::vector<std::string> names;
  if (args.workload == "all") {
    for (std::string_view name : kWorkloadNames) names.emplace_back(name);
  } else {
    names.push_back(args.workload);
  }
  Reference merged;
  for (const std::string& name : names) {
    auto workload = MakeWorkload(name, args.seed);
    if (!workload.ok()) {
      std::fprintf(stderr, "cellbench: %s\n",
                   workload.status().ToString().c_str());
      return 2;
    }
    Reference reference = DeriveReference(*workload, /*jobs=*/0);
    merged.ops.merge(reference.ops);
  }
  std::ofstream out(args.out);
  out << ReferenceToJson(merged, args.seed);
  if (!out) {
    std::fprintf(stderr, "cellbench: cannot write %s\n", args.out.c_str());
    return 2;
  }
  return 0;
}

// One op per workload at a tiny size: clean references must pass, and a
// corrupted expected cycle count, attack outcome and verifier statistic
// must each turn into a failed op.
int SelfTest() {
  int broken = 0;
  auto expect = [&broken](bool ok, const std::string& what) {
    std::printf("self-test: %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) ++broken;
  };
  for (std::string_view name : kWorkloadNames) {
    auto workload = MakeWorkload(name, /*seed=*/0, /*size=*/0.02);
    if (!workload.ok()) return 2;
    workload->ops.resize(1);
    const Op& op = workload->ops[0];
    Reference reference = DeriveReference(*workload, 1);
    reference.attacks = PaperAttackTable();

    ClientLog log;
    RunChecked(op, reference, &log);
    Ledger ledger(Clock::now());
    RunTraced(op, true, 0, 0, reference, &ledger, &log);
    expect(log.failed == 0, op.name + " passes its reference");

    Reference corrupt = reference;
    std::string what;
    switch (op.kind) {
      case OpKind::kCell:
        corrupt.ops[op.name].cycles += 1;
        what = " with a corrupted expected cycle count";
        break;
      case OpKind::kVerify:
        corrupt.ops[op.name].stats.instructions += 1;
        what = " with a corrupted expected verifier count";
        break;
      case OpKind::kAttack:
        corrupt.attacks[AttackKey(op.attack, op.run.build.defense)] = "blocked";
        what = " with a corrupted expected outcome";
        break;
      case OpKind::kVictim:
        break;
    }
    ClientLog bad_log;
    if (op.kind == OpKind::kVerify) {
      RunTraced(op, true, 1, 0, corrupt, &ledger, &bad_log);
    } else {
      RunChecked(op, corrupt, &bad_log);
    }
    expect(bad_log.failed == 1, op.name + what + " fails");
  }
  std::printf("self-test: %s\n", broken == 0 ? "PASS" : "FAIL");
  return broken == 0 ? 0 : 1;
}

int Measure(const Args& args, Clock::time_point process_start) {
  // One set-up: workload spec generation, the reference, one warm-up op.
  ClientLog warmup;
  auto set_up = [&](Workload* workload, Reference* reference) {
    auto made = MakeWorkload(args.workload, args.seed);
    if (!made.ok()) {
      std::fprintf(stderr, "cellbench: %s\n", made.status().ToString().c_str());
      return false;
    }
    *workload = std::move(made).value();
    if (args.reference.empty()) {
      *reference = Reference{};
      reference->attacks = PaperAttackTable();
    } else {
      auto loaded = LoadReference(args.reference);
      if (!loaded.ok()) {
        std::fprintf(stderr, "cellbench: %s\n",
                     loaded.status().ToString().c_str());
        return false;
      }
      *reference = std::move(loaded).value();
    }
    RunChecked(workload->ops[0], *reference, &warmup);
    return true;
  };
  // setup_s is the median of six set-ups: the first counted from process
  // start, two more before the timed loop and three after it. A set-up is
  // short enough to fall inside one slow phase of a shared host; spreading
  // the repeats over the run keeps one phase from setting the figure.
  std::vector<double> setup_s;
  Workload workload;
  Reference reference;
  for (int round = 0; round < 3; ++round) {
    const Clock::time_point start = round == 0 ? process_start : Clock::now();
    if (!set_up(&workload, &reference)) return 2;
    setup_s.push_back(SecondsSince(start));
  }

  // The op sequence: whole passes in canonical order, so every seed runs
  // the same op mix in the same order and only the programs differ.
  const double pass_seconds =
      args.trace ? 2.0 * workload.pass_seconds : workload.pass_seconds;
  const auto passes = static_cast<std::uint64_t>(
      std::max(1.0, std::round(args.seconds / pass_seconds)));
  struct Item {
    const Op* op;
    bool workload_op;
  };
  std::vector<Item> sequence;
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    for (const Op& op : workload.ops) sequence.push_back({&op, true});
    if (args.trace) {
      for (const Op& op : workload.ledger_ops) sequence.push_back({&op, false});
    }
  }

  const std::size_t pass_size = sequence.size() / passes;
  Ledger ledger(Clock::now());
  std::vector<ClientLog> logs(workload.clients);
  std::mutex next_mu;
  std::size_t next = 0;
  const Clock::time_point loop_start = Clock::now();
  // Hands out the next op index; no new pass starts past the overrun limit.
  auto take = [&]() -> std::optional<std::size_t> {
    std::lock_guard<std::mutex> lock(next_mu);
    if (next == sequence.size()) return std::nullopt;
    if (next % pass_size == 0 &&
        SecondsSince(loop_start) > kOverrunLimit * args.seconds) {
      next = sequence.size();
      return std::nullopt;
    }
    return next++;
  };
  {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < workload.clients; ++c) {
      clients.emplace_back([&, c] {
        while (const std::optional<std::size_t> i = take()) {
          const Item& item = sequence[*i];
          if (args.trace) {
            RunTraced(*item.op, item.workload_op, *i, c, reference, &ledger,
                      &logs[c]);
          } else {
            RunChecked(*item.op, reference, &logs[c]);
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  const double wall_s = SecondsSince(loop_start);
  for (int round = 0; round < 3; ++round) {
    const Clock::time_point start = Clock::now();
    Workload again;
    Reference again_reference;
    if (!set_up(&again, &again_reference)) return 2;
    setup_s.push_back(SecondsSince(start));
  }

  ClientLog all;
  all.attempted = warmup.attempted;
  all.failed = warmup.failed;
  all.divergences = warmup.divergences;
  for (const ClientLog& log : logs) {
    all.attempted += log.attempted;
    all.failed += log.failed;
    all.ledger_failures += log.ledger_failures;
    all.divergences += log.divergences;
    all.instructions += log.instructions;
    all.op_ms.insert(all.op_ms.end(), log.op_ms.begin(), log.op_ms.end());
    all.traced_ms.insert(all.traced_ms.end(), log.traced_ms.begin(),
                         log.traced_ms.end());
    for (const auto& [name, count] : log.classifications) {
      all.classifications[name] += count;
    }
  }
  std::sort(all.op_ms.begin(), all.op_ms.end());
  const std::size_t timed_ops = all.op_ms.size();
  const std::uint64_t passes_run =
      std::max<std::uint64_t>(1, timed_ops / workload.ops.size());
  const double tail_p = TailPercentile(timed_ops);
  const double op_ms_p50 = Median(all.op_ms);
  const double op_seconds =
      std::accumulate(all.op_ms.begin(), all.op_ms.end(), 0.0) / 1e3;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"ops_per_s", static_cast<double>(timed_ops) / wall_s, "1/s"},
        {"op_ms_p50", op_ms_p50, "ms"},
        {"op_ms_tail", Percentile(all.op_ms, tail_p), "ms"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    std::map<std::string, LayerRow> rows;
    for (const LayerRow& row : ledger.Layers()) rows[row.name] = row;
    auto layer_ms = [&rows](const char* name) {
      auto it = rows.find(name);
      return it == rows.end() ? 0.0 : it->second.median_op_ms;
    };
    auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const double run_s = ledger.SelfMs("cpu.run") / 1e3;
    metrics = {
        {"workloads.generate_ms", layer_ms("workloads.generate"), "ms"},
        {"passes.harden_ms", layer_ms("passes.harden"), "ms"},
        {"backend.codegen_ms", layer_ms("backend.codegen"), "ms"},
        {"asmtool.assemble_ms", layer_ms("asmtool.assemble"), "ms"},
        {"asmtool.image_mib", ledger.MedianCount("asmtool.image_mib"), "MiB"},
        {"verify.check_ms", layer_ms("verify.check"), "ms"},
        {"verify.instructions", ledger.MedianCount("verify.instructions"),
         "count"},
        {"verify.us_per_instruction",
         ratio(ledger.SelfMs("verify.check") * 1e3,
               ledger.SumCount("verify.instructions")),
         "us"},
        {"core.system_init_ms", layer_ms("core.system_init"), "ms"},
        {"core.system_teardown_ms", layer_ms("core.system_teardown"), "ms"},
        {"kernel.load_ms", layer_ms("kernel.load"), "ms"},
        {"cpu.run_ms", layer_ms("cpu.run"), "ms"},
        {"cpu.run_mips", ratio(ledger.SumCount("cpu.instructions"), run_s * 1e6),
         "MIPS"},
        {"cpu.instructions", ledger.MedianCount("cpu.instructions"), "count"},
        {"cpu.jit.interpreted_share",
         ratio(ledger.SumCount("jit.interpreted_instructions"),
               ledger.SumCount("cpu.instructions")),
         "ratio"},
        {"cpu.jit.guard_fail_ratio",
         ratio(ledger.SumCount("jit.guard_fails"),
               ledger.SumCount("jit.block_entries")),
         "ratio"},
        {"cpu.jit.blocks_built", ledger.MedianCount("jit.blocks_built"),
         "count"},
        {"cpu.jit.dtlb_divergences",
         static_cast<double>(all.divergences) / static_cast<double>(passes_run),
         "count"},
        {"smp.machine_init_ms", layer_ms("smp.machine_init"), "ms"},
        {"smp.run_ms", layer_ms("smp.run"), "ms"},
        {"smp.tlb_shootdowns", ledger.MedianCount("smp.tlb_shootdowns"),
         "count"},
        {"sec.attack_ms", layer_ms("sec.attack"), "ms"},
        {"sec.roload_kills",
         ledger.SumCount("sec.roload_kills") / static_cast<double>(passes_run),
         "count"},
        {"trace.snapshot_ms", layer_ms("trace.snapshot"), "ms"},
        {"trace.overhead_ms", Median(all.traced_ms) - op_ms_p50, "ms"},
        {"op.uncovered_share", ledger.UncoveredShare(), "ratio"},
        {"sim_mips",
         ratio(static_cast<double>(all.instructions), op_seconds * 1e6),
         "MIPS"},
    };
  }

  // The readable report.
  std::printf("cellbench %s seed=%llu trace=%d: %zu ops in %llu passes of "
              "%zu, %u client(s), %.3f s\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              timed_ops, static_cast<unsigned long long>(passes_run),
              workload.ops.size(), workload.clients, wall_s);
  std::printf("  latency p50 %.3f ms, p%g %.3f ms (%zu samples, %zu beyond)\n",
              op_ms_p50, tail_p, Percentile(all.op_ms, tail_p), timed_ops,
              timed_ops - static_cast<std::size_t>(std::ceil(
                              tail_p / 100.0 * static_cast<double>(timed_ops))));
  std::printf("  failed %llu of %llu attempted (fail_ratio %.4f)\n",
              static_cast<unsigned long long>(all.failed),
              static_cast<unsigned long long>(all.attempted),
              all.attempted ? static_cast<double>(all.failed) /
                                  static_cast<double>(all.attempted)
                            : 0.0);
  std::printf("  known translated-tier D-TLB divergences: %llu\n",
              static_cast<unsigned long long>(all.divergences));
  for (const auto& [name, count] : all.classifications) {
    std::printf("  class %-44s %llu\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  if (args.trace) {
    std::printf("  %-26s %8s %6s %12s %12s %7s\n", "layer (self time)", "calls",
                "ops", "total ms", "median/op ms", "share");
    double total = 0.0;
    for (const LayerRow& row : ledger.Layers()) total += row.total_ms;
    for (const LayerRow& row : ledger.Layers()) {
      std::printf("  %-26s %8llu %6llu %12.3f %12.3f %6.2f%%\n",
                  row.name == "op" ? "(uncovered)" : row.name.c_str(),
                  static_cast<unsigned long long>(row.calls),
                  static_cast<unsigned long long>(row.ops), row.total_ms,
                  row.median_op_ms, total > 0 ? 100.0 * row.total_ms / total
                                              : 0.0);
    }
    std::printf("  tracing overhead: traced op median %.3f ms - untraced "
                "%.3f ms = %.3f ms\n",
                Median(all.traced_ms), op_ms_p50,
                Median(all.traced_ms) - op_ms_p50);
    WriteFile(args.trace_out, ledger.ToChromeTrace());
  }

  const bool correct = all.failed == 0 && all.ledger_failures == 0;

  // The full result document, with provenance.
  roload::JsonWriter doc(/*pretty=*/false);
  doc.BeginObject();
  doc.KV("schema", "cellbench.result.v1");
  doc.KV("workload", workload.name);
  doc.KV("trace", args.trace);
  doc.Key("provenance").BeginObject();
  doc.KV("git_sha", args.git_sha);
  doc.KV("src_digest", args.src_digest);
  doc.KV("compiler", CELLBENCH_COMPILER);
  doc.KV("build_type", CELLBENCH_BUILD_TYPE);
  doc.KV("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  doc.KV("seed", args.seed);
  doc.KV("clients", static_cast<std::uint64_t>(workload.clients));
  doc.KV("passes", passes_run);
  doc.KV("ops_per_pass", static_cast<std::uint64_t>(workload.ops.size()));
  doc.KV("ops_per_run", static_cast<std::uint64_t>(timed_ops));
  doc.KV("seconds_requested", args.seconds);
  doc.KV("seconds_measured", wall_s);
  doc.EndObject();
  doc.Key("tail").BeginObject();
  doc.KV("percentile", tail_p);
  doc.KV("samples", static_cast<std::uint64_t>(timed_ops));
  doc.EndObject();
  doc.KV("attempted", all.attempted);
  doc.KV("failed", all.failed);
  doc.KV("dtlb_divergences", all.divergences);
  doc.Key("classifications").BeginObject();
  for (const auto& [name, count] : all.classifications) doc.KV(name, count);
  doc.EndObject();
  doc.Key("metrics").BeginObject();
  for (const Metric& metric : metrics) doc.KV(metric.name, metric.value);
  doc.EndObject();
  doc.EndObject();
  std::printf("%s\n", doc.str().c_str());
  WriteFile(args.result_out, doc.str() + "\n");

  // The last line: the result object.
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(all.attempted);
  line += ", \"failed\": " + std::to_string(all.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string text;
    if (flag == "--derive") {
      args->derive = true;
    } else if (flag == "--self-test") {
      args->self_test = true;
    } else if (flag == "--workload") {
      if (!value(&args->workload)) return false;
    } else if (flag == "--seed") {
      if (!value(&text)) return false;
      args->seed = std::strtoull(text.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      if (!value(&text)) return false;
      args->seconds = std::strtod(text.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (!value(&text)) return false;
      args->trace = text == "1";
    } else if (flag == "--reference") {
      if (!value(&args->reference)) return false;
    } else if (flag == "--out") {
      if (!value(&args->out)) return false;
    } else if (flag == "--trace-out") {
      if (!value(&args->trace_out)) return false;
    } else if (flag == "--result-out") {
      if (!value(&args->result_out)) return false;
    } else if (flag == "--git-sha") {
      if (!value(&args->git_sha)) return false;
    } else if (flag == "--src-digest") {
      if (!value(&args->src_digest)) return false;
    } else {
      return false;
    }
  }
  if (args->self_test) return true;
  if (args->derive && args->out.empty()) return false;
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace cellbench

int main(int argc, char** argv) {
  const cellbench::Clock::time_point process_start = cellbench::Clock::now();
  cellbench::Args args;
  if (!cellbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cellbench --workload W [--seed N] [--seconds S] "
                 "[--trace 0|1] [--reference F] [--trace-out F] "
                 "[--result-out F]\n"
                 "       cellbench --derive --workload W|all [--seed N] "
                 "--out F\n"
                 "       cellbench --self-test\n");
    return 2;
  }
  if (args.self_test) return cellbench::SelfTest();
  if (args.derive) return cellbench::Derive(args);
  return cellbench::Measure(args, process_start);
}
