// Telemetry subsystem tests: counter registry bridging and determinism,
// hub-to-sink event delivery, exact cycle attribution, the exporters' and
// the Chrome-trace sink's golden output, and — the load-bearing guarantee
// — that enabling the full tracing stack never perturbs architectural
// state or cycle counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/toolchain.h"
#include "ir/builder.h"
#include "support/json_parse.h"
#include "tests/guest_util.h"
#include "trace/exporters.h"
#include "trace/merge.h"
#include "trace/session.h"
#include "trace/stream_sink.h"

namespace roload {
namespace {

using trace::CycleBucket;
using trace::EventCategory;
using trace::EventType;
using trace::TraceEvent;

// ---------------------------------------------------------------------------
// Unit level: registry, hub sinks, profiler.

// Keeps every event it is handed, in arrival order.
struct RecordingSink : trace::EventSink {
  void OnEvent(const TraceEvent& event) override { events.push_back(event); }
  std::vector<TraceEvent> events;
};

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

bool SameEvent(const TraceEvent& a, const TraceEvent& b) {
  return a.cycle == b.cycle && a.pc == b.pc && a.addr == b.addr &&
         a.arg == b.arg && a.type == b.type && a.category == b.category &&
         a.unit == b.unit && a.hart == b.hart;
}

TEST(CounterRegistryTest, BridgedCellTracksLiveValue) {
  trace::CounterRegistry registry;
  std::uint64_t cell = 0;
  registry.Register("unit.bridged", &cell);
  EXPECT_EQ(registry.Value("unit.bridged"), 0u);
  cell = 41;
  ++cell;
  EXPECT_EQ(registry.Value("unit.bridged"), 42u);
}

TEST(CounterRegistryTest, OwnedCellAndUnknownLookup) {
  trace::CounterRegistry registry;
  std::uint64_t* owned = registry.RegisterOwned("unit.owned");
  *owned = 7;
  bool found = false;
  EXPECT_EQ(registry.Value("unit.owned", &found), 7u);
  EXPECT_TRUE(found);
  EXPECT_EQ(registry.Value("unit.no_such", &found), 0u);
  EXPECT_FALSE(found);
}

TEST(CounterRegistryTest, SnapshotSortsByName) {
  trace::CounterRegistry registry;
  *registry.RegisterOwned("z.last") = 1;
  *registry.RegisterOwned("a.first") = 2;
  *registry.RegisterOwned("m.middle") = 3;
  const auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].first, "a.first");
  EXPECT_EQ(snapshot[1].first, "m.middle");
  EXPECT_EQ(snapshot[2].first, "z.last");
  EXPECT_EQ(snapshot[2].second, 1u);
}

TEST(CycleProfilerTest, ResidualProtocolSumsExactly) {
  trace::CycleProfiler profiler;
  profiler.BeginStep();
  profiler.Charge(CycleBucket::kDCacheMiss, 3);
  profiler.Charge(CycleBucket::kDTlbWalk, 2);
  profiler.EndStep(CycleBucket::kCompute, /*pc=*/0x10000, /*total_cycles=*/10);
  profiler.BeginStep();
  profiler.EndStep(CycleBucket::kSyscall, /*pc=*/0x10008, /*total_cycles=*/4);

  EXPECT_EQ(profiler.bucket(CycleBucket::kDCacheMiss), 3u);
  EXPECT_EQ(profiler.bucket(CycleBucket::kDTlbWalk), 2u);
  EXPECT_EQ(profiler.bucket(CycleBucket::kCompute), 5u);
  EXPECT_EQ(profiler.bucket(CycleBucket::kSyscall), 4u);
  EXPECT_EQ(profiler.total_cycles(), 14u);
  std::uint64_t sum = 0;
  for (unsigned b = 0; b < static_cast<unsigned>(CycleBucket::kNumBuckets);
       ++b) {
    sum += profiler.bucket(static_cast<CycleBucket>(b));
  }
  EXPECT_EQ(sum, profiler.total_cycles());
  // Both steps land in the same 4 KiB pc range.
  const auto ranges = profiler.PcRanges();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 0x10000u);
  EXPECT_EQ(ranges[0].second, 14u);
}

// ---------------------------------------------------------------------------
// System level: a small guest exercising ld.ro, syscalls and the MMU.

constexpr const char* kGuestSource = R"(
.section .text
_start:
  la t0, secret
  ld.ro t1, (t0), 9
  li t2, 1234
  sub a0, t1, t2
  snez a0, a0
  li a7, 93
  ecall
.section .rodata.key.9
secret:
  .quad 1234
)";

TEST(HubTest, ForwardsEachEventToAttachedSinksOnly) {
  std::uint64_t clock = 0;
  trace::Hub hub({.categories = trace::kAllCategories});
  hub.set_clock(&clock);
  RecordingSink first, second;
  hub.AddSink(&first);
  hub.AddSink(&second);

  // Two sinks see the same stream, stamped and in emission order.
  for (std::uint64_t i = 0; i < 4; ++i) {
    clock = 10 + i;
    hub.set_current_hart(static_cast<unsigned>(i % 2));
    hub.Emit(trace::Unit::kCpu, EventCategory::kInstruction,
             EventType::kRetire, 0x1000 + i * 4, 0, i);
  }
  ASSERT_EQ(first.events.size(), 4u);
  ASSERT_EQ(second.events.size(), 4u);
  for (std::size_t i = 0; i < first.events.size(); ++i) {
    EXPECT_TRUE(SameEvent(first.events[i], second.events[i])) << i;
    EXPECT_EQ(first.events[i].cycle, 10u + i);
    EXPECT_EQ(first.events[i].pc, 0x1000u + i * 4);
    EXPECT_EQ(first.events[i].hart, i % 2);
  }

  // A removed sink receives nothing more; the other keeps receiving.
  hub.RemoveSink(&first);
  hub.Emit(trace::Unit::kDTlb, EventCategory::kTlb, EventType::kTlbFill,
           0x2000, 0x3000, 0);
  EXPECT_EQ(first.events.size(), 4u);
  ASSERT_EQ(second.events.size(), 5u);
  EXPECT_EQ(second.events.back().type, EventType::kTlbFill);

  hub.RemoveSink(&second);

  // A masked category reaches no sink: on a machine tracing only kRoLoad,
  // the guest's retires, TLB fills and syscall never arrive, its ld.ro
  // check does.
  auto image = asmtool::Assemble(kGuestSource);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  core::SystemConfig config;
  config.trace.categories = trace::CategoryBit(EventCategory::kRoLoad);
  core::System system(config);
  RecordingSink masked;
  system.trace().AddSink(&masked);
  ASSERT_TRUE(system.Load(*image).ok());
  ASSERT_EQ(system.Run(1 << 22).kind, kernel::ExitKind::kExited);
  system.trace().RemoveSink(&masked);
  ASSERT_FALSE(masked.events.empty());
  for (const TraceEvent& event : masked.events) {
    EXPECT_EQ(event.category, EventCategory::kRoLoad)
        << trace::EventTypeName(event.type);
  }
}

TEST(TraceSystemTest, CountersMatchLegacyStats) {
  const testing::GuestRun run = testing::RunGuest(kGuestSource);
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kExited);
  ASSERT_EQ(run.result.exit_code, 0);
  core::System& system = *run.system;
  const trace::CounterRegistry& counters = system.trace().counters();
  const cpu::CpuStats& cpu = system.cpu().stats();

  EXPECT_EQ(counters.Value("cpu.instret"), cpu.instructions);
  EXPECT_EQ(counters.Value("cpu.cycles"), cpu.cycles);
  EXPECT_EQ(counters.Value("cpu.roload_loads"), cpu.roload_loads);
  EXPECT_EQ(cpu.roload_loads, 1u);
  // Every retired ld.ro went through exactly one key check, and all passed.
  EXPECT_EQ(counters.Value("tlb.d.key_check"), cpu.roload_loads);
  EXPECT_EQ(counters.Value("tlb.d.key_check_hit"),
            counters.Value("tlb.d.key_check"));
  EXPECT_EQ(counters.Value("kernel.fault.roload"), 0u);
  EXPECT_GE(counters.Value("kernel.syscalls"), 1u);
}

TEST(TraceSystemTest, CounterSnapshotIsDeterministicAcrossRuns) {
  const testing::GuestRun first = testing::RunGuest(kGuestSource);
  const testing::GuestRun second = testing::RunGuest(kGuestSource);
  ASSERT_EQ(first.result.kind, kernel::ExitKind::kExited);
  ASSERT_EQ(second.result.kind, kernel::ExitKind::kExited);
  const auto a = first.system->trace().counters().Snapshot();
  const auto b = second.system->trace().counters().Snapshot();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 20u);  // the full registry, not a stub
}

// The bit-identical guarantee: running with every category traced and the
// profiler on must leave cycles, retired instructions, the exit code and
// all architectural state exactly as a run with telemetry disabled.
TEST(TraceSystemTest, FullTracingIsBitIdenticalToDisabled) {
  const testing::GuestRun plain = testing::RunGuest(kGuestSource);

  auto image = asmtool::Assemble(kGuestSource);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  core::SystemConfig config;
  config.trace.categories = trace::kAllCategories;
  config.trace.profile = true;
  core::System traced(config);
  RecordingSink sink;
  traced.trace().AddSink(&sink);
  ASSERT_TRUE(traced.Load(*image).ok());
  const kernel::RunResult result = traced.Run(1 << 22);

  ASSERT_EQ(result.kind, plain.result.kind);
  EXPECT_EQ(result.exit_code, plain.result.exit_code);
  const cpu::CpuStats& a = plain.system->cpu().stats();
  const cpu::CpuStats& b = traced.cpu().stats();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(plain.system->cpu().pc(), traced.cpu().pc());
  for (unsigned r = 0; r < isa::kNumRegs; ++r) {
    EXPECT_EQ(plain.system->cpu().reg(r), traced.cpu().reg(r)) << "x" << r;
  }
  // And the traced run actually recorded something.
  EXPECT_GT(sink.events.size(), 0u);
  traced.trace().RemoveSink(&sink);
  EXPECT_GT(traced.trace().profiler().total_cycles(), 0u);
}

TEST(TraceSystemTest, ProfilerBucketsSumToCpuCycles) {
  auto image = asmtool::Assemble(kGuestSource);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  core::SystemConfig config;
  config.trace.profile = true;
  core::System system(config);
  ASSERT_TRUE(system.Load(*image).ok());
  const kernel::RunResult result = system.Run(1 << 22);
  ASSERT_EQ(result.kind, kernel::ExitKind::kExited);

  const trace::CycleProfiler& profiler = system.trace().profiler();
  std::uint64_t sum = 0;
  for (unsigned b = 0; b < static_cast<unsigned>(CycleBucket::kNumBuckets);
       ++b) {
    sum += profiler.bucket(static_cast<CycleBucket>(b));
  }
  EXPECT_EQ(sum, system.cpu().stats().cycles);
  EXPECT_EQ(profiler.total_cycles(), system.cpu().stats().cycles);
  // The guest retires one ld.ro; its base cycles must be attributed to the
  // dedicated ROLoad bucket.
  EXPECT_GT(profiler.bucket(CycleBucket::kRoLoadLoad), 0u);
  EXPECT_GT(profiler.bucket(CycleBucket::kSyscall), 0u);
}

TEST(TraceSystemTest, EventStreamIsChronologicalAndTyped) {
  auto image = asmtool::Assemble(kGuestSource);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  core::SystemConfig config;
  config.trace.categories = trace::kAllCategories;
  core::System system(config);
  RecordingSink sink;
  system.trace().AddSink(&sink);
  ASSERT_TRUE(system.Load(*image).ok());
  const kernel::RunResult result = system.Run(1 << 22);
  system.trace().RemoveSink(&sink);
  ASSERT_EQ(result.kind, kernel::ExitKind::kExited);

  ASSERT_GT(sink.events.size(), 0u);
  std::uint64_t retires = 0;
  bool saw_syscall = false, saw_tlb_fill = false;
  std::uint64_t last_cycle = 0;
  for (const TraceEvent& event : sink.events) {
    EXPECT_GE(event.cycle, last_cycle);
    last_cycle = event.cycle;
    retires += event.type == EventType::kRetire;
    saw_syscall |= event.type == EventType::kSyscall;
    saw_tlb_fill |= event.type == EventType::kTlbFill;
  }
  // One retire event per retired instruction, the exit ecall included.
  EXPECT_EQ(system.cpu().stats().instructions, 8u);
  EXPECT_EQ(retires, system.cpu().stats().instructions);
  EXPECT_TRUE(saw_syscall);
  EXPECT_TRUE(saw_tlb_fill);
}

TEST(TraceSystemTest, RoLoadKeyMismatchEmitsFaultEvent) {
  constexpr const char* kBadKeySource = R"(
.section .text
_start:
  la t0, secret
  ld.ro t1, (t0), 8
  li a7, 93
  ecall
.section .rodata.key.9
secret:
  .quad 1234
)";
  auto image = asmtool::Assemble(kBadKeySource);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  core::SystemConfig config;
  config.trace.categories = trace::kAllCategories;
  core::System system(config);
  RecordingSink sink;
  system.trace().AddSink(&sink);
  ASSERT_TRUE(system.Load(*image).ok());
  const kernel::RunResult result = system.Run(1 << 22);
  system.trace().RemoveSink(&sink);
  ASSERT_EQ(result.kind, kernel::ExitKind::kKilled);
  EXPECT_TRUE(result.roload_violation);

  bool saw_fault = false;
  for (const TraceEvent& event : sink.events) {
    saw_fault |= event.type == EventType::kRoLoadFault;
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_EQ(system.trace().counters().Value("kernel.fault.roload"), 1u);
}

// ---------------------------------------------------------------------------
// Toolchain level: a hardened workload reports identical counters on
// repeated builds+runs (what the bench JSON files rely on).

ir::Module MakeVcallModule() {
  ir::Module module;
  module.name = "trace_vcall";
  const int class_id = module.InternClass("Widget");

  ir::Global object;
  object.name = "widget";
  object.read_only = false;
  object.quads.push_back(ir::GlobalInit{0, "vtable_Widget"});
  module.globals.push_back(object);

  ir::Global vtable;
  vtable.name = "vtable_Widget";
  vtable.read_only = true;
  vtable.trait = ir::GlobalTrait::kVTable;
  vtable.trait_id = class_id;
  vtable.quads.push_back(ir::GlobalInit{0, "Widget_get"});
  module.globals.push_back(vtable);

  {
    ir::FunctionBuilder b(&module, "Widget_get", "i64(ptr)", 1);
    b.Ret(b.Const(5));
  }
  {
    ir::FunctionBuilder b(&module, "main", "i64()", 0);
    const int obj = b.AddrOf("widget");
    const int vptr = b.Load(obj, 0, 8, ir::Trait::kVPtrLoad, 0);
    const int method = b.Load(vptr, 0, 8, ir::Trait::kVTableEntryLoad, 0);
    const int r = b.ICall(method, {obj}, module.InternFnType("i64(ptr)"),
                          /*has_result=*/true, /*is_vcall=*/true);
    b.Ret(r);
  }
  module.RecomputeAddressTaken();
  return module;
}

TEST(TraceToolchainTest, HardenedRunCountersAreDeterministic) {
  core::BuildOptions options;
  options.defense = core::Defense::kVCall;
  const ir::Module module = MakeVcallModule();
  auto first = core::CompileAndRun(module, options,
                                   core::SystemVariant::kFullRoload);
  auto second = core::CompileAndRun(module, options,
                                    core::SystemVariant::kFullRoload);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(first->counters.empty());
  EXPECT_EQ(first->counters, second->counters);
  // The hardened vcall executes ld.ro and its key checks show up under the
  // registry names the bench JSON exports.
  EXPECT_GT(first->Counter("cpu.roload_loads"), 0u);
  EXPECT_EQ(first->Counter("tlb.d.key_check"),
            first->Counter("cpu.roload_loads"));
  EXPECT_EQ(first->Counter("cpu.instret"), first->instructions);
}

// ---------------------------------------------------------------------------
// Exporters: golden output.

TEST(ExportersTest, CountersJsonGolden) {
  trace::CounterRegistry registry;
  *registry.RegisterOwned("b.second") = 1;
  *registry.RegisterOwned("a.first") = 42;
  const std::string expected =
      "{\n"
      "  \"schema\": \"roload.counters.v1\",\n"
      "  \"counters\": {\n"
      "    \"a.first\": 42,\n"
      "    \"b.second\": 1\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(trace::ExportCountersJson(registry), expected);
}

TEST(ExportersTest, ChromeTraceGolden) {
  const std::string path = "chrome_trace_golden.trace";
  auto sink = trace::ChromeTraceFileSink::Open(path);
  ASSERT_TRUE(sink.ok());
  TraceEvent retire;
  retire.cycle = 5;
  retire.pc = 0x1000;
  retire.arg = 3;
  retire.type = EventType::kRetire;
  retire.category = EventCategory::kInstruction;
  retire.unit = trace::Unit::kCpu;
  (*sink)->OnEvent(retire);
  TraceEvent fault;
  fault.cycle = 9;
  fault.pc = 0x1004;
  fault.addr = 0x2000;
  fault.arg = 7;
  fault.type = EventType::kRoLoadFault;
  fault.category = EventCategory::kRoLoad;
  fault.unit = trace::Unit::kDTlb;
  (*sink)->OnEvent(fault);
  ASSERT_TRUE((*sink)->Close().ok());

  const std::string out = ReadWholeFile(path);
  std::remove(path.c_str());
  // The whole document: the Perfetto envelope, process and hart-0 lane
  // metadata, the retire as a complete slice and the fault as an instant,
  // both timestamped with their simulated cycle, and the closing trailer.
  const std::string expected =
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"roload-sim\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"cpu\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"itlb\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"dtlb\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":3,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"icache\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":4,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"dcache\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":5,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"kernel\"}},\n"
      "{\"name\":\"retire\",\"cat\":\"instruction\",\"ph\":\"X\",\"dur\":1,"
      "\"ts\":5,\"pid\":1,\"tid\":0,\"args\":{\"pc\":\"0x1000\","
      "\"addr\":\"0x0\",\"arg\":3}},\n"
      "{\"name\":\"roload_fault\",\"cat\":\"roload\",\"ph\":\"i\","
      "\"s\":\"t\",\"ts\":9,\"pid\":1,\"tid\":2,\"args\":{\"pc\":\"0x1004\","
      "\"addr\":\"0x2000\",\"arg\":7}}\n"
      "]}\n";
  EXPECT_EQ(out, expected);
}

TEST(ExportersTest, ChromeTraceLanesEventsPerHart) {
  // SMP ergonomics: hart N's unit U renders on tid N*stride+U with a
  // lazily announced "hartN <unit>" thread_name row, hart 0 keeping the
  // historical tids. Parse the document for real instead of substring
  // matching — the regression this pins is "all harts folded onto tid 0".
  const std::string path = "chrome_trace_lanes.trace";
  auto sink = trace::ChromeTraceFileSink::Open(path);
  ASSERT_TRUE(sink.ok());
  TraceEvent retire;
  retire.cycle = 5;
  retire.pc = 0x1000;
  retire.type = EventType::kRetire;
  retire.category = EventCategory::kInstruction;
  retire.unit = trace::Unit::kCpu;
  retire.hart = 0;
  (*sink)->OnEvent(retire);
  retire.cycle = 6;
  retire.hart = 1;
  (*sink)->OnEvent(retire);
  TraceEvent miss;
  miss.cycle = 7;
  miss.addr = 0x2000;
  miss.type = EventType::kTlbFill;
  miss.category = EventCategory::kTlb;
  miss.unit = trace::Unit::kDTlb;
  miss.hart = 1;
  (*sink)->OnEvent(miss);
  ASSERT_TRUE((*sink)->Close().ok());

  const auto parsed = ParseJson(ReadWholeFile(path));
  std::remove(path.c_str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* rows = parsed->Find("traceEvents");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());

  bool hart1_cpu_named = false, hart1_dtlb_named = false;
  std::vector<double> event_tids;
  for (const JsonValue& row : rows->array) {
    const JsonValue* ph = row.Find("ph");
    const JsonValue* tid = row.Find("tid");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(tid, nullptr);
    if (ph->string == "M") {
      const JsonValue* name = row.Find("name");
      if (name == nullptr || name->string != "thread_name") continue;
      const JsonValue* args = row.Find("args");
      ASSERT_NE(args, nullptr);
      const JsonValue* lane = args->Find("name");
      ASSERT_NE(lane, nullptr);
      if (lane->string == "hart1 cpu") {
        hart1_cpu_named = true;
        EXPECT_EQ(tid->number, 1 * trace::kChromeTraceHartStride + 0);
      } else if (lane->string == "hart1 dtlb") {
        hart1_dtlb_named = true;
        EXPECT_EQ(tid->number, 1 * trace::kChromeTraceHartStride + 2);
      }
    } else {
      event_tids.push_back(tid->number);
    }
  }
  EXPECT_TRUE(hart1_cpu_named);
  EXPECT_TRUE(hart1_dtlb_named);
  // Event lanes: hart-0 retire on the historical tid 0, hart-1 retire and
  // D-TLB miss on the strided lanes.
  ASSERT_EQ(event_tids.size(), 3u);
  EXPECT_EQ(event_tids[0], 0);
  EXPECT_EQ(event_tids[1], 1 * trace::kChromeTraceHartStride + 0);
  EXPECT_EQ(event_tids[2], 1 * trace::kChromeTraceHartStride + 2);
}

TEST(ExportersTest, ProfileJsonListsBucketsAndRanges) {
  trace::Hub hub({.categories = 0, .profile = true});
  hub.profiler().BeginStep();
  hub.profiler().Charge(CycleBucket::kICacheMiss, 4);
  hub.profiler().EndStep(CycleBucket::kCompute, 0x4000, 10);
  *hub.counters().RegisterOwned("x.count") = 3;

  const std::string out = trace::ExportProfileJson(hub);
  EXPECT_NE(out.find("\"schema\": \"roload.profile.v1\""), std::string::npos);
  EXPECT_NE(out.find("\"total_cycles\": 10"), std::string::npos);
  EXPECT_NE(out.find("\"icache_miss\": 4"), std::string::npos);
  EXPECT_NE(out.find("\"compute\": 6"), std::string::npos);
  EXPECT_NE(out.find("\"pc_range_bytes\": 4096"), std::string::npos);
  EXPECT_NE(out.find("\"base\": \"0x4000\""), std::string::npos);
  EXPECT_NE(out.find("\"x.count\": 3"), std::string::npos);
}

TEST(TelemetrySessionTest, BenchJsonGolden) {
  trace::TelemetrySession session("unit");
  session.Record("alpha", std::uint64_t{3});
  session.Record("beta", 1.5);
  session.Record("note", std::string_view("ok"));
  session.Record("alpha", std::uint64_t{4});  // overwrite keeps position
  const std::string expected =
      "{\n"
      "  \"schema\": \"roload.bench.v1\",\n"
      "  \"name\": \"unit\",\n"
      "  \"results\": {\n"
      "    \"alpha\": 4,\n"
      "    \"beta\": 1.5,\n"
      "    \"note\": \"ok\"\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(session.ToJson(), expected);
}

// ---------------------------------------------------------------------------
// Cross-run counter merging (the campaign aggregation primitive).

TEST(CounterMergerTest, AggregatesAcrossRuns) {
  trace::CounterMerger merger;
  merger.Add("run0", {{"a", 1}, {"b", 10}});
  merger.Add("run1", {{"a", 5}, {"b", 20}});
  merger.Add("run2", {{"a", 3}});  // b not reported
  EXPECT_EQ(merger.runs(), 3u);
  const auto merged = merger.Merged();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].first, "a");
  EXPECT_EQ(merged[0].second.sum, 9u);
  EXPECT_EQ(merged[0].second.min, 1u);
  EXPECT_EQ(merged[0].second.max, 5u);
  EXPECT_EQ(merged[0].second.runs, 3u);
  EXPECT_EQ(merged[1].first, "b");
  EXPECT_EQ(merged[1].second.sum, 30u);
  EXPECT_EQ(merged[1].second.runs, 2u);
}

TEST(CounterMergerTest, PerRunKeepsAddOrder) {
  trace::CounterMerger merger;
  merger.Add("z", {{"a", 7}});
  merger.Add("m", {{"a", 2}});
  const auto per_run = merger.PerRun("a");
  ASSERT_EQ(per_run.size(), 2u);
  EXPECT_EQ(per_run[0].first, "z");
  EXPECT_EQ(per_run[0].second, 7u);
  EXPECT_EQ(per_run[1].first, "m");
  EXPECT_EQ(merger.PerRun("no_such").size(), 0u);
}

TEST(CounterMergerTest, DisjointCounterSetsKeepPerNameRunCounts) {
  trace::CounterMerger merger;
  merger.Add("run0", {{"only.a", 3}});
  merger.Add("run1", {{"only.b", 5}});
  const auto merged = merger.Merged();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].first, "only.a");
  EXPECT_EQ(merged[0].second.sum, 3u);
  EXPECT_EQ(merged[0].second.min, 3u);
  EXPECT_EQ(merged[0].second.max, 3u);
  EXPECT_EQ(merged[0].second.runs, 1u);
  EXPECT_EQ(merged[1].first, "only.b");
  EXPECT_EQ(merged[1].second.runs, 1u);
  EXPECT_EQ(merger.PerRun("only.a").size(), 1u);
}

TEST(CounterMergerTest, EmptySnapshotsAndEmptyMerger) {
  trace::CounterMerger empty;
  EXPECT_EQ(empty.runs(), 0u);
  EXPECT_TRUE(empty.Merged().empty());
  EXPECT_TRUE(empty.PerRun("anything").empty());

  // A run with an empty snapshot still counts as a run; it just reports
  // no counters.
  trace::CounterMerger merger;
  merger.Add("empty_run", {});
  merger.Add("real_run", {{"x", 1}});
  EXPECT_EQ(merger.runs(), 2u);
  const auto merged = merger.Merged();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].second.runs, 1u);
}

TEST(CounterMergerTest, AggregatesAreAddOrderIndependent) {
  const std::vector<std::pair<std::string, std::uint64_t>> s0 = {{"a", 1},
                                                                 {"b", 9}};
  const std::vector<std::pair<std::string, std::uint64_t>> s1 = {{"a", 4}};
  const std::vector<std::pair<std::string, std::uint64_t>> s2 = {{"b", 2},
                                                                 {"c", 7}};
  trace::CounterMerger forward;
  forward.Add("r0", s0);
  forward.Add("r1", s1);
  forward.Add("r2", s2);
  trace::CounterMerger backward;
  backward.Add("r2", s2);
  backward.Add("r1", s1);
  backward.Add("r0", s0);

  const auto a = forward.Merged();
  const auto b = backward.Merged();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(a[i].second.sum, b[i].second.sum);
    EXPECT_EQ(a[i].second.min, b[i].second.min);
    EXPECT_EQ(a[i].second.max, b[i].second.max);
    EXPECT_EQ(a[i].second.runs, b[i].second.runs);
  }
}

TEST(TelemetrySessionTest, AttachedMergerEmitsMergedCounters) {
  trace::CounterMerger merger;
  merger.Add("r0", {{"unit.x", 2}});
  merger.Add("r1", {{"unit.x", 4}});
  trace::TelemetrySession session("unit");
  session.set_schema("roload.campaign.v1");
  session.set_merger(&merger);
  const std::string json = session.ToJson();
  EXPECT_NE(json.find("\"schema\": \"roload.campaign.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"merged_counters\""), std::string::npos);
  EXPECT_NE(json.find("\"unit.x\""), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"min\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"max\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"runs\": 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Streaming Chrome-trace sink.

TEST(StreamSinkTest, RetainsEventsPastRingCapacity) {
  const std::string path = "stream_sink_overflow.trace";
  trace::Hub hub({.categories = trace::kAllCategories});
  auto sink = trace::ChromeTraceFileSink::Open(path, /*flush_bytes=*/64);
  ASSERT_TRUE(sink.ok());
  hub.AddSink(sink->get());
  constexpr std::uint64_t kEvents = 100;  // many flushes' worth
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    hub.Emit(trace::Unit::kCpu, EventCategory::kInstruction,
             EventType::kRetire, 0x1000 + i * 4, 0, i);
  }
  hub.RemoveSink(sink->get());
  ASSERT_TRUE((*sink)->Close().ok());
  EXPECT_EQ((*sink)->events_written(), kEvents);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string streamed((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  // The first and the last event are both on disk, and the document is
  // well-formed (header + trailer).
  EXPECT_NE(streamed.find("\"pc\":\"0x1000\""), std::string::npos);
  EXPECT_NE(streamed.find("\"pc\":\"0x118c\""), std::string::npos);
  EXPECT_EQ(streamed.rfind("{\"displayTimeUnit\":\"ns\",", 0), 0u);
  EXPECT_EQ(streamed.substr(streamed.size() - 4), "\n]}\n");
  std::remove(path.c_str());
}

// Structural JSON validation for the always-valid-file guarantee: every
// brace/bracket outside string literals balances and the document is
// non-empty. (The repo has no JSON parser; for the Chrome-trace format,
// balance + the known trailer is the load-bearing property.)
bool JsonIsBalanced(const std::string& text) {
  long depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string && !text.empty();
}

// The on-disk file is a complete, parseable document at *every* flush
// boundary — from the moment Open returns, through mid-run flushes, to
// Close — never only after finalization.
TEST(StreamSinkTest, FileParsesAtEveryFlushBoundary) {
  const std::string path = "stream_sink_midrun.trace";
  trace::Hub hub({.categories = trace::kAllCategories});
  auto sink = trace::ChromeTraceFileSink::Open(path, /*flush_bytes=*/64);
  ASSERT_TRUE(sink.ok());

  // Boundary 0: freshly opened, no events yet.
  std::string snapshot = ReadWholeFile(path);
  EXPECT_TRUE(JsonIsBalanced(snapshot)) << snapshot;

  hub.AddSink(sink->get());
  for (std::uint64_t i = 0; i < 50; ++i) {
    hub.Emit(trace::Unit::kCpu, EventCategory::kInstruction,
             EventType::kRetire, 0x2000 + i * 4, 0, i);
    // Mid-run boundary: whatever has auto-flushed so far plus the trailer
    // must already parse (small flush_bytes forces frequent flushes).
    if (i % 16 == 0) {
      snapshot = ReadWholeFile(path);
      EXPECT_TRUE(JsonIsBalanced(snapshot)) << "after event " << i;
      EXPECT_NE(snapshot.find("\n]}\n"), std::string::npos);
    }
  }
  hub.RemoveSink(sink->get());
  ASSERT_TRUE((*sink)->Close().ok());
  // Final boundary: the exact record text is pinned by
  // ExportersTest.ChromeTraceGolden; here just re-check parse.
  EXPECT_TRUE(JsonIsBalanced(ReadWholeFile(path)));
  std::remove(path.c_str());
}

// Fatal-signal termination: events still sitting in the sink's buffer
// (flush threshold not reached) are forced to disk by the hub's
// fatal-signal broadcast, so a SIGSEGV-killed run leaves a parseable
// trace that contains its final events.
TEST(StreamSinkTest, FatalSignalFlushesBufferedEvents) {
  const std::string path = "stream_sink_fatal.trace";
  trace::Hub hub({.categories = trace::kAllCategories});
  // Flush threshold far above what the test emits: nothing hits disk on
  // its own.
  auto sink = trace::ChromeTraceFileSink::Open(path, /*flush_bytes=*/1 << 20);
  ASSERT_TRUE(sink.ok());
  hub.AddSink(sink->get());
  hub.Emit(trace::Unit::kCpu, EventCategory::kInstruction, EventType::kRetire,
           0xDEAD0, 0, 1);
  EXPECT_EQ(ReadWholeFile(path).find("\"pc\":\"0xdead0\""), std::string::npos);

  hub.NotifyFatalSignal();

  const std::string flushed = ReadWholeFile(path);
  EXPECT_NE(flushed.find("\"pc\":\"0xdead0\""), std::string::npos);
  EXPECT_TRUE(JsonIsBalanced(flushed)) << flushed;
  hub.RemoveSink(sink->get());
  ASSERT_TRUE((*sink)->Close().ok());
  std::remove(path.c_str());
}

// End-to-end: a guest killed by a ROLoad SIGSEGV, with the file sink
// attached through the System hub and never explicitly closed — the
// kernel's fatal-signal broadcast alone must leave a parseable file with
// the fault on disk.
TEST(StreamSinkTest, RoLoadSigsegvRunLeavesParseableTrace) {
  constexpr const char* kBadKeySource = R"(
.section .text
_start:
  la t0, secret
  ld.ro t1, (t0), 8
  li a7, 93
  ecall
.section .rodata.key.9
secret:
  .quad 1234
)";
  const std::string path = "stream_sink_sigsegv.trace";
  auto image = asmtool::Assemble(kBadKeySource);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  core::SystemConfig config;
  config.trace.categories = trace::kAllCategories;
  core::System system(config);
  ASSERT_TRUE(system.Load(*image).ok());
  auto sink = trace::ChromeTraceFileSink::Open(path, /*flush_bytes=*/1 << 20);
  ASSERT_TRUE(sink.ok());
  system.trace().AddSink(sink->get());

  const kernel::RunResult result = system.Run(1 << 22);
  ASSERT_EQ(result.kind, kernel::ExitKind::kKilled);
  ASSERT_TRUE(result.roload_violation);

  // Deliberately no Close(): the run died; only OnFatalSignal flushed.
  const std::string streamed = ReadWholeFile(path);
  EXPECT_TRUE(JsonIsBalanced(streamed)) << streamed;
  EXPECT_NE(streamed.find("roload_fault"), std::string::npos);
  system.trace().RemoveSink(sink->get());
  std::remove(path.c_str());
}

TEST(StreamSinkTest, CloseIsIdempotentAndLateEventsAreDiscarded) {
  const std::string path = "stream_sink_closed.trace";
  auto sink = trace::ChromeTraceFileSink::Open(path);
  ASSERT_TRUE(sink.ok());
  ASSERT_TRUE((*sink)->Close().ok());
  trace::TraceEvent event{};
  (*sink)->OnEvent(event);
  EXPECT_EQ((*sink)->events_written(), 0u);
  ASSERT_TRUE((*sink)->Close().ok());
  std::remove(path.c_str());
}

TEST(StreamSinkTest, OpenFailsOnUnwritablePath) {
  auto sink = trace::ChromeTraceFileSink::Open("/no/such/dir/x.trace");
  EXPECT_FALSE(sink.ok());
}

}  // namespace
}  // namespace roload
