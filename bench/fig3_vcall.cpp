// Figure 3: relative runtime and memory overheads of VCall (ROLoad-based
// virtual-call protection) and its competitor VTint, on the three
// C++ benchmarks of SPEC CINT2006.
//
// Paper result: VCall averages 0.303% runtime / 0.0347% memory overhead;
// VTint averages 2.750% / 0.0644%. Expected shape: VCall runtime well
// under 1% and several times cheaper than VTint; VTint's instrumentation
// enlarges the code section, giving it the higher memory overhead.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "campaign/spec.h"

using namespace roload;

int main() {
  const double scale = bench::BenchScale();
  const bool profile = bench::BenchProfileEnabled();

  campaign::CampaignSpec grid;
  grid.name = "fig3_vcall";
  grid.workloads = workloads::SpecCppSubset(scale);
  grid.configs = {campaign::ForDefense(core::Defense::kNone),
                  campaign::ForDefense(core::Defense::kVCall),
                  campaign::ForDefense(core::Defense::kVTint)};
  grid.profile = profile;
  const campaign::CampaignResult result =
      campaign::Run(grid, {.jobs = bench::BenchJobs()});
  if (bench::ReportFaults(result)) return 1;

  std::printf("Figure 3: VCall vs VTint on the C++ benchmarks "
              "(scale=%.2f%s)\n\n", scale, profile ? ", profiled" : "");
  std::printf("%-24s | %12s | %8s %8s | %9s %9s\n", "benchmark",
              "base cycles", "VCall%", "VTint%", "VCall m%", "VTint m%");
  bench::PrintRule();

  trace::TelemetrySession session("fig3_vcall");
  result.FillSession(&session);
  session.Record("scale", scale);
  double time_vcall = 0, time_vtint = 0, mem_vcall = 0, mem_vtint = 0;
  int count = 0;
  for (const auto& spec : grid.workloads) {
    const auto& base = bench::MustMetrics(result, spec.name, "none");
    const auto& vcall = bench::MustMetrics(result, spec.name, "VCall");
    const auto& vtint = bench::MustMetrics(result, spec.name, "VTint");
    const double t_vc = core::OverheadPercent(
        static_cast<double>(base.cycles), static_cast<double>(vcall.cycles));
    const double t_vt = core::OverheadPercent(
        static_cast<double>(base.cycles), static_cast<double>(vtint.cycles));
    const double m_vc =
        core::OverheadPercent(static_cast<double>(base.peak_mem_kib),
                              static_cast<double>(vcall.peak_mem_kib));
    const double m_vt =
        core::OverheadPercent(static_cast<double>(base.peak_mem_kib),
                              static_cast<double>(vtint.peak_mem_kib));
    std::printf("%-24s | %12llu | %8.3f %8.3f | %9.4f %9.4f\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(base.cycles), t_vc, t_vt,
                m_vc, m_vt);
    session.Record(spec.name + ".base_cycles", base.cycles);
    session.Record(spec.name + ".vcall_time_pct", t_vc);
    session.Record(spec.name + ".vtint_time_pct", t_vt);
    session.Record(spec.name + ".vcall_mem_pct", m_vc);
    session.Record(spec.name + ".vtint_mem_pct", m_vt);
    session.Record(spec.name + ".vcall_roload_loads", vcall.roload_loads);
    session.Record(spec.name + ".vcall_key_checks",
                   vcall.Counter("tlb.d.key_check"));
    if (profile) {
      bench::RecordProfileDelta(&session, spec.name + ".vcall", base, vcall);
      bench::RecordProfileDelta(&session, spec.name + ".vtint", base, vtint);
    }
    time_vcall += t_vc;
    time_vtint += t_vt;
    mem_vcall += m_vc;
    mem_vtint += m_vt;
    ++count;
  }
  bench::PrintRule();
  std::printf("%-24s | %12s | %8.3f %8.3f | %9.4f %9.4f\n", "average", "",
              time_vcall / count, time_vtint / count, mem_vcall / count,
              mem_vtint / count);
  std::printf("%-24s | %12s | %8.3f %8.3f | %9.4f %9.4f\n",
              "paper (DAC'21)", "", 0.303, 2.750, 0.0347, 0.0644);
  session.Record("average.vcall_time_pct", time_vcall / count);
  session.Record("average.vtint_time_pct", time_vtint / count);
  session.Record("average.vcall_mem_pct", mem_vcall / count);
  session.Record("average.vtint_mem_pct", mem_vtint / count);
  session.Record("paper.vcall_time_pct", 0.303);
  session.Record("paper.vtint_time_pct", 2.750);

  // Under load: the same defenses on the RPC dispatch server, requests
  // spread across 1/2/4 harts. The paper measures batch SPEC
  // runs only; these rows show the VCall overhead holds under concurrent
  // server-style traffic, where every request takes the vcall-heavy
  // handler path on its own hart behind the shared L2.
  campaign::CampaignSpec load;
  load.name = "fig3_vcall_underload";
  load.workloads = {workloads::RpcServerWorkload(std::max<std::uint64_t>(
      200, static_cast<std::uint64_t>(1200 * scale)))};
  load.configs = grid.configs;
  load.harts = {1, 2, 4};
  const campaign::CampaignResult under =
      campaign::Run(load, {.jobs = bench::BenchJobs()});
  if (bench::ReportFaults(under)) return 1;

  std::printf("\nUnder load: RPC dispatch server, requests spread across "
              "harts\n\n");
  std::printf("%-24s | %12s | %8s %8s\n", "rpc_server", "base cycles",
              "VCall%", "VTint%");
  bench::PrintRule(64);
  for (unsigned harts : load.harts) {
    const std::string suffix =
        harts == 1 ? "" : "/h" + std::to_string(harts);
    auto must = [&](const char* cfg) -> const core::RunMetrics& {
      const std::string name =
          std::string("rpc_server/") + cfg + "/full" + suffix;
      const campaign::RunOutcome* outcome = under.Find(name);
      if (outcome == nullptr || !outcome->ok()) {
        std::fprintf(stderr, "bench: no clean run %s\n", name.c_str());
        std::exit(1);
      }
      return outcome->metrics;
    };
    const auto& base = must("none");
    const auto& vcall = must("VCall");
    const auto& vtint = must("VTint");
    const double t_vc = core::OverheadPercent(
        static_cast<double>(base.cycles), static_cast<double>(vcall.cycles));
    const double t_vt = core::OverheadPercent(
        static_cast<double>(base.cycles), static_cast<double>(vtint.cycles));
    const std::string row = "harts=" + std::to_string(harts);
    std::printf("%-24s | %12llu | %8.3f %8.3f\n", row.c_str(),
                static_cast<unsigned long long>(base.cycles), t_vc, t_vt);
    session.Record("underload.h" + std::to_string(harts) + ".base_cycles",
                   base.cycles);
    session.Record("underload.h" + std::to_string(harts) +
                       ".vcall_time_pct", t_vc);
    session.Record("underload.h" + std::to_string(harts) +
                       ".vtint_time_pct", t_vt);
  }

  bench::WriteBenchJson(session);
  return 0;
}
