// Text grid syntax, so arbitrary sweeps no longer require writing a new
// bench binary:
//
//   workloads=omnetpp_like,astar_like;defenses=none,VCall;variants=full,proc
//   workloads=cpp;defenses=none,ICall,CFI;scale=0.2;seed=7
//
// Keys (all optional; semicolon-separated, comma-separated values):
//   workloads         suite benchmark names, or "cpp" (the C++ subset),
//                     "all" (the full CINT2006-like suite; the default),
//                     or "rpc_server" (the SMP traffic workload)
//   defenses          none | VCall | VTint | ICall | CFI
//   variants          baseline | proc | full
//   scale             positive workload-scale multiplier (overrides the
//                     scale passed to ParseGrid)
//   seed              nonzero: derive one seed per program (see
//                     CampaignSpec::seed)
//   max-instructions  per-run instruction budget
//   harts             hart counts (e.g. "1,2,4"); cells with > 1 hart are
//                     named "<...>/h<N>"
//   exec              host execute tiers: interp | translated (the
//                     default; "exec=interp,translated" cross-checks
//                     them); any non-default axis appends "/<tier>" to
//                     the run names. Tiers never change cycles or
//                     counters — only host speed.
//   profile           0/1: attach the cycle-attribution profiler
#pragma once

#include <string_view>

#include "campaign/spec.h"
#include "support/status.h"

namespace roload::campaign {

// Parses `grid` into `spec` (overwriting the axes the grid names;
// workloads default to the full suite at `default_scale`). Unknown keys,
// unknown workload/defense/variant names and malformed numbers are
// InvalidArgument errors naming the offending token.
Status ParseGrid(std::string_view grid, double default_scale,
                 CampaignSpec* spec);

}  // namespace roload::campaign
