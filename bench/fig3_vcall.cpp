// Figure 3: relative runtime and memory overheads of VCall (ROLoad-based
// virtual-call protection) and its competitor VTint, on the three
// C++ benchmarks of SPEC CINT2006. The grid, the table, the overheads and
// the paper's claims come from campaign::Figure::kFig3; the bench exits 1
// when a claim fails.
#include "bench/bench_util.h"

int main() {
  return roload::bench::RunFigureBench({roload::campaign::Figure::kFig3},
                                       0.5);
}
