// Figures 4 and 5: relative runtime (Fig. 4) and memory (Fig. 5) overheads
// of ICall (ROLoad type-based forward-edge CFI) and its ported software
// competitor (label-based CFI) on the full SPEC CINT2006 suite. Both
// figures read the same grid (campaign::Figure::kFig4/kFig5), which runs
// once; the bench exits 1 when a claim of either fails.
#include "bench/bench_util.h"

int main() {
  using roload::campaign::Figure;
  return roload::bench::RunFigureBench({Figure::kFig4, Figure::kFig5}, 0.5);
}
