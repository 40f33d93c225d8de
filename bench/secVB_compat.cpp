// Section V-B: overall performance / backward compatibility. Unmodified
// (unhardened) SPEC binaries run on the three system variants: the
// baseline system, the processor-modified system, and the
// processor-and-kernel-modified system. The grid, the table, the overheads
// and the paper's claims come from campaign::Figure::kSecVB, among them
// that every run's result is the same on all three systems; the bench
// exits 1 when a claim fails.
#include "bench/bench_util.h"

int main() {
  return roload::bench::RunFigureBench({roload::campaign::Figure::kSecVB},
                                       0.3);
}
