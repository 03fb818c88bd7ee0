// Regenerates the paper's reduce panel of Fig. 9: latency of a
// single collective on all 48 simulated cores against the vector size
// (500..700 doubles), one series per library variant. Reported times are
// VIRTUAL (simulated) microseconds -- the quantity on the paper's y-axis.
#include "bench_support.hpp"

int main(int argc, char** argv) {
  return scc::bench::figure_main(argc, argv, "fig9e_reduce",
                                 scc::harness::Collective::kReduce,
                                 /*default_step=*/2);
}
