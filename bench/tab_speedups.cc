// Regenerates the paper's summary speedup statistics (Section V-A, last
// paragraph): average speedup of the fully-optimized stack over the
// RCCE_comm baseline for every collective, and the maximum pointwise
// Allreduce speedup with the size at which it occurs.
//
//   tab_speedups [--from=N] [--to=N] [--step=N] [--reps=N] [--jobs=N]
//
// Uses a coarser sweep than the figure binaries (--step default 16) since
// only aggregate statistics are reported. The sweep flags are described in
// bench_support.hpp.
#include <algorithm>
#include <iostream>

#include "bench_support.hpp"
#include "harness/sweep.hpp"

int main(int argc, char** argv) {
  using scc::harness::Collective;
  using scc::harness::PaperVariant;
  scc::harness::SweepSpec spec;
  scc::bench::read_flags(argc, argv, [&](const scc::CliFlags& flags) {
    spec = scc::bench::read_sweep(flags, /*default_step=*/16);
  });
  const Collective collectives[] = {
      Collective::kAllgather, Collective::kAlltoall,
      Collective::kReduceScatter, Collective::kBroadcast, Collective::kReduce,
      Collective::kAllreduce};
  scc::harness::SweepResult results[6];
  for (int i = 0; i < 6; ++i) {
    spec.collective = collectives[i];
    results[i] = scc::harness::run_sweep(spec);
  }

  std::cout << "\n=== Average speedups vs RCCE_comm blocking baseline "
            << "(48 cores, 500..700 doubles) ===\n";
  scc::Table table({"collective", "ircce", "lightweight", "best non-MPB",
                    "paper (best)"});
  const char* paper[] = {"~2.7-2.8x", "~1.6x", "n/a", "n/a", "~1.6x", "~1.7x+bal"};
  for (int i = 0; i < 6; ++i) {
    const auto& r = results[i];
    const bool has_balanced =
        std::find(r.variants.begin(), r.variants.end(),
                  PaperVariant::kLwBalanced) != r.variants.end();
    const PaperVariant best =
        has_balanced ? PaperVariant::kLwBalanced : PaperVariant::kLightweight;
    table.add_row(
        {std::string(scc::harness::collective_name(collectives[i])),
         scc::strprintf("%.2fx", r.mean_speedup_vs_blocking(PaperVariant::kIrcce)),
         scc::strprintf("%.2fx",
                        r.mean_speedup_vs_blocking(PaperVariant::kLightweight)),
         scc::strprintf("%.2fx", r.mean_speedup_vs_blocking(best)),
         paper[i]});
  }
  table.print(std::cout);

  const auto& allreduce = results[5];
  const auto [best, at] =
      allreduce.max_speedup_vs_blocking(PaperVariant::kLwBalanced);
  std::cout << scc::strprintf(
      "\nmax Allreduce speedup (lw-balanced): %.2fx at %zu elements "
      "(paper: 3.6x at 574)\n",
      best, at);
  scc::bench::write_table("tab_speedups", table);
  return 0;
}
