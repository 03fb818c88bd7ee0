// The order in which events of equal timestamp fire moves no simulated
// result (label: perturb). Core-local time (machine/core_api.hpp) relies on
// this: a core that folds its private charges into one sync event changes
// only where its events fall among other cores' events of the same
// instant. So every Fig. 9 cell, and the deep-backlog traffic scenario,
// must produce the same latencies, the same per-core phase totals and the
// same volumes under any tie-break seed (perturb_max_delay_fs = 0) as
// unperturbed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/traffic.hpp"
#include "machine/profile.hpp"

namespace scc::harness {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4};

struct Cell {
  Collective collective;
  PaperVariant variant;
};

std::vector<Cell> fig9_cells() {
  std::vector<Cell> cells;
  for (const Collective c :
       {Collective::kAllgather, Collective::kAlltoall,
        Collective::kReduceScatter, Collective::kBroadcast,
        Collective::kReduce, Collective::kAllreduce}) {
    for (const PaperVariant v : variants_for(c)) cells.push_back({c, v});
  }
  return cells;
}

RunResult run_cell(const Cell& cell, std::optional<std::uint64_t> seed) {
  RunSpec spec;
  spec.collective = cell.collective;
  spec.variant = cell.variant;
  spec.elements = 48;
  spec.warmup = 1;
  spec.repetitions = 1;
  spec.collect_profiles = true;
  spec.config.perturb_seed = seed;
  spec.config.perturb_max_delay_fs = 0;
  return run_collective(spec);
}

TEST(TieOrderInvariance, Fig9CellsKeepLatencyProfilesAndVolumes) {
  const std::vector<Cell> cells = fig9_cells();
  ASSERT_EQ(cells.size(), 29u);
  for (const Cell& cell : cells) {
    const std::string name = std::string(collective_name(cell.collective)) +
                             "/" + std::string(variant_name(cell.variant));
    const RunResult base = run_cell(cell, std::nullopt);
    for (const std::uint64_t seed : kSeeds) {
      const RunResult r = run_cell(cell, seed);
      EXPECT_EQ(r.latencies, base.latencies) << name << " seed " << seed;
      EXPECT_EQ(r.lines_sent, base.lines_sent) << name << " seed " << seed;
      EXPECT_EQ(r.line_hops, base.line_hops) << name << " seed " << seed;
      ASSERT_EQ(r.profiles.size(), base.profiles.size());
      for (std::size_t core = 0; core < r.profiles.size(); ++core) {
        for (int p = 0; p < static_cast<int>(machine::Phase::kCount); ++p) {
          const auto phase = static_cast<machine::Phase>(p);
          EXPECT_EQ(r.profiles[core].get(phase),
                    base.profiles[core].get(phase))
              << name << " seed " << seed << " core " << core << " "
              << machine::phase_name(phase);
        }
      }
    }
  }
}

// The TrafficDeepBacklog scenario (test_traffic_gen.cpp): 4 streams x 80
// requests of 96 doubles, past capacity, for 1, 2 and 4 lanes.
TrafficSpec deep_backlog(int lanes) {
  TrafficSpec spec;
  spec.streams = 4;
  spec.requests_per_stream = 80;
  spec.elements = 96;
  spec.mean_interarrival = SimTime::from_us(120.0);
  spec.variant = PaperVariant::kLightweight;
  spec.lanes = lanes;
  return spec;
}

TEST(TieOrderInvariance, DeepBacklogTrafficKeepsLatenciesAndVolumes) {
  for (const int lanes : {1, 2, 4}) {
    TrafficSpec spec = deep_backlog(lanes);
    const TrafficResult base = run_traffic(spec);
    for (const std::uint64_t seed : kSeeds) {
      spec.perturb_seed = seed;
      const TrafficResult r = run_traffic(spec);
      EXPECT_EQ(r.latencies, base.latencies)
          << "lanes " << lanes << " seed " << seed;
      EXPECT_EQ(r.makespan, base.makespan)
          << "lanes " << lanes << " seed " << seed;
      EXPECT_EQ(r.lines_sent, base.lines_sent)
          << "lanes " << lanes << " seed " << seed;
      EXPECT_EQ(r.line_hops, base.line_hops)
          << "lanes " << lanes << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace scc::harness
