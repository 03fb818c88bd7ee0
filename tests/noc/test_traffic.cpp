#include "noc/traffic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "faults/fault_model.hpp"

namespace scc::noc {
namespace {

TEST(Traffic, StartsEmpty) {
  const Topology topo;
  const TrafficMatrix traffic(topo);
  EXPECT_EQ(traffic.total_lines_sent(), 0u);
  EXPECT_EQ(traffic.total_line_hops(), 0u);
  EXPECT_EQ(traffic.max_link_load(), 0u);
}

TEST(Traffic, LineHopsEqualLinesTimesDistance) {
  const Topology topo;
  TrafficMatrix traffic(topo);
  traffic.record_transfer(0, 47, 10);  // 8 hops
  EXPECT_EQ(traffic.total_lines_sent(), 10u);
  EXPECT_EQ(traffic.total_line_hops(), 80u);
}

TEST(Traffic, SameTileTransferHasNoHops) {
  const Topology topo;
  TrafficMatrix traffic(topo);
  traffic.record_transfer(0, 1, 100);
  EXPECT_EQ(traffic.total_lines_sent(), 100u);
  EXPECT_EQ(traffic.total_line_hops(), 0u);
}

TEST(Traffic, SharedLinksAccumulate) {
  const Topology topo;
  TrafficMatrix traffic(topo);
  // Both transfers traverse the (0,0)->(1,0) link first.
  traffic.record_transfer(0, 2, 5);
  traffic.record_transfer(0, 4, 5);
  EXPECT_EQ(traffic.max_link_load(), 10u);
}

TEST(Traffic, LoadsSortedDescending) {
  const Topology topo;
  TrafficMatrix traffic(topo);
  traffic.record_transfer(0, 2, 3);
  traffic.record_transfer(0, 4, 3);
  const auto loads = traffic.loads();
  ASSERT_GE(loads.size(), 2u);
  for (std::size_t i = 1; i < loads.size(); ++i)
    EXPECT_GE(loads[i - 1].lines, loads[i].lines);
}

TEST(Traffic, ResetClears) {
  const Topology topo;
  TrafficMatrix traffic(topo);
  traffic.record_transfer(0, 10, 7);
  traffic.reset();
  EXPECT_EQ(traffic.total_lines_sent(), 0u);
  EXPECT_TRUE(traffic.loads().empty());
}

TEST(Traffic, DirectedLinksDistinct) {
  const Topology topo;
  TrafficMatrix traffic(topo);
  traffic.record_transfer(0, 2, 1);
  traffic.record_transfer(2, 0, 1);
  // Opposite directions are different links.
  EXPECT_EQ(traffic.loads().size(), 2u);
  EXPECT_EQ(traffic.max_link_load(), 1u);
}

// The dense per-link accounting must reproduce the map-keyed accounting it
// replaced: per-link loads in the same order, the same totals, for every
// ordered core pair of the 6x4 SCC, on the XY router and around a dead
// link.
struct MapAccounting {
  using Key = std::tuple<int, int, int, int>;  // from.x, from.y, to.x, to.y
  std::map<Key, std::uint64_t> lines;

  void record(const std::vector<LinkId>& route, std::uint64_t n) {
    for (const LinkId& l : route) lines[{l.from.x, l.from.y, l.to.x, l.to.y}] += n;
  }
  [[nodiscard]] std::vector<TrafficMatrix::LinkLoad> loads() const {
    std::vector<TrafficMatrix::LinkLoad> out;
    for (const auto& [k, n] : lines) {
      if (n > 0) {
        out.push_back({{{std::get<0>(k), std::get<1>(k)},
                        {std::get<2>(k), std::get<3>(k)}},
                       n});
      }
    }
    std::sort(out.begin(), out.end(),
              [](const TrafficMatrix::LinkLoad& a,
                 const TrafficMatrix::LinkLoad& b) { return a.lines > b.lines; });
    return out;
  }
};

void expect_matches_map(const faults::FaultModel* fm) {
  const Topology topo;
  TrafficMatrix traffic(topo);
  if (fm != nullptr) {
    traffic.set_route_fn(
        [fm](int a, int b) -> const std::vector<LinkId>& {
          return fm->route(a, b);
        });
  }
  MapAccounting ref;
  std::uint64_t sent = 0;
  for (int a = 0; a < topo.num_cores(); ++a) {
    for (int b = 0; b < topo.num_cores(); ++b) {
      // Few distinct weights, so many links tie and the sort order of
      // equal loads is exercised too. Weight 0 touches links without load.
      const std::uint64_t n = static_cast<std::uint64_t>((a * 7 + b) % 4);
      traffic.record_transfer(a, b, n);
      ref.record(fm != nullptr ? fm->route(a, b) : topo.route(a, b), n);
      sent += n;
    }
  }
  const auto got = traffic.loads();
  const auto want = ref.loads();
  ASSERT_EQ(got.size(), want.size());
  std::uint64_t hops = 0;
  std::uint64_t max_load = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].link, want[i].link) << "rank " << i;
    EXPECT_EQ(got[i].lines, want[i].lines) << "rank " << i;
    hops += want[i].lines;
    max_load = std::max(max_load, want[i].lines);
  }
  EXPECT_EQ(traffic.total_lines_sent(), sent);
  EXPECT_EQ(traffic.total_line_hops(), hops);
  EXPECT_EQ(traffic.max_link_load(), max_load);
  TrafficMatrix merged(topo);
  merged.merge_from(traffic);
  merged.merge_from(traffic);
  EXPECT_EQ(merged.total_line_hops(), 2 * hops);
  EXPECT_EQ(merged.loads().size(), want.size());
}

TEST(Traffic, DenseAccountingMatchesMapForAllPairs) {
  expect_matches_map(nullptr);
}

TEST(Traffic, DenseAccountingMatchesMapAroundDeadLink) {
  const Topology topo;
  const faults::FaultModel fm(faults::FaultSpec::parse("deadlink:2,1-3,1"),
                              topo);
  ASSERT_TRUE(fm.rerouted());
  expect_matches_map(&fm);
}

}  // namespace
}  // namespace scc::noc
