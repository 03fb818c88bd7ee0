// Link-traffic accounting: counts cache-line flits crossing each directed
// mesh link. Purely observational (the paper's latency formulas are
// contention-free); used by the topology_explorer example and by tests that
// check the collectives' communication volume.
//
// Recording a transfer visits the XY route in place
// (Topology::for_each_link) and adds into a dense per-link array (four
// directed links per router), so the per-access path neither allocates nor
// searches. Fault reroutes use the stored route of the FaultModel instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "noc/topology.hpp"

namespace scc::noc {

class TrafficMatrix {
 public:
  /// Route override (fault reroutes around dead links). Returns the static
  /// route between two cores' routers; must outlive the matrix.
  using RouteFn =
      std::function<const std::vector<LinkId>&(CoreId, CoreId)>;

  explicit TrafficMatrix(const Topology& topo)
      : topo_(&topo),
        link_lines_(static_cast<std::size_t>(topo.num_tiles()) * kDirections) {}

  /// Install a route override (empty resets to the topology's XY router).
  /// Set by SccMachine when a fault model kills links, so per-link traffic
  /// accounting follows the degraded paths.
  void set_route_fn(RouteFn fn) { route_fn_ = std::move(fn); }

  /// Records `lines` cache-line transfers from core a's router to core b's.
  void record_transfer(CoreId a, CoreId b, std::uint64_t lines);

  /// Total flits over all links.
  [[nodiscard]] std::uint64_t total_line_hops() const;

  /// Flits over the busiest single link (0 when no traffic).
  [[nodiscard]] std::uint64_t max_link_load() const;

  /// Flits sent core-to-core (end-to-end count, not per hop).
  [[nodiscard]] std::uint64_t total_lines_sent() const { return lines_sent_; }

  struct LinkLoad {
    LinkId link;
    std::uint64_t lines;
  };
  /// All links with nonzero traffic, heaviest first (equal loads in
  /// (from.x, from.y, to.x, to.y) order before the sort).
  [[nodiscard]] std::vector<LinkLoad> loads() const;

  /// Accumulates another matrix's counters into this one (same topology).
  /// The partitioned machine keeps one matrix per partition -- each core
  /// records its transfers into its own partition's shard, race-free -- and
  /// merges them into one matrix for reporting. Pure sums, so the merged
  /// totals equal the serial machine's single-matrix totals exactly.
  void merge_from(const TrafficMatrix& other);

  void reset();

 private:
  // Directions of a router's outgoing links, in the order of their far
  // end's (x, y): index order is (from.x, from.y, to.x, to.y) order.
  enum Direction : std::size_t { kWest, kSouth, kNorth, kEast, kDirections };

  [[nodiscard]] std::size_t link_index(const LinkId& link) const;
  [[nodiscard]] LinkId link_at(std::size_t index) const;

  const Topology* topo_;
  RouteFn route_fn_;
  std::vector<std::uint64_t> link_lines_;  // indexed by link_index
  std::uint64_t lines_sent_ = 0;
};

}  // namespace scc::noc
