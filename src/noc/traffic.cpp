#include "noc/traffic.hpp"

#include <algorithm>
#include <cstdlib>

namespace scc::noc {

std::size_t TrafficMatrix::link_index(const LinkId& link) const {
  const int dx = link.to.x - link.from.x;
  const int dy = link.to.y - link.from.y;
  SCC_EXPECTS(std::abs(dx) + std::abs(dy) == 1);
  const Direction dir = dx < 0   ? kWest
                        : dy < 0 ? kSouth
                        : dy > 0 ? kNorth
                                 : kEast;
  const auto router = static_cast<std::size_t>(link.from.x) *
                          static_cast<std::size_t>(topo_->tiles_y()) +
                      static_cast<std::size_t>(link.from.y);
  return router * kDirections + dir;
}

LinkId TrafficMatrix::link_at(std::size_t index) const {
  const auto router = static_cast<int>(index / kDirections);
  const TileCoord from{router / topo_->tiles_y(), router % topo_->tiles_y()};
  switch (static_cast<Direction>(index % kDirections)) {
    case kWest: return {from, {from.x - 1, from.y}};
    case kSouth: return {from, {from.x, from.y - 1}};
    case kNorth: return {from, {from.x, from.y + 1}};
    default: return {from, {from.x + 1, from.y}};
  }
}

void TrafficMatrix::record_transfer(CoreId a, CoreId b, std::uint64_t lines) {
  lines_sent_ += lines;
  const auto add = [&](const LinkId& link) {
    link_lines_[link_index(link)] += lines;
  };
  if (route_fn_) {
    for (const LinkId& link : route_fn_(a, b)) add(link);
    return;
  }
  topo_->for_each_link(a, b, add);
}

std::uint64_t TrafficMatrix::total_line_hops() const {
  std::uint64_t total = 0;
  for (const std::uint64_t lines : link_lines_) total += lines;
  return total;
}

std::uint64_t TrafficMatrix::max_link_load() const {
  std::uint64_t max_load = 0;
  for (const std::uint64_t lines : link_lines_)
    max_load = std::max(max_load, lines);
  return max_load;
}

std::vector<TrafficMatrix::LinkLoad> TrafficMatrix::loads() const {
  std::vector<LinkLoad> out;
  for (std::size_t i = 0; i < link_lines_.size(); ++i)
    if (link_lines_[i] > 0) out.push_back({link_at(i), link_lines_[i]});
  std::sort(out.begin(), out.end(),
            [](const LinkLoad& a, const LinkLoad& b) { return a.lines > b.lines; });
  return out;
}

void TrafficMatrix::merge_from(const TrafficMatrix& other) {
  SCC_EXPECTS(other.link_lines_.size() == link_lines_.size());
  lines_sent_ += other.lines_sent_;
  for (std::size_t i = 0; i < link_lines_.size(); ++i)
    link_lines_[i] += other.link_lines_[i];
}

void TrafficMatrix::reset() {
  std::fill(link_lines_.begin(), link_lines_.end(), 0);
  lines_sent_ = 0;
}

}  // namespace scc::noc
