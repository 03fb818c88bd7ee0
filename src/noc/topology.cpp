#include "noc/topology.hpp"

#include <cmath>
#include <cstdlib>

namespace scc::noc {

Topology::Topology(int tiles_x, int tiles_y, int cores_per_tile)
    : tiles_x_(tiles_x), tiles_y_(tiles_y), cores_per_tile_(cores_per_tile) {
  SCC_EXPECTS(tiles_x >= 1 && tiles_y >= 1 && cores_per_tile >= 1);
}

int Topology::hops(CoreId a, CoreId b) const {
  const TileCoord ca = coord_of(a);
  const TileCoord cb = coord_of(b);
  return std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
}

TileCoord Topology::mc_coord(int mc_index) const {
  SCC_EXPECTS(mc_index >= 0 && mc_index < 4);
  // Row 0 holds MC0 (left) and MC1 (right); the top row holds MC2/MC3.
  // On the 6x4 SCC the documented router attachments are (0,0), (5,0),
  // (0,2), (5,2); we generalize to row tiles_y-2 (== 2 for the SCC) so
  // non-standard meshes still place controllers sensibly.
  const int hi_row = tiles_y_ >= 2 ? tiles_y_ - 2 : 0;
  switch (mc_index) {
    case 0: return {0, 0};
    case 1: return {tiles_x_ - 1, 0};
    case 2: return {0, hi_row};
    default: return {tiles_x_ - 1, hi_row};
  }
}

int Topology::mc_of(CoreId core) const {
  const TileCoord c = coord_of(core);
  const bool right_half = c.x >= (tiles_x_ + 1) / 2;
  const bool upper_half = c.y >= tiles_y_ / 2;
  return (upper_half ? 2 : 0) + (right_half ? 1 : 0);
}

int Topology::hops_to_mc(CoreId core) const {
  const TileCoord c = coord_of(core);
  const TileCoord mc = mc_coord(mc_of(core));
  return std::abs(c.x - mc.x) + std::abs(c.y - mc.y);
}

int Topology::partition_of(CoreId core, int partitions) const {
  SCC_EXPECTS(partitions >= 1 && partitions <= tiles_x_);
  // Balanced contiguous slabs; monotone in x, every slab nonempty.
  return coord_of(core).x * partitions / tiles_x_;
}

int Topology::min_partition_separation_hops(int partitions) const {
  SCC_EXPECTS(partitions >= 1 && partitions <= tiles_x_);
  return partitions > 1 ? 1 : 0;
}

std::vector<LinkId> Topology::route(CoreId a, CoreId b) const {
  std::vector<LinkId> links;
  for_each_link(a, b, [&](const LinkId& link) { links.push_back(link); });
  return links;
}

}  // namespace scc::noc
