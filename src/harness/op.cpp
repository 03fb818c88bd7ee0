#include "harness/op.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll/collectives.hpp"
#include "common/string_util.hpp"

namespace scc::harness {

using coll::CollKind;

coll::Prims prims_of(PaperVariant v) {
  switch (v) {
    case PaperVariant::kBlocking: return coll::Prims::kBlocking;
    case PaperVariant::kIrcce: return coll::Prims::kIrcce;
    default: return coll::Prims::kLightweight;
  }
}

coll::SplitPolicy split_of(PaperVariant v) {
  return (v == PaperVariant::kLwBalanced || v == PaperVariant::kMpb)
             ? coll::SplitPolicy::kBalanced
             : coll::SplitPolicy::kStandard;
}

BufferShape buffer_shape(Collective c, std::size_t n, int p) {
  const auto np = n * static_cast<std::size_t>(p);
  switch (c) {
    case Collective::kAllgather:
    case Collective::kGather:
      return {n, np};
    case Collective::kAlltoall:
      return {np, np};
    case Collective::kReduceScatter:
    case Collective::kBroadcast:
    case Collective::kReduce:
    case Collective::kAllreduce:
      return {n, n};
    case Collective::kScatter:
      // Every rank allocates the root-sized send buffer; only the root's
      // contents matter, but uniform sizing keeps the setup loops simple.
      return {np, n};
    case Collective::kAllgatherv:
      return {0, 0};
  }
  return {n, n};
}

RunLayouts::RunLayouts(PaperVariant variant, int p) : layout_(p) {
  if (variant == PaperVariant::kRckmpi) mpi_.emplace(layout_);
}

void RunLayouts::reserve_flags(machine::SccConfig& config,
                               int nbc_lanes) const {
  int flags_needed = layout_.flags_needed();
  if (nbc_lanes > 0) {
    // The widest lane's flag range bounds the engine's whole flag use.
    flags_needed = std::max(
        flags_needed,
        rcce::Layout::lane(layout_.num_cores(), nbc_lanes - 1, nbc_lanes)
            .flags_needed());
  }
  if (mpi_) flags_needed = mpi_->flags_needed();
  config.flags_per_core = std::max(config.flags_per_core, flags_needed);
}

CoreComm::CoreComm(machine::CoreApi& api, const RunLayouts& layouts,
                   PaperVariant variant)
    : stack_(api, layouts.layout(), prims_of(variant)),
      mpb_(api, layouts.layout()),
      variant_(variant) {
  SCC_EXPECTS((variant == PaperVariant::kRckmpi) == (layouts.mpi() != nullptr));
  if (layouts.mpi() != nullptr) mpi_.emplace(api, *layouts.mpi());
}

sim::Task<int> CoreComm::run(Op op, std::span<const double> in,
                             std::span<double> out) {
  if (mpi_) {
    switch (op.collective) {
      case Collective::kAllgather: co_await mpi_->allgather(in, out); break;
      case Collective::kAlltoall: co_await mpi_->alltoall(in, out); break;
      case Collective::kReduceScatter:
        co_return co_await mpi_->reduce_scatter(in, out,
                                                rckmpi::ReduceOp::kSum);
      case Collective::kBroadcast: co_await mpi_->bcast(out, op.root); break;
      case Collective::kReduce:
        co_await mpi_->reduce(in, out, rckmpi::ReduceOp::kSum, op.root);
        break;
      case Collective::kAllreduce:
        co_await mpi_->allreduce(in, out, rckmpi::ReduceOp::kSum);
        break;
      case Collective::kScatter:
      case Collective::kGather:
      case Collective::kAllgatherv:
        // No RCKMPI counterpart is wired up (variants_for() omits it).
        SCC_ASSERT(false);
    }
    co_return -1;
  }
  switch (op.collective) {
    case Collective::kAllgather:
      co_await coll::allgather(stack_, in, out,
                               op.algo_for(CollKind::kAllgather));
      break;
    case Collective::kAlltoall:
      co_await coll::alltoall(stack_, in, out,
                              op.algo_for(CollKind::kAlltoall));
      break;
    case Collective::kReduceScatter:
      co_return co_await coll::reduce_scatter(
          stack_, in, out, coll::ReduceOp::kSum, op.split,
          op.algo_for(CollKind::kReduceScatter));
    case Collective::kBroadcast:
      co_await coll::broadcast(stack_, out, op.root, op.split);
      break;
    case Collective::kReduce:
      co_await coll::reduce(stack_, in, out, coll::ReduceOp::kSum, op.root,
                            op.split);
      break;
    case Collective::kAllreduce:
      if (variant_ == PaperVariant::kMpb) {
        co_await mpb_.run(in, out, coll::ReduceOp::kSum, op.split);
      } else {
        co_await coll::allreduce(stack_, in, out, coll::ReduceOp::kSum,
                                 op.split, op.algo_for(CollKind::kAllreduce));
      }
      break;
    case Collective::kScatter:
      co_await coll::scatter(stack_, in, out, op.root);
      break;
    case Collective::kGather:
      co_await coll::gather(stack_, in, out, op.root);
      break;
    case Collective::kAllgatherv:
      co_await coll::allgatherv(stack_, in, op.counts, out);
      break;
  }
  co_return -1;
}

coll::nbc::CollRequest initiate_op(coll::nbc::ProgressEngine& engine,
                                   const Op& op, std::span<const double> in,
                                   std::span<double> out) {
  switch (op.collective) {
    case Collective::kAllgather:
      return engine.iallgather(in, out, op.algo_for(CollKind::kAllgather));
    case Collective::kAlltoall:
      return engine.ialltoall(in, out, op.algo_for(CollKind::kAlltoall));
    case Collective::kBroadcast:
      return engine.ibcast(out, op.root, op.split);
    case Collective::kAllreduce:
      return engine.iallreduce(in, out, coll::ReduceOp::kSum, op.split,
                               op.algo_for(CollKind::kAllreduce));
    default:
      SCC_EXPECTS(has_nbc_entry(op.collective));
      return {};
  }
}

void check_op(const Op& op, std::size_t n, std::span<const RankBuffers> ranks,
              std::string_view context) {
  const int p = static_cast<int>(ranks.size());
  const auto rank = [&](int r) -> const RankBuffers& {
    return ranks[static_cast<std::size_t>(r)];
  };
  const auto expect = [&](int r, std::size_t elem, double want) {
    const double got = rank(r).out[elem];
    if (got != want) {
      throw std::runtime_error(strprintf(
          "%s: core %d element %zu: got %.17g want %.17g",
          std::string(context).c_str(), r, elem, got, want));
    }
  };
  if (op.collective != Collective::kAllgatherv) {
    const BufferShape shape = buffer_shape(op.collective, n, p);
    for (const RankBuffers& b : ranks) {
      SCC_EXPECTS(b.in.size() >= shape.in_elems &&
                  b.out.size() >= shape.out_elems);
    }
  }
  const auto up = [](int r) { return static_cast<std::size_t>(r); };
  switch (op.collective) {
    case Collective::kAllgather:
      for (int r = 0; r < p; ++r)
        for (int src = 0; src < p; ++src)
          for (std::size_t i = 0; i < n; ++i)
            expect(r, up(src) * n + i, rank(src).in[i]);
      return;
    case Collective::kAlltoall:
      for (int r = 0; r < p; ++r)
        for (int src = 0; src < p; ++src)
          for (std::size_t i = 0; i < n; ++i)
            expect(r, up(src) * n + i, rank(src).in[up(r) * n + i]);
      return;
    case Collective::kBroadcast:
      for (int r = 0; r < p; ++r)
        for (std::size_t i = 0; i < n; ++i)
          expect(r, i, rank(op.root).in[i]);
      return;
    case Collective::kScatter:
      for (int r = 0; r < p; ++r)
        for (std::size_t i = 0; i < n; ++i)
          expect(r, i, rank(op.root).in[up(r) * n + i]);
      return;
    case Collective::kGather:
      for (int src = 0; src < p; ++src)
        for (std::size_t i = 0; i < n; ++i)
          expect(op.root, up(src) * n + i, rank(src).in[i]);
      return;
    case Collective::kAllgatherv:
      SCC_EXPECTS(op.counts.size() == up(p));
      for (int r = 0; r < p; ++r) {
        std::size_t offset = 0;
        for (int src = 0; src < p; ++src) {
          for (std::size_t i = 0; i < op.counts[up(src)]; ++i)
            expect(r, offset + i, rank(src).in[i]);
          offset += op.counts[up(src)];
        }
      }
      return;
    case Collective::kReduce:
    case Collective::kAllreduce:
    case Collective::kReduceScatter: {
      std::vector<double> want(n, 0.0);
      for (int src = 0; src < p; ++src)
        for (std::size_t i = 0; i < n; ++i) want[i] += rank(src).in[i];
      if (op.collective == Collective::kReduce) {
        for (std::size_t i = 0; i < n; ++i) expect(op.root, i, want[i]);
      } else if (op.collective == Collective::kAllreduce) {
        for (int r = 0; r < p; ++r)
          for (std::size_t i = 0; i < n; ++i) expect(r, i, want[i]);
      } else {
        // Both stacks' ring direction leaves core i owning block (i+1)%p.
        const auto blocks = coll::split_blocks(n, p, op.split);
        for (int r = 0; r < p; ++r) {
          const int ob = rank(r).owned_block;
          if (ob < 0 || ob >= p) {
            throw std::runtime_error(strprintf(
                "%s: core %d owns no reduce-scatter block",
                std::string(context).c_str(), r));
          }
          const coll::Block& b = blocks[up(ob)];
          for (std::size_t i = b.offset; i < b.offset + b.count; ++i)
            expect(r, i, want[i]);
        }
      }
      return;
    }
  }
}

}  // namespace scc::harness
