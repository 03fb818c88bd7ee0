// One harness op: the single definition of what running one collective
// under one of the paper's variants means. The closed-loop runner
// (runner.hpp), the open-loop traffic generator (traffic.hpp) and the GCMC
// application all build on it:
//   - which primitives and block split a variant uses (prims_of/split_of),
//   - the per-rank buffer shape of a collective at (n, p),
//   - the MPB layouts of a run and the flag budget they need,
//   - the blocking dispatch onto Stack / MpbAllreduce / rckmpi::Mpi, and
//     the non-blocking initiation onto a ProgressEngine,
//   - the element-wise check of every rank's result against a serial
//     reference computed on the host.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

#include "coll/mpb_allreduce.hpp"
#include "coll/nbc.hpp"
#include "coll/stack.hpp"
#include "harness/runner.hpp"
#include "rckmpi/mpi.hpp"

namespace scc::harness {

/// Primitive layer of a variant: blocking RCCE, §IV-A relaxed
/// synchronization (ircce), or §IV-B lightweight primitives (lightweight
/// and every variant above it). RCKMPI runs never use their Stack.
[[nodiscard]] coll::Prims prims_of(PaperVariant v);

/// Block split of a variant: §IV-C balanced for lw-balanced and mpb.
[[nodiscard]] coll::SplitPolicy split_of(PaperVariant v);

struct BufferShape {
  std::size_t in_elems = 0;
  std::size_t out_elems = 0;
};

/// Per-rank buffer sizes of `c` at n elements on p cores (Alltoall: n per
/// pair). Broadcast runs in place on `out`; its `in` holds the root's
/// payload, the reference check_op compares against. Allgatherv sizes are
/// per rank (allgatherv counts), so its shape is {0, 0}.
[[nodiscard]] BufferShape buffer_shape(Collective c, std::size_t n, int p);

/// True for the collectives with a ProgressEngine i*() entry point
/// (coll/nbc.hpp).
[[nodiscard]] constexpr bool has_nbc_entry(Collective c) {
  return c == Collective::kAllgather || c == Collective::kAlltoall ||
         c == Collective::kBroadcast || c == Collective::kAllreduce;
}

/// Everything about one op that every rank agrees on.
struct Op {
  Op(Collective c, coll::SplitPolicy s, int r = 0)
      : collective(c), root(r), split(s) {}

  Collective collective;
  int root;  // broadcast, reduce, scatter, gather
  /// Block split. It also fixes which block reduce-scatter leaves on each
  /// rank, so check_op reads it too (RCKMPI always splits balanced).
  coll::SplitPolicy split;
  std::optional<coll::Algo> algo;  // unset: coll::paper_algo
  std::span<const std::size_t> counts;  // allgatherv: per-rank counts

  [[nodiscard]] coll::Algo algo_for(coll::CollKind kind) const {
    return algo.value_or(coll::paper_algo(kind));
  }
};

/// The MPB layouts of one run: the RCCE layout and, for RCKMPI, the MPI
/// channel over it. Pinned in place, because the channel points into the
/// RCCE layout.
class RunLayouts {
 public:
  RunLayouts(PaperVariant variant, int p);
  RunLayouts(const RunLayouts&) = delete;
  RunLayouts& operator=(const RunLayouts&) = delete;

  [[nodiscard]] const rcce::Layout& layout() const { return layout_; }
  /// Null unless the run is RCKMPI.
  [[nodiscard]] const rckmpi::ChannelLayout* mpi() const {
    return mpi_ ? &*mpi_ : nullptr;
  }
  /// Raises config.flags_per_core to the flags these layouts use: the MPI
  /// channel's for RCKMPI, otherwise the RCCE layout's, widened to the
  /// last (widest) of `nbc_lanes` progress-engine lanes when nbc_lanes > 0.
  void reserve_flags(machine::SccConfig& config, int nbc_lanes = 0) const;

 private:
  rcce::Layout layout_;
  std::optional<rckmpi::ChannelLayout> mpi_;
};

/// One core's blocking communication objects for a variant. The MPB-direct
/// Allreduce keeps handshake sequence state across invocations, so one
/// CoreComm serves a core for the whole run.
class CoreComm {
 public:
  CoreComm(machine::CoreApi& api, const RunLayouts& layouts,
           PaperVariant variant);

  /// Runs `op` on this rank's buffers to completion: through RCKMPI for
  /// that variant, MPB-direct for an mpb Allreduce, else through the
  /// Stack. Returns the block reduce-scatter left on this rank, -1 for
  /// every other collective.
  [[nodiscard]] sim::Task<int> run(Op op, std::span<const double> in,
                                   std::span<double> out);

  [[nodiscard]] coll::Stack& stack() { return stack_; }

 private:
  coll::Stack stack_;
  coll::MpbAllreduce mpb_;
  std::optional<rckmpi::Mpi> mpi_;
  PaperVariant variant_;
};

/// Initiates `op` on `engine` without blocking; has_nbc_entry(op.collective)
/// must hold.
[[nodiscard]] coll::nbc::CollRequest initiate_op(
    coll::nbc::ProgressEngine& engine, const Op& op,
    std::span<const double> in, std::span<double> out);

/// One rank's buffers after an op, as check_op reads them.
struct RankBuffers {
  std::span<const double> in;
  std::span<const double> out;
  int owned_block = -1;  // reduce-scatter: CoreComm::run's return value
};

/// Compares every rank's result of `op` at n elements, element by element,
/// with the serial reference computed from the ranks' inputs. The first
/// mismatch throws std::runtime_error
/// "<context>: core R element E: got X want Y".
void check_op(const Op& op, std::size_t n, std::span<const RankBuffers> ranks,
              std::string_view context);

}  // namespace scc::harness
