#include "harness/op.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace scc::harness {
namespace {

constexpr int kP = 4;
constexpr std::size_t kN = 8;
constexpr int kRoot = 1;

/// Per-rank buffers holding a correct result of `op`, built straight from
/// the definition of each collective.
struct Buffers {
  std::vector<std::vector<double>> in;
  std::vector<std::vector<double>> out;
  std::vector<int> owned;

  [[nodiscard]] std::vector<RankBuffers> ranks() const {
    std::vector<RankBuffers> r;
    for (std::size_t i = 0; i < in.size(); ++i) {
      r.push_back({in[i], out[i], owned[i]});
    }
    return r;
  }
};

Buffers correct_buffers(const Op& op) {
  const BufferShape shape = buffer_shape(op.collective, kN, kP);
  const auto up = [](int r) { return static_cast<std::size_t>(r); };
  Buffers b;
  b.owned.assign(up(kP), -1);
  std::size_t agv_total = 0;
  for (int r = 0; r < kP; ++r) {
    const std::size_t in_elems = op.collective == Collective::kAllgatherv
                                     ? op.counts[up(r)]
                                     : shape.in_elems;
    std::vector<double> in(in_elems);
    for (std::size_t i = 0; i < in_elems; ++i) {
      in[i] = static_cast<double>(100 * r) + static_cast<double>(i);
    }
    b.in.push_back(in);
    agv_total += in_elems;
  }
  const std::size_t out_elems = op.collective == Collective::kAllgatherv
                                    ? agv_total
                                    : shape.out_elems;
  b.out.assign(up(kP), std::vector<double>(out_elems, 0.0));
  std::vector<double> sum(kN, 0.0);
  if (op.collective == Collective::kReduce ||
      op.collective == Collective::kAllreduce ||
      op.collective == Collective::kReduceScatter) {
    for (int src = 0; src < kP; ++src)
      for (std::size_t i = 0; i < kN; ++i) sum[i] += b.in[up(src)][i];
  }
  for (int r = 0; r < kP; ++r) {
    auto& out = b.out[up(r)];
    switch (op.collective) {
      case Collective::kAllgather:
        for (int src = 0; src < kP; ++src)
          for (std::size_t i = 0; i < kN; ++i)
            out[up(src) * kN + i] = b.in[up(src)][i];
        break;
      case Collective::kAlltoall:
        for (int src = 0; src < kP; ++src)
          for (std::size_t i = 0; i < kN; ++i)
            out[up(src) * kN + i] = b.in[up(src)][up(r) * kN + i];
        break;
      case Collective::kBroadcast:
        out = b.in[up(op.root)];
        break;
      case Collective::kScatter:
        for (std::size_t i = 0; i < kN; ++i)
          out[i] = b.in[up(op.root)][up(r) * kN + i];
        break;
      case Collective::kGather:
        if (r == op.root) {
          for (int src = 0; src < kP; ++src)
            for (std::size_t i = 0; i < kN; ++i)
              out[up(src) * kN + i] = b.in[up(src)][i];
        }
        break;
      case Collective::kAllgatherv: {
        std::size_t offset = 0;
        for (int src = 0; src < kP; ++src) {
          for (const double x : b.in[up(src)]) out[offset++] = x;
        }
        break;
      }
      case Collective::kReduce:
        if (r == op.root) out = sum;
        break;
      case Collective::kAllreduce:
        out = sum;
        break;
      case Collective::kReduceScatter: {
        const int owned = (r + 1) % kP;
        const coll::Block blk =
            coll::split_blocks(kN, kP, op.split)[up(owned)];
        for (std::size_t i = blk.offset; i < blk.offset + blk.count; ++i)
          out[i] = sum[i];
        b.owned[up(r)] = owned;
        break;
      }
    }
  }
  return b;
}

/// An element of rank kRoot's output that the check must read.
std::size_t checked_element(const Op& op) {
  if (op.collective != Collective::kReduceScatter) return 0;
  return coll::split_blocks(kN, kP, op.split)[(kRoot + 1) % kP].offset;
}

const std::vector<std::size_t> kCounts = {2, 0, 3, 1};

Op op_for(Collective c) {
  Op op(c, coll::SplitPolicy::kStandard, kRoot);
  if (c == Collective::kAllgatherv) op.counts = kCounts;
  return op;
}

TEST(CheckOp, AcceptsCorrectResultsOfEveryCollective) {
  for (const Collective c : kAllCollectives) {
    SCOPED_TRACE(std::string(collective_name(c)));
    const Op op = op_for(c);
    const Buffers b = correct_buffers(op);
    EXPECT_NO_THROW(check_op(op, kN, b.ranks(), "ctx"));
  }
}

TEST(CheckOp, RejectsOneFlippedElementOfEveryCollective) {
  for (const Collective c : kAllCollectives) {
    SCOPED_TRACE(std::string(collective_name(c)));
    const Op op = op_for(c);
    Buffers b = correct_buffers(op);
    const std::size_t elem = checked_element(op);
    b.out[kRoot][elem] += 1.0;
    try {
      check_op(op, kN, b.ranks(), "ctx");
      ADD_FAILURE() << "a flipped element passed the check";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(
                    "ctx: core 1 element " + std::to_string(elem) + ":", 0),
                0u)
          << e.what();
    }
  }
}

TEST(CheckOp, RejectsAReduceScatterRankWithoutABlock) {
  const Op op = op_for(Collective::kReduceScatter);
  Buffers b = correct_buffers(op);
  b.owned[2] = -1;
  EXPECT_THROW(check_op(op, kN, b.ranks(), "ctx"), std::runtime_error);
}

TEST(CheckOp, BroadcastComparesAgainstTheRootsInSlotNotItsOutput) {
  // Traffic layout: the root broadcasts its out slot in place and keeps the
  // payload in its in slot; the other ranks' in slots hold unrelated data.
  const Op op = op_for(Collective::kBroadcast);
  Buffers b = correct_buffers(op);
  EXPECT_NO_THROW(check_op(op, kN, b.ranks(), "ctx"));
  // A payload repainted before it went out reaches every rank, the root's
  // own out slot included; only the untouched in slot still tells.
  for (auto& out : b.out) out[3] = -7.0;
  EXPECT_THROW(check_op(op, kN, b.ranks(), "ctx"), std::runtime_error);
  b = correct_buffers(op);
  b.out[3][kN - 1] += 1.0;
  EXPECT_THROW(check_op(op, kN, b.ranks(), "ctx"), std::runtime_error);
}

TEST(ParseNames, RoundTripEveryCollectiveAndVariant) {
  for (const Collective c : kAllCollectives) {
    EXPECT_EQ(parse_collective(collective_name(c)), c);
  }
  for (const PaperVariant v : kAllVariants) {
    EXPECT_EQ(parse_variant(variant_name(v)), v);
  }
  EXPECT_EQ(parse_collective("nope"), std::nullopt);
  EXPECT_EQ(parse_variant("nope"), std::nullopt);
  EXPECT_EQ(parse_variant("all"), std::nullopt);
}

TEST(OpMapping, VariantsMapOntoThePapersLayers) {
  EXPECT_EQ(prims_of(PaperVariant::kBlocking), coll::Prims::kBlocking);
  EXPECT_EQ(prims_of(PaperVariant::kIrcce), coll::Prims::kIrcce);
  for (const PaperVariant v : {PaperVariant::kLightweight,
                               PaperVariant::kLwBalanced, PaperVariant::kMpb}) {
    EXPECT_EQ(prims_of(v), coll::Prims::kLightweight);
  }
  for (const PaperVariant v : kAllVariants) {
    const bool balanced =
        v == PaperVariant::kLwBalanced || v == PaperVariant::kMpb;
    EXPECT_EQ(split_of(v), balanced ? coll::SplitPolicy::kBalanced
                                    : coll::SplitPolicy::kStandard);
  }
}

}  // namespace
}  // namespace scc::harness
