// Open-loop traffic generator (harness/traffic.hpp), label: nbc.
//
// The schedule must be a pure function of the spec; every simulated result
// byte must be invariant under PDES worker count; every request's result is
// verified against the host reference inside run_traffic; and the whole
// point of the exercise -- the open-loop non-blocking drain finishing the
// same offered load sooner than the serialized blocking drain -- is pinned
// as a strict inequality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "harness/traffic.hpp"

namespace scc::harness {
namespace {

TrafficSpec small_spec() {
  TrafficSpec spec;
  spec.streams = 3;
  spec.requests_per_stream = 4;
  spec.elements = 24;
  spec.mean_interarrival = SimTime::from_us(30.0);
  spec.variant = PaperVariant::kLightweight;
  spec.lanes = 2;
  return spec;
}

TEST(TrafficSchedule, PureFunctionOfSpecAndSorted) {
  const TrafficSpec spec = small_spec();
  const auto a = traffic_schedule(spec, 8);
  const auto b = traffic_schedule(spec, 8);
  ASSERT_EQ(a.size(), 12u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].stream, b[i].stream);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].root, b[i].root);
  }
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                             [](const TrafficRequest& x,
                                const TrafficRequest& y) {
                               return x.arrival < y.arrival;
                             }));
  // Broadcast roots are per-stream, so concurrent broadcasts from
  // different tenants genuinely fan out from different cores.
  for (const TrafficRequest& r : a) {
    if (r.kind == Collective::kBroadcast) {
      EXPECT_EQ(r.root, r.stream % 8);
    }
  }
}

TEST(TrafficSchedule, DistinctSeedsDistinctSchedules) {
  TrafficSpec spec = small_spec();
  const auto a = traffic_schedule(spec, 8);
  spec.seed = 43;
  const auto b = traffic_schedule(spec, 8);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].arrival != b[i].arrival || a[i].kind != b[i].kind) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

class TrafficStacks : public ::testing::TestWithParam<PaperVariant> {};

// run_traffic verifies every request element-wise internally; this test's
// job is that the run completes (no cross-lane deadlock) and the probe is
// fully populated for every stack that can drive the open loop.
TEST_P(TrafficStacks, OpenLoopCompletesAndVerifies) {
  TrafficSpec spec = small_spec();
  spec.variant = GetParam();
  spec.lanes = spec.variant == PaperVariant::kBlocking ? 1 : 2;
  const TrafficResult result = run_traffic(spec);
  EXPECT_EQ(result.requests, 12u);
  EXPECT_EQ(result.latency.count(), 12u);
  EXPECT_EQ(result.latencies.size(), 12u);
  EXPECT_GT(result.makespan, SimTime::zero());
  EXPECT_GT(result.lines_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, TrafficStacks,
    ::testing::Values(PaperVariant::kBlocking, PaperVariant::kIrcce,
                      PaperVariant::kLightweight,
                      PaperVariant::kLwBalanced),
    [](const auto& param_info) {
      std::string name(variant_name(param_info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(TrafficGen, SerializedBaselineCompletesAndVerifies) {
  TrafficSpec spec = small_spec();
  spec.serialize = true;
  const TrafficResult result = run_traffic(spec);
  EXPECT_EQ(result.latency.count(), 12u);
  EXPECT_GT(result.makespan, SimTime::zero());
}

// The headline claim: under a backlogged open-loop arrival process, the
// non-blocking engine overlaps queued collectives and finishes the offered
// load strictly sooner than the serialized blocking drain -- with lower
// mean sojourn latency, since queued requests stop paying full
// head-of-line blocking.
TEST(TrafficGen, OpenLoopBeatsSerializedDrain) {
  TrafficSpec spec;
  spec.streams = 4;
  spec.requests_per_stream = 6;
  spec.elements = 32;
  // Aggressive rate: mean interarrival well below one collective's service
  // time, so the queue genuinely builds up.
  spec.mean_interarrival = SimTime::from_us(20.0);
  spec.variant = PaperVariant::kLightweight;
  spec.lanes = 2;
  const TrafficResult nbc = run_traffic(spec);
  spec.serialize = true;
  const TrafficResult serial = run_traffic(spec);
  ASSERT_EQ(nbc.requests, serial.requests);
  EXPECT_LT(nbc.makespan, serial.makespan);
}

// Everything simulated -- per-request sojourn latencies, makespan, traffic
// volume, event count -- must be byte-identical for every PDES worker
// count (the conservative drain is an execution strategy, not a model).
TEST(TrafficGen, WorkerCountInvariant) {
  TrafficSpec spec = small_spec();
  const TrafficResult serial = run_traffic(spec);
  for (const int workers : {2, 8}) {
    spec.pdes_workers = workers;
    const TrafficResult pdes = run_traffic(spec);
    EXPECT_EQ(pdes.makespan, serial.makespan) << "workers=" << workers;
    EXPECT_EQ(pdes.lines_sent, serial.lines_sent);
    EXPECT_EQ(pdes.line_hops, serial.line_hops);
    // (event counts are not compared: sharding the machine adds engine
    // bookkeeping events -- cross-partition posts -- by design.)
    ASSERT_EQ(pdes.latencies.size(), serial.latencies.size());
    for (std::size_t i = 0; i < serial.latencies.size(); ++i) {
      EXPECT_EQ(pdes.latencies[i], serial.latencies[i])
          << "workers=" << workers << " request " << i;
    }
  }
}

// Deep-backlog identity. The committed traffic_gen baseline covers 48
// requests; this pins the overloaded shape (4 streams x 80 requests at a
// 120 us mean gap: ~3x past capacity, so hundreds of requests queue) for
// 1, 2 and 4 lanes. The digest folds every request's latency in
// completion-observation order (observation instant, then request index),
// together with the makespan and MPB line volume; it was recorded with the
// earlier full-scan completion check, so any change in which request
// retires at which progress pass shows up here. The engine's event count
// is host-side work, not a simulated result, and is pinned on its own.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t deep_backlog_digest(const TrafficSpec& spec,
                                  const TrafficResult& r) {
  const auto schedule = traffic_schedule(spec, spec.tiles_x * spec.tiles_y * 2);
  const auto observed = [&](std::size_t i) {
    return schedule[i].arrival + r.latencies[i];
  };
  std::vector<std::size_t> order(r.latencies.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return observed(a) < observed(b);
                   });
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::size_t i : order) {
    h = fnv1a(h, i);
    h = fnv1a(h, r.latencies[i].femtoseconds());
  }
  h = fnv1a(h, r.makespan.femtoseconds());
  return fnv1a(h, r.lines_sent);
}

class TrafficDeepBacklog : public ::testing::TestWithParam<int> {};

TEST_P(TrafficDeepBacklog, MatchesPinnedDigest) {
  TrafficSpec spec;
  spec.streams = 4;
  spec.requests_per_stream = 80;
  spec.elements = 96;
  spec.mean_interarrival = SimTime::from_us(120.0);
  spec.variant = PaperVariant::kLightweight;
  spec.lanes = GetParam();
  const TrafficResult r = run_traffic(spec);
  ASSERT_EQ(r.requests, 320u);
  ASSERT_EQ(r.latency.count(), 320u);
  struct Pinned {
    std::uint64_t digest;
    std::uint64_t makespan_fs;
    std::uint64_t events;
  };
  const Pinned want = [&]() -> Pinned {
    switch (spec.lanes) {
      case 1: return {0xdc42070b5b1cb23fULL, 25845402888559ULL, 221317};
      case 2: return {0x7cda9783e60cc0eaULL, 24838307105814ULL, 244059};
      default: return {0xc6aed4a21124aa67ULL, 24233087518961ULL, 235222};
    }
  }();
  EXPECT_EQ(r.makespan.femtoseconds(), want.makespan_fs);
  EXPECT_EQ(r.events, want.events);
  EXPECT_EQ(r.lines_sent, 242256u);
  EXPECT_EQ(deep_backlog_digest(spec, r), want.digest)
      << std::hex << "digest 0x" << deep_backlog_digest(spec, r);
}

INSTANTIATE_TEST_SUITE_P(Lanes, TrafficDeepBacklog,
                         ::testing::Values(1, 2, 4),
                         [](const auto& param_info) {
                           return "lanes" + std::to_string(param_info.param);
                         });

TEST(TrafficGen, RejectsOversizedMessagesForLaneChunk) {
  TrafficSpec spec = small_spec();
  spec.elements = 4096;  // 32 KiB/message >> any lane chunk
  spec.lanes = 4;
  EXPECT_THROW((void)run_traffic(spec), std::runtime_error);
}

TEST(TrafficGen, RejectsMultiLaneBlocking) {
  TrafficSpec spec = small_spec();
  spec.variant = PaperVariant::kBlocking;
  spec.lanes = 2;
  EXPECT_THROW((void)run_traffic(spec), std::runtime_error);
}

TEST(TrafficGen, RejectsNonRcceVariants) {
  TrafficSpec spec = small_spec();
  spec.variant = PaperVariant::kRckmpi;
  EXPECT_THROW((void)run_traffic(spec), std::runtime_error);
  spec.variant = PaperVariant::kMpb;
  EXPECT_THROW((void)run_traffic(spec), std::runtime_error);
}

}  // namespace
}  // namespace scc::harness
