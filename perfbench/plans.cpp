#include "plans.hpp"

#include <stdexcept>
#include <utility>

#include "common/rng.hpp"

namespace perfbench {

namespace h = scc::harness;
using scc::SimTime;

namespace {

// Traffic: 4 tenant streams of mixed kinds, 96 doubles, lightweight stack,
// 2 progress lanes, on the 2x2-tile (8-core) mesh. The mean gap per stream
// puts traffic_steady below capacity and traffic_overload past it; the
// capacity measurement behind both is in README.md.
constexpr int kStreams = 4;
constexpr std::size_t kTrafficElements = 96;
constexpr double kSteadyGapUs = 650.0;
constexpr int kSteadyRequestsPerStream = 100;
constexpr double kOverloadGapUs = 120.0;
constexpr int kOverloadRequestsPerStream = 80;

// Ops per ten seconds of --seconds, sized so the timed loop takes about
// 80% of --seconds on a 4-core x86 host (Release build), and floored so
// every tail has at least twenty samples. fig9_grid adds one size (29
// ops, ~2.5 s) per three seconds.
constexpr int kSteadyCallsPer10s = 40;
constexpr int kOverloadCallsPer10s = 18;
constexpr int kPdesOpsPer10s = 40;
constexpr int kMinOps = 20;

/// One traffic call (open loop on the 8-core mesh) of the given workload.
h::TrafficSpec traffic_spec(WorkloadKind kind, std::uint64_t seed) {
  const bool overload = kind == WorkloadKind::kTrafficOverload;
  h::TrafficSpec t;
  t.streams = kStreams;
  t.requests_per_stream =
      overload ? kOverloadRequestsPerStream : kSteadyRequestsPerStream;
  t.elements = kTrafficElements;
  t.mean_interarrival =
      SimTime::from_us(overload ? kOverloadGapUs : kSteadyGapUs);
  t.seed = seed;
  t.variant = h::PaperVariant::kLightweight;
  t.lanes = 2;
  t.tiles_x = 2;
  t.tiles_y = 2;
  t.verify = true;
  return t;
}

}  // namespace

WorkloadKind parse_workload(const std::string& name) {
  if (name == "fig9_grid") return WorkloadKind::kFig9Grid;
  if (name == "traffic_steady") return WorkloadKind::kTrafficSteady;
  if (name == "traffic_overload") return WorkloadKind::kTrafficOverload;
  if (name == "pdes_allreduce") return WorkloadKind::kPdesAllreduce;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const std::vector<h::Collective>& fig9_collectives() {
  static const std::vector<h::Collective> all = {
      h::Collective::kAllgather, h::Collective::kAlltoall,
      h::Collective::kReduceScatter, h::Collective::kBroadcast,
      h::Collective::kReduce, h::Collective::kAllreduce};
  return all;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

h::RunSpec closed_loop_spec(h::Collective c, h::PaperVariant v, std::size_t n,
                            std::uint64_t seed) {
  h::RunSpec s;
  s.collective = c;
  s.variant = v;
  s.elements = n;
  s.warmup = 1;
  s.repetitions = 1;
  s.seed = seed;
  s.verify = true;
  return s;
}

std::uint64_t Plan::requests_of(std::size_t i) const {
  if (!is_traffic()) return 1;
  const h::TrafficSpec& t = traffic[i];
  return static_cast<std::uint64_t>(t.streams) *
         static_cast<std::uint64_t>(t.requests_per_stream);
}

Plan make_plan(WorkloadKind kind, std::uint64_t seed, int seconds) {
  Plan plan;
  scc::Xoshiro256 rng(seed);
  switch (kind) {
    case WorkloadKind::kFig9Grid: {
      // An even stride of sizes over 500-700 (finer for longer runs), each
      // nudged up by 0-15 doubles from the seed, crossed with every
      // collective and its Fig. 9 variants, in shuffled order.
      const int sizes = std::max(2, (seconds + 1) / 3);
      const std::size_t stride = 184 / static_cast<std::size_t>(sizes - 1);
      for (int k = 0; k < sizes; ++k) {
        const std::size_t n =
            500 + static_cast<std::size_t>(k) * stride + rng.below(16);
        for (const h::Collective c : fig9_collectives())
          for (const h::PaperVariant v : h::variants_for(c))
            plan.runs.push_back(closed_loop_spec(c, v, n, 0));
      }
      for (std::size_t i = plan.runs.size(); i > 1; --i)
        std::swap(plan.runs[i - 1], plan.runs[rng.below(i)]);
      plan.describe = "fig9_grid: " + std::to_string(plan.runs.size()) +
                      " ops = 6 collectives x Fig. 9 variants x " +
                      std::to_string(sizes) +
                      " sizes strided over 500-700, 48 cores";
      break;
    }
    case WorkloadKind::kTrafficSteady:
    case WorkloadKind::kTrafficOverload: {
      const bool overload = kind == WorkloadKind::kTrafficOverload;
      const int calls = std::max(
          kMinOps,
          seconds * (overload ? kOverloadCallsPer10s : kSteadyCallsPer10s) /
              10);
      for (int i = 0; i < calls; ++i)
        plan.traffic.push_back(
            traffic_spec(kind, derive_seed(seed, static_cast<std::uint64_t>(i))));
      plan.machine_config.tiles_x = 2;
      plan.machine_config.tiles_y = 2;
      const h::TrafficSpec& t = plan.traffic.front();
      plan.describe =
          std::string(overload ? "traffic_overload" : "traffic_steady") +
          ": " + std::to_string(calls) + " run_traffic calls x " +
          std::to_string(t.streams) + " streams x " +
          std::to_string(t.requests_per_stream) + " requests, " +
          std::to_string(t.elements) + " doubles, mean gap " +
          std::to_string(static_cast<int>(t.mean_interarrival.us())) +
          " us/stream, lightweight, 2 lanes, 8 cores";
      break;
    }
    case WorkloadKind::kPdesAllreduce: {
      // The spotlight op at 552 +- 8 doubles on the partitioned machine:
      // the seed centres the run within +-4 and each op lies within +-4 of
      // that, so the size-stepped latency quantiles move with the seed.
      const int ops = std::max(kMinOps, seconds * kPdesOpsPer10s / 10);
      plan.pdes_workers = 2;
      plan.machine_config.pdes_workers = plan.pdes_workers;
      const std::size_t base = 544 + rng.below(9);
      for (int i = 0; i < ops; ++i) {
        h::RunSpec s = closed_loop_spec(h::Collective::kAllreduce,
                                        h::PaperVariant::kLwBalanced,
                                        base + rng.below(9), 0);
        s.pdes_workers = plan.pdes_workers;
        plan.runs.push_back(s);
      }
      plan.describe = "pdes_allreduce: " + std::to_string(ops) +
                      " ops of Allreduce lw-balanced, 544-560 doubles, "
                      "48 cores, pdes_workers=2";
      break;
    }
  }
  // Each op's input data comes from its own derived seed.
  for (std::size_t i = 0; i < plan.runs.size(); ++i)
    plan.runs[i].seed = derive_seed(seed, 1000003 + i);
  return plan;
}

}  // namespace perfbench
