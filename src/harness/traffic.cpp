#include "harness/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "harness/op.hpp"
#include "machine/scc_machine.hpp"
#include "metrics/collect.hpp"

namespace scc::harness {

namespace {

/// The collectives a stream draws from, in draw-index order (a schedule is
/// a pure function of this order). All have non-blocking entry points.
constexpr Collective kStreamKinds[] = {
    Collective::kAllreduce, Collective::kAllgather, Collective::kAlltoall,
    Collective::kBroadcast};
static_assert(std::ranges::all_of(kStreamKinds, has_nbc_entry));

/// The op of one scheduled request.
Op op_of(const TrafficRequest& req, PaperVariant variant) {
  return Op(req.kind, split_of(variant), req.root);
}

/// Integer-valued inputs keyed on (run seed, request index, rank): every
/// reduction order agrees bit-for-bit with the host reference, and distinct
/// requests carry distinct payloads (a stale-buffer reuse would be caught).
void fill_request_input(aligned_vector<double>& v, std::uint64_t seed,
                        std::size_t request, int rank) {
  Xoshiro256 rng(seed + 1000003 * (request + 1) +
                 static_cast<std::uint64_t>(rank));
  for (double& x : v) x = static_cast<double>(rng.below(1000));
}

/// Per-core, per-request buffers. Every request owns its buffers for the
/// whole run -- queued requests overlap, so slots cannot be recycled until
/// completion, and dedicated slots keep results checkable afterwards.
struct TrafficCoreData {
  std::vector<aligned_vector<double>> in;   // one per scheduled request
  std::vector<aligned_vector<double>> out;  // one per scheduled request
};

/// Rank 0's measurements, written by the core program.
struct TrafficProbe {
  /// latency[i] = completion-observation instant minus scheduled arrival
  /// of schedule entry i.
  std::vector<SimTime> latency;
  /// Indices in the order completions were observed (histogram fill order).
  std::vector<std::size_t> completion_order;
  SimTime makespan;
};

/// Closed-loop baseline: the identical schedule, drained strictly in
/// arrival order through the blocking API. A request that arrives while an
/// earlier one is still in service waits in line -- its sojourn latency
/// includes the full head-of-line queueing delay.
sim::Task<> serialized_program(machine::CoreApi& api,
                               const RunLayouts& layouts,
                               const TrafficSpec& spec,
                               const std::vector<TrafficRequest>& schedule,
                               TrafficCoreData& data, TrafficProbe& probe) {
  CoreComm comm(api, layouts, spec.variant);
  co_await api.sync_barrier();
  const SimTime t0 = api.now();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const SimTime target = t0 + schedule[i].arrival;
    if (api.now() < target) {
      co_await api.charge(machine::Phase::kCompute, target - api.now());
    }
    co_await comm.run(op_of(schedule[i], spec.variant), data.in[i],
                      data.out[i]);
    if (api.rank() == 0) {
      probe.latency[i] = api.now() - target;
      probe.completion_order.push_back(i);
    }
  }
  co_await api.sync_barrier();
  if (api.rank() == 0) probe.makespan = api.now() - t0;
}

/// Open-loop generator: the engine is driven until each arrival instant,
/// genuinely idle gaps are charged as compute think-time, and initiation
/// never blocks on earlier requests -- a backlogged engine simply carries
/// more in flight. Completions are observed (and timed) at progress-pass
/// boundaries, so the recorded latency includes the engine's poll
/// quantization, exactly as a real progress-loop client would see.
sim::Task<> open_loop_program(machine::CoreApi& api, const TrafficSpec& spec,
                              const std::vector<TrafficRequest>& schedule,
                              TrafficCoreData& data, TrafficProbe& probe) {
  coll::nbc::ProgressEngine engine(api, prims_of(spec.variant), spec.lanes);
  // In-flight requests, one FIFO per engine lane. A lane retires its
  // requests in initiation order, so completions only ever show up at the
  // fronts: a reap costs O(lanes + retired), not O(in flight).
  using InFlight = std::pair<std::size_t, coll::nbc::CollRequest>;
  std::vector<std::deque<InFlight>> in_flight(
      static_cast<std::size_t>(engine.lanes()));
  std::vector<std::size_t> retired;
  co_await api.sync_barrier();
  const SimTime t0 = api.now();
  const auto reap = [&] {
    retired.clear();
    for (auto& lane : in_flight) {
      while (!lane.empty() && lane.front().second.done()) {
        retired.push_back(lane.front().first);
        lane.pop_front();
      }
    }
    if (api.rank() != 0) return;
    // Ascending request index: the completion-observation order the
    // histogram is filled in.
    std::sort(retired.begin(), retired.end());
    for (const std::size_t i : retired) {
      probe.latency[i] = api.now() - (t0 + schedule[i].arrival);
      probe.completion_order.push_back(i);
    }
  };
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const SimTime target = t0 + schedule[i].arrival;
    while (api.now() < target && !engine.idle()) {
      co_await engine.progress();
      reap();
    }
    if (api.now() < target) {
      co_await api.charge(machine::Phase::kCompute, target - api.now());
    }
    const coll::nbc::CollRequest req =
        initiate_op(engine, op_of(schedule[i], spec.variant), data.in[i],
                 data.out[i]);
    in_flight[static_cast<std::size_t>(engine.lane_of(req.id()))]
        .emplace_back(i, req);
  }
  while (!engine.idle()) {
    co_await engine.progress();
    reap();
  }
  co_await api.sync_barrier();
  if (api.rank() == 0) probe.makespan = api.now() - t0;
}

}  // namespace

std::vector<TrafficRequest> traffic_schedule(const TrafficSpec& spec, int p) {
  SCC_EXPECTS(spec.streams >= 1 && spec.requests_per_stream >= 1);
  SCC_EXPECTS(spec.mean_interarrival > SimTime::zero());
  std::vector<TrafficRequest> merged;
  merged.reserve(static_cast<std::size_t>(spec.streams) *
                 static_cast<std::size_t>(spec.requests_per_stream));
  const double mean_fs =
      static_cast<double>(spec.mean_interarrival.femtoseconds());
  for (int s = 0; s < spec.streams; ++s) {
    // Per-stream RNG stream: interarrival gaps and kinds are drawn
    // interleaved, so adding a stream never perturbs the others.
    Xoshiro256 rng(spec.seed * std::uint64_t{0x9e3779b97f4a7c15} +
                   static_cast<std::uint64_t>(s));
    SimTime t = SimTime::zero();
    for (int q = 0; q < spec.requests_per_stream; ++q) {
      // Exponential interarrival via inverse transform; 1 - u in (0, 1]
      // keeps log() finite, and the 1 fs floor keeps arrivals strictly
      // increasing within a stream.
      const double u = rng.uniform();
      const double gap_fs = -std::log(1.0 - u) * mean_fs;
      t += SimTime{std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(gap_fs))};
      TrafficRequest req;
      req.arrival = t;
      req.stream = s;
      req.kind = kStreamKinds[rng.below(std::size(kStreamKinds))];
      req.root = req.kind == Collective::kBroadcast ? s % p : 0;
      merged.push_back(req);
    }
  }
  // Arrival-ordered global program; ties (possible only across streams)
  // break by stream id, so the merged order is a pure function of the spec.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TrafficRequest& a, const TrafficRequest& b) {
                     if (a.arrival != b.arrival) return a.arrival < b.arrival;
                     return a.stream < b.stream;
                   });
  return merged;
}

TrafficResult run_traffic(const TrafficSpec& spec) {
  if (spec.variant == PaperVariant::kRckmpi ||
      spec.variant == PaperVariant::kMpb) {
    throw std::runtime_error(strprintf(
        "traffic_gen supports the RCCE-family variants only, not %s",
        std::string(variant_name(spec.variant)).c_str()));
  }
  if (spec.lanes < 1) throw std::runtime_error("--lanes must be >= 1");
  if (!spec.serialize && spec.lanes > 1 &&
      spec.variant == PaperVariant::kBlocking) {
    throw std::runtime_error(
        "the blocking stack cannot interleave lanes (no poll-and-yield "
        "completion); use --lanes=1 or a non-blocking variant");
  }
  if (spec.elements < 1) throw std::runtime_error("--elements must be >= 1");

  machine::SccConfig config = machine::SccConfig::paper_default();
  config.tiles_x = spec.tiles_x;
  config.tiles_y = spec.tiles_y;
  if (spec.pdes_workers > 0) config.pdes_workers = spec.pdes_workers;
  config.perturb_seed = spec.perturb_seed;
  const int p = config.num_cores();
  const RunLayouts layouts(spec.variant, p);
  if (!spec.serialize && spec.lanes > 1) {
    for (int lane = 0; lane < spec.lanes; ++lane) {
      const rcce::Layout sub = rcce::Layout::lane(p, lane, spec.lanes);
      if (spec.elements * sizeof(double) > sub.chunk_bytes()) {
        // Oversized messages fall back to blocking completion waits inside
        // a lane step, which can deadlock across lanes -- reject up front.
        throw std::runtime_error(strprintf(
            "elements=%zu (%zu bytes/message) exceeds lane %d's MPB chunk "
            "(%zu bytes) at --lanes=%d; shrink the message or the lane count",
            spec.elements, spec.elements * sizeof(double), lane,
            sub.chunk_bytes(), spec.lanes));
      }
    }
  }
  layouts.reserve_flags(config, spec.serialize ? 0 : spec.lanes);
  machine::SccMachine machine(config);
  std::unique_ptr<metrics::Sampler> sampler;
  if (spec.sample_interval > SimTime::zero()) {
    sampler = metrics::attach_machine_sampler(
        machine, spec.sample_interval,
        strprintf("traffic/%s%s lanes=%d streams=%d",
                  std::string(variant_name(spec.variant)).c_str(),
                  spec.serialize ? " serialized" : "",
                  spec.serialize ? 1 : spec.lanes, spec.streams));
  }

  const std::vector<TrafficRequest> schedule = traffic_schedule(spec, p);
  std::vector<TrafficCoreData> data(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto& d = data[static_cast<std::size_t>(r)];
    d.in.resize(schedule.size());
    d.out.resize(schedule.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const BufferShape shape =
          buffer_shape(schedule[i].kind, spec.elements, p);
      d.in[i].resize(shape.in_elems);
      d.out[i].resize(shape.out_elems, 0.0);
      fill_request_input(d.in[i], spec.seed, i, r);
      if (schedule[i].kind == Collective::kBroadcast &&
          r == schedule[i].root) {
        // The root broadcasts a copy of its in slot in place; the in slot
        // stays untouched, so the check compares against the original.
        d.out[i] = d.in[i];
      }
    }
  }

  TrafficProbe probe;
  probe.latency.assign(schedule.size(), SimTime::zero());
  for (int r = 0; r < p; ++r) {
    auto& d = data[static_cast<std::size_t>(r)];
    if (spec.serialize) {
      machine.launch(r, serialized_program(machine.core(r), layouts, spec,
                                           schedule, d, probe));
    } else {
      machine.launch(
          r, open_loop_program(machine.core(r), spec, schedule, d, probe));
    }
  }
  machine.run();

  if (spec.verify) {
    std::vector<RankBuffers> ranks(static_cast<std::size_t>(p));
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      for (int r = 0; r < p; ++r) {
        const auto& d = data[static_cast<std::size_t>(r)];
        ranks[static_cast<std::size_t>(r)] = {d.in[i], d.out[i]};
      }
      check_op(op_of(schedule[i], spec.variant), spec.elements, ranks,
               strprintf("traffic verification failed: request %zu (%s, "
                         "stream %d)",
                         i,
                         std::string(collective_name(schedule[i].kind)).c_str(),
                         schedule[i].stream));
    }
  }

  TrafficResult result;
  SCC_ASSERT(probe.completion_order.size() == schedule.size());
  for (const std::size_t i : probe.completion_order) {
    result.latency.record(probe.latency[i].femtoseconds());
  }
  result.latencies = std::move(probe.latency);
  result.makespan = probe.makespan;
  result.requests = schedule.size();
  result.events = machine.events_processed();
  const noc::TrafficMatrix traffic = machine.merged_traffic();
  result.lines_sent = traffic.total_lines_sent();
  result.line_hops = traffic.total_line_hops();
  if (sampler) {
    result.timeseries = metrics::detach_machine_sampler(machine, *sampler);
  }
  return result;
}

}  // namespace scc::harness
