#include "harness/runner.hpp"

#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "harness/op.hpp"
#include "machine/scc_machine.hpp"
#include "metrics/collect.hpp"

namespace scc::harness {

namespace {

constexpr int kRoot = 0;  // root used by Reduce/Broadcast experiments

/// Shared by the trace run scope and the metrics snapshot label. The algo
/// suffix only appears when an override is set, so labels of existing runs
/// (and the baselines keyed on them) are unchanged.
std::string run_label(const RunSpec& spec) {
  std::string label =
      strprintf("%s/%s n=%zu",
                std::string(collective_name(spec.collective)).c_str(),
                std::string(variant_name(spec.variant)).c_str(),
                spec.elements);
  if (spec.algo) {
    label += strprintf(" algo=%s",
                       std::string(coll::algo_name(*spec.algo)).c_str());
  }
  if (spec.nonblocking) {
    label += strprintf(" nbc lanes=%d", spec.nbc_lanes);
  }
  if (!spec.config.faults.empty()) {
    label += strprintf(" faults=%s", spec.config.faults.to_string().c_str());
  }
  return label;
}

struct CoreData {
  aligned_vector<double> in;
  aligned_vector<double> out;
  std::vector<SimTime> samples;  // filled by rank 0
  std::vector<std::pair<SimTime, SimTime>> windows;  // rank 0, absolute
  int owned_block = -1;          // ReduceScatter result block
};

/// Integer-valued inputs: ring and tree reduction orders then agree
/// bit-for-bit with the serial reference (sums stay far below 2^53).
void fill_input(aligned_vector<double>& v, std::uint64_t seed, int rank) {
  Xoshiro256 rng(seed * 1000003 + static_cast<std::uint64_t>(rank));
  for (double& x : v) x = static_cast<double>(rng.below(1000));
}

/// Deterministic irregular decomposition for Allgatherv: per-core counts in
/// [0, n] drawn from the run seed (shared by setup and verification).
std::vector<std::size_t> allgatherv_counts(std::uint64_t seed, int p,
                                           std::size_t n) {
  Xoshiro256 rng(seed ^ 0xa11647e7'0a11647eULL);
  std::vector<std::size_t> counts(static_cast<std::size_t>(p));
  bool any = false;
  for (auto& c : counts) {
    c = rng.below(n + 1);
    any = any || c > 0;
  }
  if (!any) counts[0] = n > 0 ? n : 1;  // keep the gathered vector non-empty
  return counts;
}

sim::Task<> core_program(machine::CoreApi& api, const RunLayouts& layouts,
                         const RunSpec& spec, const Op& op, CoreData& data) {
  // Persistent per-core communication objects (the MPB Allreduce keeps
  // handshake sequence state across repetitions by design).
  CoreComm comm(api, layouts, spec.variant);
  std::optional<coll::nbc::ProgressEngine> engine;
  if (spec.nonblocking) {
    engine.emplace(api, prims_of(spec.variant), spec.nbc_lanes);
  }
  const int total = spec.warmup + spec.repetitions;
  for (int rep = 0; rep < total; ++rep) {
    co_await api.sync_barrier();
    const SimTime start = api.now();
    if (engine) {
      // Single-request wait() at one lane replays the blocking wire
      // schedule exactly; this path exercises the full initiate/progress/
      // complete machinery under the harness' verify, metrics and
      // perturbation plumbing.
      coll::nbc::CollRequest req =
          initiate_op(*engine, op, data.in, data.out);
      co_await req.wait();
    } else {
      data.owned_block = co_await comm.run(op, data.in, data.out);
    }
    if (api.rank() == 0 && rep >= spec.warmup) {
      data.samples.push_back(api.now() - start);
      data.windows.emplace_back(start, api.now());
    }
  }
  co_await api.sync_barrier();
}

}  // namespace

std::vector<PaperVariant> variants_for(Collective c) {
  switch (c) {
    case Collective::kAllgather:
    case Collective::kAlltoall:
      return {PaperVariant::kRckmpi, PaperVariant::kBlocking,
              PaperVariant::kIrcce, PaperVariant::kLightweight};
    case Collective::kScatter:
    case Collective::kGather:
    case Collective::kAllgatherv:
      // RCCE-family only: RCKMPI has no counterpart wired up, and neither
      // split policy nor the MPB path applies.
      return {PaperVariant::kBlocking, PaperVariant::kIrcce,
              PaperVariant::kLightweight};
    case Collective::kReduceScatter:
    case Collective::kBroadcast:
    case Collective::kReduce:
      return {PaperVariant::kRckmpi, PaperVariant::kBlocking,
              PaperVariant::kIrcce, PaperVariant::kLightweight,
              PaperVariant::kLwBalanced};
    case Collective::kAllreduce:
      return {std::begin(kAllVariants), std::end(kAllVariants)};
  }
  return {};
}

std::optional<coll::CollKind> algo_kind(Collective c) {
  switch (c) {
    case Collective::kAllgather: return coll::CollKind::kAllgather;
    case Collective::kAlltoall: return coll::CollKind::kAlltoall;
    case Collective::kReduceScatter: return coll::CollKind::kReduceScatter;
    case Collective::kAllreduce: return coll::CollKind::kAllreduce;
    default: return std::nullopt;
  }
}

RunResult run_collective(const RunSpec& spec) {
  if (spec.variant == PaperVariant::kMpb &&
      spec.collective != Collective::kAllreduce) {
    throw std::runtime_error(
        "the MPB-direct variant exists only for Allreduce (paper IV-D)");
  }
  if (spec.algo) {
    // Algorithm overrides exist on the Stack-based (RCCE-family) paths
    // only: RCKMPI and the MPB-direct Allreduce have their own schedules.
    if (spec.variant == PaperVariant::kRckmpi ||
        spec.variant == PaperVariant::kMpb) {
      throw std::runtime_error(strprintf(
          "--algo is not supported for the %s variant",
          std::string(variant_name(spec.variant)).c_str()));
    }
    const auto kind = algo_kind(spec.collective);
    if (!kind) {
      throw std::runtime_error(strprintf(
          "%s has no algorithm variants",
          std::string(collective_name(spec.collective)).c_str()));
    }
    if (*spec.algo != coll::Algo::kAuto &&
        !coll::algo_valid_for(*kind, *spec.algo)) {
      throw std::runtime_error(strprintf(
          "algorithm %s is not implemented for %s",
          std::string(coll::algo_name(*spec.algo)).c_str(),
          std::string(collective_name(spec.collective)).c_str()));
    }
  }
  if (spec.nonblocking) {
    if (spec.variant == PaperVariant::kRckmpi ||
        spec.variant == PaperVariant::kMpb) {
      throw std::runtime_error(strprintf(
          "--nbc is not supported for the %s variant (no i*() entry point)",
          std::string(variant_name(spec.variant)).c_str()));
    }
    if (!has_nbc_entry(spec.collective)) {
      throw std::runtime_error(strprintf(
          "%s has no non-blocking entry point (coll/nbc.hpp)",
          std::string(collective_name(spec.collective)).c_str()));
    }
    if (spec.nbc_lanes < 1) {
      throw std::runtime_error("--nbc-lanes must be >= 1");
    }
    if (spec.nbc_lanes > 1 && spec.variant == PaperVariant::kBlocking) {
      throw std::runtime_error(
          "the blocking stack cannot interleave lanes (its synchronous "
          "handshake has no poll-and-yield completion); use --nbc-lanes=1");
    }
  }
  SCC_EXPECTS(spec.repetitions >= 1);

  machine::SccConfig config = spec.config;
  if (spec.pdes_workers > 0) config.pdes_workers = spec.pdes_workers;
  const int p = config.num_cores();
  const RunLayouts layouts(spec.variant, p);
  layouts.reserve_flags(config, spec.nonblocking ? spec.nbc_lanes : 0);
  machine::SccMachine machine(config);
  if (spec.trace) {
    spec.trace->begin_run(run_label(spec));
    machine.attach_trace(spec.trace);
  }
  std::unique_ptr<metrics::Sampler> sampler;
  if (spec.sample_interval > SimTime::zero()) {
    sampler = metrics::attach_machine_sampler(machine, spec.sample_interval,
                                              run_label(spec));
  }

  // RCKMPI's reduce-scatter always splits balanced.
  Op op(spec.collective,
        spec.variant == PaperVariant::kRckmpi
            ? coll::SplitPolicy::kBalanced
            : spec.split_override.value_or(split_of(spec.variant)),
        kRoot);
  op.algo = spec.algo;
  std::vector<std::size_t> agv_counts;
  std::size_t agv_total = 0;
  if (spec.collective == Collective::kAllgatherv) {
    agv_counts = allgatherv_counts(spec.seed, p, spec.elements);
    for (const std::size_t c : agv_counts) agv_total += c;
    op.counts = agv_counts;
  }
  const BufferShape shape = buffer_shape(spec.collective, spec.elements, p);
  std::vector<CoreData> data(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto& d = data[static_cast<std::size_t>(r)];
    if (spec.collective == Collective::kAllgatherv) {
      d.in.resize(agv_counts[static_cast<std::size_t>(r)]);
      d.out.resize(agv_total, 0.0);
    } else {
      d.in.resize(shape.in_elems);
      d.out.resize(shape.out_elems, 0.0);
    }
    fill_input(d.in, spec.seed, r);
    if (spec.collective == Collective::kBroadcast && r == kRoot) {
      d.out = d.in;  // the root broadcasts its own data in place
    }
  }

  for (int r = 0; r < p; ++r) {
    machine.launch(r, core_program(machine.core(r), layouts, spec, op,
                                   data[static_cast<std::size_t>(r)]));
  }
  machine.run();

  if (spec.verify) {
    std::vector<RankBuffers> ranks;
    ranks.reserve(data.size());
    for (const CoreData& d : data) {
      ranks.push_back({d.in, d.out, d.owned_block});
    }
    check_op(op, spec.elements, ranks,
             strprintf("verification failed (%s/%s, n=%zu)",
                       std::string(collective_name(spec.collective)).c_str(),
                       std::string(variant_name(spec.variant)).c_str(),
                       spec.elements));
  }

  RunResult result;
  const auto& samples = data[0].samples;
  SCC_ASSERT(samples.size() == static_cast<std::size_t>(spec.repetitions));
  SimTime sum, min_s = SimTime::max(), max_s;
  for (const SimTime s : samples) {
    sum += s;
    min_s = std::min(min_s, s);
    max_s = std::max(max_s, s);
  }
  result.mean_latency =
      SimTime{sum.femtoseconds() / static_cast<std::uint64_t>(samples.size())};
  result.min_latency = min_s;
  result.max_latency = max_s;
  result.verified = spec.verify;
  result.events = machine.events_processed();
  const noc::TrafficMatrix traffic = machine.merged_traffic();
  result.lines_sent = traffic.total_lines_sent();
  result.line_hops = traffic.total_line_hops();
  result.sample_windows = data[0].windows;
  result.latencies = samples;
  if (sampler) {
    result.timeseries = metrics::detach_machine_sampler(machine, *sampler);
  }
  if (spec.capture_outputs) {
    result.outputs.reserve(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      const auto& out = data[static_cast<std::size_t>(r)].out;
      result.outputs.emplace_back(out.begin(), out.end());
    }
  }
  if (spec.collect_profiles) {
    result.profiles.reserve(static_cast<std::size_t>(p));
    result.cache_stats.reserve(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      result.profiles.push_back(machine.core(r).profile());
      result.cache_stats.push_back(machine.cache(r).stats());
    }
  }
  if (spec.collect_metrics) {
    result.metrics.emplace();
    result.metrics->set_label(run_label(spec));
    metrics::collect_machine(machine, *result.metrics);
    if (machine.partitions() > 1) {
      // Real-workload PDES introspection (pdes/windows, posts, slack...):
      // only meaningful -- and only emitted -- when the machine actually
      // ran partitioned, so serial metrics artifacts are unchanged.
      metrics::collect_pdes(machine.pdes(), *result.metrics);
    }
    if (layouts.mpi() != nullptr) {
      metrics::collect_channel(layouts.mpi()->stats(), *result.metrics);
    }
    result.metrics->set_time("run/mean_latency_fs", result.mean_latency);
    result.metrics->set_time("run/min_latency_fs", result.min_latency);
    result.metrics->set_time("run/max_latency_fs", result.max_latency);
    result.metrics->set("run/repetitions",
                        static_cast<std::uint64_t>(spec.repetitions));
    result.metrics->set("run/lines_sent", result.lines_sent,
                        metrics::Unit::kCount, /*invariant=*/true);
    result.metrics->set("run/line_hops", result.line_hops,
                        metrics::Unit::kCount, /*invariant=*/true);
  }
  return result;
}

}  // namespace scc::harness
