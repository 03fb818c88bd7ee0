#include "machine/scc_machine.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "common/string_util.hpp"

namespace scc::machine {

namespace {

/// Partition count for a config: pdes_workers == 0 keeps the single serial
/// engine; any worker request shards into tiles_x column slabs. The count
/// is a pure function of the topology -- NOT of the worker count -- so
/// every --workers value runs the identical window schedule and produces
/// identical artifact bytes.
int partitions_for(const SccConfig& config) {
  SCC_EXPECTS(config.pdes_workers >= 0);
  return config.pdes_workers > 0 ? config.tiles_x : 1;
}

/// splitmix64 finalizer: decorrelates per-partition perturbation streams
/// derived from one user seed (seed ^ partition alone would correlate
/// neighbouring partitions).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A launched program, then its trailing private time: the engine's clock
/// ends where the core's time does.
sim::Task<> run_to_sync(CoreApi& api, sim::Task<> program) {
  co_await std::move(program);
  co_await api.sync();
}

std::vector<int> core_partitions(const noc::Topology& topology,
                                 int partitions) {
  std::vector<int> map(static_cast<std::size_t>(topology.num_cores()));
  for (int core = 0; core < topology.num_cores(); ++core)
    map[static_cast<std::size_t>(core)] =
        topology.partition_of(core, partitions);
  return map;
}

}  // namespace

SccMachine::SccMachine(SccConfig config)
    : config_(config),
      topology_(config.tiles_x, config.tiles_y, config.cores_per_tile),
      fault_model_(config_.faults.empty()
                       ? std::optional<faults::FaultModel>{}
                       : std::optional<faults::FaultModel>{std::in_place,
                                                           config_.faults,
                                                           topology_}),
      latency_(config_.cost.hw, topology_, fault_model()),
      partitions_(partitions_for(config_)),
      pdes_(sim::PdesConfig{
          partitions_, std::max(config_.pdes_workers, 1),
          pdes_lookahead(latency_, topology_, partitions_),
          /*instrument_workers=*/false}),
      core_partition_(core_partitions(topology_, partitions_)),
      mpb_(topology_.num_cores()),
      flags_([this](int core) -> sim::Engine& { return engine_of_core(core); },
             topology_.num_cores(), config.flags_per_core),
      traffic_(static_cast<std::size_t>(partitions_),
               noc::TrafficMatrix(topology_)),
      contention_(static_cast<std::size_t>(partitions_),
                  noc::LinkContention(topology_, config_.cost.hw.mesh_clock(),
                                      config_.cost.hw
                                          .link_service_mesh_cycles_per_line,
                                      config_.cost.hw.mesh_cycles_per_hop)) {
  if (fault_model_) {
    // Traffic accounting and the contention model follow the degraded
    // machine too: rerouted paths where links died, stretched service and
    // traversal windows on slow links. Every partition shard gets the same
    // hooks (the fault model is immutable shared state, safe to read from
    // any worker).
    const faults::FaultModel& fm = *fault_model_;
    for (int p = 0; p < partitions_; ++p) {
      if (fm.rerouted()) {
        traffic_of(p).set_route_fn(
            [&fm](int a, int b) -> const std::vector<noc::LinkId>& {
              return fm.route(a, b);
            });
      }
      contention_of(p).set_fault_hooks(
          fm.rerouted()
              ? noc::LinkContention::RouteFn(
                    [&fm](int a, int b) -> const std::vector<noc::LinkId>& {
                      return fm.route(a, b);
                    })
              : noc::LinkContention::RouteFn(),
          [&fm](const noc::LinkId& link) { return fm.link_factor(link); });
    }
  }
  if (config_.perturb_seed) {
    if (partitions_ == 1) {
      pdes_.partition(0).enable_perturbation(sim::PerturbConfig{
          *config_.perturb_seed, SimTime{config_.perturb_max_delay_fs}});
    } else {
      // Perturbation composes per partition (see sim/pdes.hpp): each slab
      // perturbs its own schedule from a seed derived deterministically
      // from the user's -- still one reproducible trace per (seed, config),
      // for any worker count.
      for (int p = 0; p < partitions_; ++p) {
        pdes_.partition(p).enable_perturbation(sim::PerturbConfig{
            mix64(*config_.perturb_seed ^ static_cast<std::uint64_t>(p)),
            SimTime{config_.perturb_max_delay_fs}});
      }
    }
  }
  barrier_.reserve(static_cast<std::size_t>(partitions_));
  for (int p = 0; p < partitions_; ++p) barrier_.emplace_back(pdes_.partition(p));
  pdes_.set_quiescence_hook([this] { return release_harness_barrier(); });
  caches_.reserve(static_cast<std::size_t>(num_cores()));
  cores_.reserve(static_cast<std::size_t>(num_cores()));
  for (int rank = 0; rank < num_cores(); ++rank) {
    caches_.emplace_back(config_.cost.hw);
    cores_.push_back(std::make_unique<CoreApi>(*this, rank));
    if (config_.poison_mpb) mpb_.poison(rank, std::byte{0xCD});
  }
}

void SccMachine::launch(int rank, sim::Task<> program) {
  SCC_EXPECTS(rank >= 0 && rank < num_cores());
  engine_of_core(rank).spawn(run_to_sync(core(rank), std::move(program)),
                             strprintf("core%d", rank));
}

void SccMachine::run() {
  pdes_.run();
  splice_traces();
}

bool SccMachine::run_detect_deadlock() {
  const bool ok = pdes_.run_detect_deadlock();
  splice_traces();
  return ok;
}

bool SccMachine::release_harness_barrier() {
  // Fired by the PDES coordinator when every heap and outbox is dry. The
  // serial machine's sync_barrier releases inline (last arriver), so this
  // only ever sees arrivals on a partitioned machine.
  int arrived = 0;
  for (const HarnessBarrier& shard : barrier_) arrived += shard.arrived;
  if (arrived < num_cores()) return false;
  // Global release instant: no core may resume before the last arrival,
  // and no partition clock may run backwards. A pure function of the
  // (deterministic) arrival schedule -- worker-count invariant.
  SimTime release = SimTime::zero();
  for (int p = 0; p < partitions_; ++p) {
    release = std::max({release, barrier_[static_cast<std::size_t>(p)]
                                     .last_arrival,
                        pdes_.partition(p).now()});
  }
  for (int p = 0; p < partitions_; ++p) {
    HarnessBarrier* shard = &barrier_[static_cast<std::size_t>(p)];
    pdes_.partition(p).schedule_call(release, sim::SmallCallable([shard] {
      shard->arrived = 0;
      shard->last_arrival = SimTime::zero();
      ++shard->generation;
      shard->queue.notify_all();
    }));
  }
  return true;
}

void SccMachine::flush_caches() {
  for (auto& cache : caches_) cache.flush_all();
}

void SccMachine::attach_trace(trace::Recorder* recorder) {
  trace_ = recorder;
  if (partitions_ == 1) {
    pdes_.partition(0).set_trace(recorder);
    contention_.front().set_trace(recorder);
    return;
  }
  part_trace_.clear();
  for (int p = 0; p < partitions_; ++p) {
    trace::Recorder* part = nullptr;
    if (recorder) {
      part_trace_.push_back(
          std::make_unique<trace::Recorder>(recorder->capacity()));
      part = part_trace_.back().get();
    }
    pdes_.partition(p).set_trace(part);
    contention_of(p).set_trace(part);
  }
}

void SccMachine::splice_traces() {
  if (partitions_ == 1 || trace_ == nullptr) return;
  // Partition order: deterministic for any worker count (each partition's
  // private recorder saw exactly its own engine's serial event stream).
  for (auto& part : part_trace_) {
    trace_->append_from(*part);
    part->clear();
  }
}

noc::TrafficMatrix SccMachine::merged_traffic() const {
  noc::TrafficMatrix merged = traffic_.front();
  for (std::size_t p = 1; p < traffic_.size(); ++p)
    merged.merge_from(traffic_[p]);
  return merged;
}

std::vector<std::pair<std::string, noc::LinkStats>>
SccMachine::merged_link_stats() const {
  if (partitions_ == 1) return contention_.front().link_stats();
  std::map<std::string, noc::LinkStats> by_name;
  for (const noc::LinkContention& shard : contention_) {
    for (const auto& [name, s] : shard.link_stats()) {
      noc::LinkStats& merged = by_name[name];
      merged.windows += s.windows;
      merged.busy += s.busy;
      merged.queue += s.queue;
      merged.max_queue = std::max(merged.max_queue, s.max_queue);
    }
  }
  return {by_name.begin(), by_name.end()};
}

SimTime SccMachine::contention_total_delay() const {
  SimTime total;
  for (const noc::LinkContention& shard : contention_)
    total += shard.total_delay();
  return total;
}

std::uint64_t SccMachine::contention_delayed_transfers() const {
  std::uint64_t total = 0;
  for (const noc::LinkContention& shard : contention_)
    total += shard.delayed_transfers();
  return total;
}

SimTime SccMachine::charge_contention(int from, int to, std::uint64_t lines,
                                      SimTime now, int source_partition) {
  noc::LinkContention& shard = contention_of(source_partition);
  if (partitions_ == 1) return shard.occupy(from, to, lines, now);
  const SimTime floor = now + pdes_.lookahead();
  return shard.occupy_split(
      from, to, lines, now,
      [&](const noc::LinkId& link) {
        return topology_.partition_of_column(
                   std::min(link.from.x, link.to.x), partitions_) ==
               source_partition;
      },
      [&](const noc::LinkId& link, std::uint64_t l, SimTime arrival) {
        const int owner = topology_.partition_of_column(
            std::min(link.from.x, link.to.x), partitions_);
        // Absorbs may not land before the lookahead contract allows a
        // cross-partition effect to exist (audited; the clamp only engages
        // for links within lookahead of the source's clock).
        const SimTime start = std::max(arrival, floor);
        SCC_EXPECTS(start >= floor);
        pdes_.post(source_partition, owner, start,
                   sim::SmallCallable([this, owner, link, l, start] {
                     contention_of(owner).absorb(link, l, start);
                   }));
      });
}

void launch_spmd(SccMachine& machine,
                 const std::function<sim::Task<>(CoreApi&)>& factory) {
  for (int rank = 0; rank < machine.num_cores(); ++rank) {
    machine.launch(rank, factory(machine.core(rank)));
  }
}

SimTime pdes_lookahead(const mem::LatencyCalculator& latency,
                       const noc::Topology& topology, int partitions) {
  const int hops =
      std::max(1, topology.min_partition_separation_hops(partitions));
  const SimTime floor =
      latency.min_hop_transit() * static_cast<std::uint64_t>(hops);
  if (partitions <= 1) return floor;
  // True minimum cross-partition interaction distance, through the
  // fault-effective calculator (slow links / stragglers only ever RAISE
  // charges, so the healthy bound would be legal too -- but the tight
  // bound is computed from the same formulas the CoreApi charges with, so
  // the two cannot drift apart). Reads post their owner-side copy at
  // (completion - L), which needs charge >= 2L: read charges contribute at
  // half weight. O(cores^2) pure arithmetic, once per machine.
  SimTime best = SimTime::max();
  const int cores = topology.num_cores();
  for (int a = 0; a < cores; ++a) {
    const int pa = topology.partition_of(a, partitions);
    for (int b = 0; b < cores; ++b) {
      if (topology.partition_of(b, partitions) == pa) continue;
      const SimTime line_write = latency.mpb_line_access(a, b, false);
      const SimTime word_write =
          latency.mpb_word_stream(a, b, sizeof(std::uint32_t), false);
      const SimTime half_line_read =
          SimTime{latency.mpb_line_access(a, b, true).femtoseconds() / 2};
      const SimTime half_word_read = SimTime{
          latency.mpb_word_stream(a, b, sizeof(std::uint32_t), true)
              .femtoseconds() /
          2};
      best = std::min({best, line_write, word_write, half_line_read,
                       half_word_read});
    }
  }
  // Every candidate charge crosses the slab boundary at least once (reads
  // twice, hence the half weight), so the tightened bound can never fall
  // below the pure hop-transit floor.
  SCC_EXPECTS(best >= floor);
  return best;
}

}  // namespace scc::machine
