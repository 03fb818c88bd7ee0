// SccMachine: one simulated Single-Chip Cloud Computer.
//
// Owns the event engine(s), topology, MPB storage, flag file, per-core
// cache models and CoreApi handles. Programs are coroutines launched per
// core; run() drives the event loop to completion.
//
// The machine is built over a sim::PdesEngine (DESIGN.md §16). With
// config.pdes_workers == 0 it degenerates to a single partition whose one
// engine drains serially -- bit-identical to the pre-PDES machine. With
// pdes_workers >= 1 the machine shards into tiles_x column-slab partitions
// (Topology::partition_of) drained by min(workers, tiles_x) host threads
// under the conservative window protocol. Mutable state is sharded by
// partition -- per-core caches, profiles and CoreApi are partition-local
// already; flags, traffic, contention and the harness barrier are sharded
// here -- and every cross-partition interaction flows through
// PdesEngine::post under the machine::pdes_lookahead contract.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "faults/fault_model.hpp"
#include "machine/config.hpp"
#include "machine/core_api.hpp"
#include "machine/flags.hpp"
#include "mem/cache.hpp"
#include "mem/latency.hpp"
#include "mem/mpb.hpp"
#include "noc/contention.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"
#include "sim/engine.hpp"
#include "sim/pdes.hpp"

namespace scc::machine {

class SccMachine {
 public:
  explicit SccMachine(SccConfig config = SccConfig::paper_default());

  SccMachine(const SccMachine&) = delete;
  SccMachine& operator=(const SccMachine&) = delete;

  [[nodiscard]] const SccConfig& config() const { return config_; }
  [[nodiscard]] int num_cores() const { return topology_.num_cores(); }

  /// Event-loop partitions: 1 on a serial machine (pdes_workers == 0),
  /// tiles_x otherwise (fixed independent of the worker count, so every
  /// worker count produces the identical schedule).
  [[nodiscard]] int partitions() const { return partitions_; }
  [[nodiscard]] sim::PdesEngine& pdes() { return pdes_; }

  /// The serial machine's engine (partition 0). On a partitioned machine
  /// this is only partition 0's clock/heap -- machine-wide questions go
  /// through events_processed() / engine_stats() / now().
  [[nodiscard]] sim::Engine& engine() { return pdes_.partition(0); }

  [[nodiscard]] int partition_of_core(int core) const {
    SCC_EXPECTS(core >= 0 && core < num_cores());
    return core_partition_[static_cast<std::size_t>(core)];
  }
  [[nodiscard]] sim::Engine& engine_of_core(int core) {
    return pdes_.partition(partition_of_core(core));
  }

  /// Machine-level aggregates (sums/maxima over partitions; on a serial
  /// machine exactly the single engine's counters).
  [[nodiscard]] std::uint64_t events_processed() const {
    return pdes_.events_processed();
  }
  [[nodiscard]] sim::EngineStats engine_stats() const {
    return pdes_.aggregated_stats();
  }
  [[nodiscard]] SimTime now() const { return pdes_.now(); }

  [[nodiscard]] const noc::Topology& topology() const { return topology_; }
  [[nodiscard]] mem::MpbStorage& mpb() { return mpb_; }
  [[nodiscard]] FlagFile& flags() { return flags_; }

  /// Partition 0's traffic shard (the whole matrix on a serial machine;
  /// serial tests use this). Reporting goes through merged_traffic().
  [[nodiscard]] noc::TrafficMatrix& traffic() { return traffic_.front(); }
  [[nodiscard]] noc::TrafficMatrix& traffic_of(int partition) {
    return traffic_[static_cast<std::size_t>(partition)];
  }
  /// All partitions' traffic summed into one matrix (pure counter sums, so
  /// the merged totals equal a serial machine's single matrix exactly).
  [[nodiscard]] noc::TrafficMatrix merged_traffic() const;

  /// Partition 0's contention shard (the whole model on a serial machine).
  [[nodiscard]] noc::LinkContention& contention() {
    return contention_.front();
  }
  [[nodiscard]] noc::LinkContention& contention_of(int partition) {
    return contention_[static_cast<std::size_t>(partition)];
  }
  /// Per-link stats merged across partition shards by link name (sums;
  /// max_queue is a max). Serial: exactly the single shard's stats.
  [[nodiscard]] std::vector<std::pair<std::string, noc::LinkStats>>
  merged_link_stats() const;
  [[nodiscard]] SimTime contention_total_delay() const;
  [[nodiscard]] std::uint64_t contention_delayed_transfers() const;

  /// Full contention charge for one transfer, sharded by link ownership:
  /// links owned by `source_partition` occupy synchronously (their queueing
  /// feeds back into the returned delay); links owned by another slab are
  /// cross-posted as absorb()s at max(arrival, now + lookahead) -- merged
  /// deterministically at the window barrier, but contributing no delay to
  /// this transfer (a remote shard's busy horizon is unreadable inside a
  /// conservative window). Serial machines take the exact occupy() path.
  SimTime charge_contention(int from, int to, std::uint64_t lines,
                            SimTime now, int source_partition);

  [[nodiscard]] const mem::LatencyCalculator& latency() const {
    return latency_;
  }
  /// The compiled fault model, or nullptr on a healthy machine
  /// (config.faults empty).
  [[nodiscard]] const faults::FaultModel* fault_model() const {
    return fault_model_ ? &*fault_model_ : nullptr;
  }
  [[nodiscard]] CoreApi& core(int rank) {
    SCC_EXPECTS(rank >= 0 && rank < num_cores());
    return *cores_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] mem::CacheModel& cache(int rank) {
    SCC_EXPECTS(rank >= 0 && rank < num_cores());
    return caches_[static_cast<std::size_t>(rank)];
  }

  /// Registers `program` to start on core `rank` at the current time (on
  /// the rank's partition engine). When it returns, the core syncs its
  /// trailing private time (core_api.hpp), so the run ends at its time.
  void launch(int rank, sim::Task<> program);

  /// Runs until every launched program finishes. Throws on deadlock.
  void run();

  /// Like run(), but returns false on deadlock instead of throwing.
  [[nodiscard]] bool run_detect_deadlock();

  /// Drops all private-memory cache contents (cold-start experiments).
  void flush_caches();

  /// Attaches a trace recorder (nullptr detaches). Serial: propagated to
  /// the engine and contention model directly. Partitioned: the machine
  /// creates one private recorder per partition (same capacity) so workers
  /// record race-free, and splices them into `recorder` in partition order
  /// when the run finishes -- deterministic for any worker count. Purely
  /// observational either way: traced and untraced runs have identical
  /// virtual timing.
  void attach_trace(trace::Recorder* recorder);
  [[nodiscard]] trace::Recorder* trace() const { return trace_; }
  /// Where a partition's events record: the caller's recorder on a serial
  /// machine, the partition's private recorder otherwise (CoreApi uses
  /// this; nullptr when no recorder is attached).
  [[nodiscard]] trace::Recorder* trace_of(int partition) {
    if (partitions_ == 1) return trace_;
    return trace_ ? part_trace_[static_cast<std::size_t>(partition)].get()
                  : nullptr;
  }

  struct HarnessBarrier {
    explicit HarnessBarrier(sim::Engine& e) : queue(e) {}
    int arrived = 0;
    std::uint64_t generation = 0;
    /// Latest arrival time seen by this shard; the partitioned release
    /// fires at the max over shards (the serial inline path never reads
    /// it).
    SimTime last_arrival;
    sim::WaitQueue queue;
  };
  [[nodiscard]] HarnessBarrier& harness_barrier(int partition) {
    return barrier_[static_cast<std::size_t>(partition)];
  }

 private:
  /// PdesEngine quiescence hook: when every core has arrived at the
  /// harness barrier, schedules the generation release on every partition
  /// at the deterministic global release time (max arrival/clock), and
  /// reports that more work was scheduled.
  bool release_harness_barrier();
  void splice_traces();

  SccConfig config_;
  noc::Topology topology_;
  /// Compiled from config_.faults; disengaged when the spec is empty so the
  /// healthy machine takes exactly the pre-fault code paths. Declared (and
  /// therefore built) before latency_, which captures a pointer to it.
  std::optional<faults::FaultModel> fault_model_;
  mem::LatencyCalculator latency_;
  int partitions_;
  sim::PdesEngine pdes_;
  std::vector<int> core_partition_;
  mem::MpbStorage mpb_;
  FlagFile flags_;
  std::vector<noc::TrafficMatrix> traffic_;      // one shard per partition
  std::vector<noc::LinkContention> contention_;  // one shard per partition
  std::vector<mem::CacheModel> caches_;
  std::vector<std::unique_ptr<CoreApi>> cores_;
  std::vector<HarnessBarrier> barrier_;  // one shard per partition
  trace::Recorder* trace_ = nullptr;
  std::vector<std::unique_ptr<trace::Recorder>> part_trace_;
};

/// Launches the same program factory on every core (SPMD style) -- the
/// factory receives the core's CoreApi and must return that core's program.
void launch_spmd(SccMachine& machine,
                 const std::function<sim::Task<>(CoreApi&)>& factory);

/// Conservative-PDES lookahead for a mesh partitioned into
/// Topology::partition_of column slabs: a lower bound L on the "post
/// distance" of every cross-partition interaction the machine performs,
/// computed through the FAULT-EFFECTIVE latency calculator so degraded
/// meshes widen (never violate) the bound. Writes (data puts, flag sets,
/// bulk applies) post their effect a full charge ahead, so L must lower-
/// bound every remote write charge; reads post the owner-side copy at
/// (completion - L), which needs charge >= 2L, so read charges enter the
/// minimum at half weight:
///
///   L = min over cross-slab core pairs (a,b) of
///         min( line_write(a,b), word_write4(a,b),
///              line_read(a,b)/2, word_read4(a,b)/2 )
///
/// Every candidate includes at least one boundary hop, so L >= the pure
/// hop-transit floor (min_hop_transit x slab separation) -- asserted, and
/// the floor is returned directly for partitions <= 1 (no boundary; keeps
/// PdesConfig::lookahead positive).
[[nodiscard]] SimTime pdes_lookahead(const mem::LatencyCalculator& latency,
                                     const noc::Topology& topology,
                                     int partitions);

}  // namespace scc::machine
