// Snapshot collection: walks every counter the simulator keeps and files it
// into a MetricsRegistry under stable hierarchical paths. See DESIGN.md §10
// for the path schema and the volume-type/time-type classification.
#pragma once

#include <memory>
#include <string>

#include "exec/executor.hpp"
#include "machine/scc_machine.hpp"
#include "metrics/registry.hpp"
#include "metrics/sampler.hpp"
#include "rckmpi/channel.hpp"
#include "sim/pdes.hpp"

namespace scc::metrics {

/// Snapshots one machine: engine stats, per-core profiles/caches/MPB
/// footprints, flag traffic, NoC traffic + per-link contention. Cumulative
/// over the machine's lifetime (warmup included), like the counters
/// themselves. Non-const: the accessors are non-const; nothing is mutated.
void collect_machine(machine::SccMachine& machine, MetricsRegistry& out);

/// Snapshots the RCKMPI transport counters (only meaningful for MPI runs;
/// harmless zeros otherwise) under "rckmpi/...".
void collect_channel(const rckmpi::ChannelStats& stats, MetricsRegistry& out);

/// Snapshots the PDES coordinator under "pdes/...": window/merge counters,
/// conservative-slack introspection, and per-partition drained-event counts.
/// Deliberately excludes the worker count and every host-time value --
/// collect_pdes output is byte-identical for any PdesConfig::workers, so it
/// is safe inside determinism-gated artifacts (the identity tests diff it).
/// Non-const for the partition accessor, like collect_machine; mutates
/// nothing.
void collect_pdes(sim::PdesEngine& pdes, MetricsRegistry& out);

/// Snapshots executor counters under "exec/...": rounds/tasks (work volume,
/// deterministic) and -- when the pool was instrumented -- HOST wall-clock
/// busy/park/barrier-wait time, total and per worker. The *_ns entries vary
/// run to run; never feed them into byte-identity-gated artifacts.
void collect_worker_pool(const exec::WorkerPoolStats& stats,
                         MetricsRegistry& out);

/// Registers the standard machine flight-recorder columns on `sampler`
/// (cumulative counters, same naming as the registry paths): engine event /
/// park progress, flag-wait occupancy, flag traffic, NoC volume and
/// contention, cache totals and MPB footprint summed over cores. The
/// machine must outlive the sampler's ticking (columns capture &machine).
void add_machine_columns(machine::SccMachine& machine, Sampler& sampler);

/// Starts a flight recorder labelled `label` with the standard machine
/// columns. A serial machine ticks it from its engine's probe every
/// `interval`. A partitioned machine has no single engine that owns the
/// clock, so it ticks at every PDES window barrier instead: the only
/// globally consistent instants, and a pure function of (config,
/// lookahead), so the series is the same for every worker count. Stop it
/// with detach_machine_sampler while the machine is still alive.
[[nodiscard]] std::unique_ptr<Sampler> attach_machine_sampler(
    machine::SccMachine& machine, SimTime interval, std::string label);

/// Unhooks `sampler` from `machine` and returns its series.
[[nodiscard]] TimeSeries detach_machine_sampler(machine::SccMachine& machine,
                                                Sampler& sampler);

}  // namespace scc::metrics
