// CoreApi: the per-core "instruction set" of the simulated SCC.
//
// Every operation a simulated core performs that costs virtual time is an
// awaitable method here. Each op (a) charges latency from the cost model,
// attributed to a profiling phase, and (b) applies its functional effect to
// real storage, so the simulation is simultaneously a timing model and an
// executable implementation whose results tests can verify.
//
// Timing semantics: all operations are core-blocking -- the core's virtual
// time advances by the full charge before the next operation issues. Posted
// remote writes (data puts, flag sets) include their one-way mesh transit
// in the charge, so a value is globally visible no earlier than the
// operation's completion; this is slightly conservative and keeps the
// protocol layers free of reordering concerns (RCCE issues an MPB fence
// before flag writes on the real chip for the same reason).
//
// Core-local time: a core's time is its engine's clock plus a local offset,
// and now() returns the sum. A *private* charge -- compute, overhead,
// wait_poll, charge, priv_read, priv_write, and the detecting read that
// ends a flag_wait -- touches nothing another core can observe. It updates
// the profile, the trace interval (exact start and end) and the cache model
// at issue, adds its duration to the offset and returns an awaiter that is
// ready at once: no event, no coroutine frame. A *shared* action -- mpb_*,
// flag_set, flag_read, flag_wait, flag_wait_change, sync_barrier -- first
// syncs (one sleep for the offset), then runs at its true engine time, so
// link-contention reservations, traffic counters, deposits and reads all
// happen exactly when they would with one event per charge. The zero-cost
// flag read is awaitable too: co_await flag_peek(ref) syncs first, so no
// caller can read a flag early. mpb_window, the raw MPB view used after an
// MPB charge (which leaves the core synced), aborts on an unsynced core. A
// launched program syncs its trailing private time before it returns
// (SccMachine::launch). Every event keeps its timestamp; only the order
// among events of equal timestamp changes, and that order moves no result
// (tests/integration/test_tie_order_invariance.cpp). This is SystemC
// TLM-2.0's loosely-timed quantum keeper with a quantum of "until the next
// shared access".
#pragma once

#include <coroutine>
#include <cstddef>
#include <span>
#include <string>

#include "common/time.hpp"
#include "machine/flags.hpp"
#include "machine/profile.hpp"
#include "mem/cache.hpp"
#include "mem/cost_model.hpp"
#include "mem/latency.hpp"
#include "mem/mpb.hpp"
#include "sim/callable.hpp"
#include "sim/task.hpp"

namespace scc::sim {
class Engine;
}

namespace scc::machine {

class SccMachine;

class CoreApi {
 public:
  CoreApi(SccMachine& machine, int rank);

  CoreApi(const CoreApi&) = delete;
  CoreApi& operator=(const CoreApi&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int num_cores() const;
  /// The core's event-loop partition (0 on a serial machine).
  [[nodiscard]] int partition() const { return partition_; }
  /// The core's time: its engine's clock plus unsynced private time.
  [[nodiscard]] SimTime now() const;
  [[nodiscard]] const mem::CostModel& cost() const;
  [[nodiscard]] CoreProfile& profile() { return profile_; }
  [[nodiscard]] SccMachine& machine() { return *machine_; }

  /// What a private charge returns: already complete, so awaiting it
  /// neither suspends nor allocates.
  using Charged = std::suspend_never;

  /// Awaitable that brings the engine's clock up to the core's time: one
  /// sleep when private time is pending, ready at once otherwise. Shared
  /// actions and flag_peek do this themselves; SccMachine::launch does it
  /// for a program's trailing private time.
  struct SyncAwaiter {
    CoreApi* api;
    [[nodiscard]] bool await_ready() const noexcept {
      return api->local_ == SimTime::zero();
    }
    void await_suspend(std::coroutine_handle<> h) const { api->flush(h); }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] SyncAwaiter sync() { return SyncAwaiter{this}; }

  // --- time-only operations (private) ----------------------------------
  /// Application arithmetic: n core cycles of compute.
  [[nodiscard]] Charged compute(std::uint64_t core_cycles);
  /// Library instruction-path overhead: n core cycles.
  [[nodiscard]] Charged overhead(std::uint64_t core_cycles);
  /// Busy poll-loop cycles inside rcce_wait_until-style spin waits, charged
  /// to Phase::kFlagWait: a function-level profiler attributes them to the
  /// wait primitive even when the flag is already up (paper Section IV-A).
  /// `after_cycles` names the preceding same-site charge: the poll duration
  /// is computed as cycles(after + poll) - cycles(after) so a split charge
  /// pair sums bit-exactly to the unsplit total (Clock::cycles rounds).
  [[nodiscard]] Charged wait_poll(std::uint64_t core_cycles,
                                  std::uint64_t after_cycles = 0);
  /// Raw charge attributed to an explicit phase. Every private charge
  /// ends here: record, then add to the local offset.
  [[nodiscard]] Charged charge(Phase phase, SimTime duration);

  // --- MPB data movement (shared) --------------------------------------
  /// Copies bytes from this core's private buffer into an MPB.
  [[nodiscard]] sim::Task<> mpb_put(mem::MpbAddr dst,
                                    std::span<const std::byte> src);
  /// Copies bytes from an MPB into this core's private buffer.
  [[nodiscard]] sim::Task<> mpb_get(mem::MpbAddr src,
                                    std::span<std::byte> dst);
  /// Timing-only MPB access charge (fused kernels apply their own effect).
  [[nodiscard]] sim::Task<> mpb_charge(int mpb_owner, std::size_t bytes,
                                       bool is_read);
  /// Timing-only charge for word-granular uncached MPB streaming (the
  /// direct-reduction data path of Section IV-D).
  [[nodiscard]] sim::Task<> mpb_word_charge(int mpb_owner, std::size_t bytes,
                                            bool is_read);
  /// Fused word-granular MPB read: charges mpb_word_stream for dst.size()
  /// bytes (traffic/contention included, like mpb_word_charge) and copies
  /// them from `src` into the caller's private buffer at completion. On a
  /// serial machine this is bit-identical to the old
  /// mpb_word_charge-then-mpb_window idiom; on a partitioned machine the
  /// copy is performed by the MPB owner's partition at
  /// (completion - lookahead), which the read charge provably clears
  /// (charge >= 2 x lookahead, audited).
  [[nodiscard]] sim::Task<> mpb_word_get(mem::MpbAddr src,
                                         std::span<std::byte> dst);

  /// Fused bulk MPB write: charges mpb_bulk(write) for `bytes` (traffic/
  /// contention included, like mpb_charge), then runs `apply` -- which must
  /// perform the actual MPB stores from state it OWNS (staged copies, not
  /// borrowed pointers) -- at completion. Serial: charge then apply()
  /// inline, bit-identical to the old mpb_charge-then-mpb_window idiom.
  /// Partitioned: `apply` is posted to the MPB owner's partition at the
  /// charge's completion (>= lookahead ahead, audited).
  [[nodiscard]] sim::Task<> mpb_apply_write(int mpb_owner, std::size_t bytes,
                                            sim::SmallCallable apply);

  /// Direct functional access to MPB storage (no charge): used by fused
  /// kernels together with mpb_charge, and by tests. The core must be
  /// synced. Partition-local on a partitioned machine (audited): remote
  /// windows cannot be touched from another partition's event handler --
  /// use mpb_put/mpb_get/mpb_word_get/mpb_apply_write, which route the
  /// effect through the owner's partition.
  [[nodiscard]] std::span<std::byte> mpb_window(mem::MpbAddr addr,
                                                std::size_t bytes);

  // --- private (cacheable, off-chip) memory ----------------------------
  [[nodiscard]] Charged priv_read(const void* p, std::size_t bytes);
  [[nodiscard]] Charged priv_write(void* p, std::size_t bytes);

  // --- synchronization flags (shared) ----------------------------------
  /// Writes a flag value (local or remote MPB write + fence).
  [[nodiscard]] sim::Task<> flag_set(FlagRef ref, FlagValue value);
  /// Blocks until the flag equals `value`; charges the detecting read (the
  /// final poll iteration) as private time. Wait time and the detecting
  /// read are both attributed to Phase::kFlagWait (rcce_wait_until).
  [[nodiscard]] sim::Task<> flag_wait(FlagRef ref, FlagValue value);
  /// Blocks until the flag differs from `last_seen`; returns the new value
  /// and charges the detecting read. Used for cumulative-counter flags
  /// (e.g. the RCKMPI channel's line counters), where equality waits could
  /// miss intermediate values.
  [[nodiscard]] sim::Task<FlagValue> flag_wait_change(FlagRef ref,
                                                      FlagValue last_seen);
  /// Non-blocking probe: charges one flag read, returns current value.
  [[nodiscard]] sim::Task<FlagValue> flag_read(FlagRef ref);
  /// Zero-cost peek for simulator-internal decisions (not charged): syncs
  /// the core, then yields the flag's value at the core's time.
  struct PeekAwaiter : SyncAwaiter {
    FlagRef ref;
    [[nodiscard]] FlagValue await_resume() const {
      return api->peek_synced(ref);
    }
  };
  [[nodiscard]] PeekAwaiter flag_peek(FlagRef ref) { return {{this}, ref}; }

  // --- harness-only ------------------------------------------------------
  /// Zero-cost rendezvous of all cores; exists so experiments can align
  /// cores before timing without perturbing the measured protocol.
  [[nodiscard]] sim::Task<> sync_barrier();

 private:
  /// Profiles `duration` under `phase` and traces it from now(). `detail`
  /// annotates the traced interval (e.g. "set 3:7" on the flag-set charge
  /// so the blame engine can match waiters to their setter).
  void record(Phase phase, SimTime duration, std::string detail = {});
  /// A shared charge on a synced core: record, count its event and return
  /// the engine sleep that ends it (defined and used in core_api.cpp).
  auto charge_shared(Phase phase, SimTime duration, std::string detail = {});
  /// Sleeps `h` for the local offset and clears it; the event counts
  /// under the phase of the last private charge it closes.
  void flush(std::coroutine_handle<> h);
  /// flag_peek's read, on a synced core.
  [[nodiscard]] FlagValue peek_synced(FlagRef ref) const;
  /// The detecting read that ends a flag wait: one flag-line read plus the
  /// flag-op instruction path.
  [[nodiscard]] SimTime detect_read(FlagRef ref) const;
  /// Extra queueing delay from the optional link-contention model.
  [[nodiscard]] SimTime contention_delay(int from, int to, std::size_t bytes);
  /// True when `core` lives on another event-loop partition (always false
  /// on a serial machine).
  [[nodiscard]] bool cross_partition(int core) const;

  SccMachine* machine_;
  int rank_;
  int partition_;
  sim::Engine* engine_;  // the rank's partition engine (cached)
  CoreProfile profile_;
  SimTime local_;  // private time not yet synced to the engine
  Phase local_phase_ = Phase::kCompute;  // phase of the last private charge
};

}  // namespace scc::machine
