#include "machine/core_api.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/string_util.hpp"
#include "machine/scc_machine.hpp"

namespace scc::machine {

CoreApi::CoreApi(SccMachine& machine, int rank)
    : machine_(&machine),
      rank_(rank),
      partition_(machine.partition_of_core(rank)),
      engine_(&machine.engine_of_core(rank)) {
  SCC_EXPECTS(rank >= 0 && rank < machine.num_cores());
}

int CoreApi::num_cores() const { return machine_->num_cores(); }

SimTime CoreApi::now() const { return engine_->now() + local_; }

const mem::CostModel& CoreApi::cost() const {
  return machine_->config().cost;
}

bool CoreApi::cross_partition(int core) const {
  return machine_->partition_of_core(core) != partition_;
}

void CoreApi::record(Phase phase, SimTime duration, std::string detail) {
  profile_.add(phase, duration);
  if (auto* trace = machine_->trace_of(partition_)) {
    const SimTime start = now();
    trace->interval(rank_, phase_name(phase), start, start + duration,
                    std::move(detail));
  }
}

CoreApi::Charged CoreApi::charge(Phase phase, SimTime duration) {
  record(phase, duration);
  local_ += duration;
  local_phase_ = phase;
  return {};
}

auto CoreApi::charge_shared(Phase phase, SimTime duration,
                            std::string detail) {
  SCC_EXPECTS(local_ == SimTime::zero());
  record(phase, duration, std::move(detail));
  profile_.note_event(phase);
  return engine_->sleep_for(duration);
}

void CoreApi::flush(std::coroutine_handle<> h) {
  profile_.note_event(local_phase_);
  engine_->schedule_resume(engine_->now() + local_, h);
  local_ = SimTime::zero();
}

CoreApi::Charged CoreApi::compute(std::uint64_t core_cycles) {
  return charge(Phase::kCompute,
                machine_->latency().core_cycles(core_cycles, rank_));
}

CoreApi::Charged CoreApi::overhead(std::uint64_t core_cycles) {
  return charge(Phase::kSwOverhead,
                machine_->latency().core_cycles(core_cycles, rank_));
}

CoreApi::Charged CoreApi::wait_poll(std::uint64_t core_cycles,
                                    std::uint64_t after_cycles) {
  const auto& latency = machine_->latency();
  return charge(
      Phase::kFlagWait,
      latency.core_cycles(after_cycles + core_cycles, rank_) -
          latency.core_cycles(after_cycles, rank_));
}

SimTime CoreApi::contention_delay(int from, int to, std::size_t bytes) {
  if (!cost().hw.model_link_contention || from == to) return SimTime::zero();
  return machine_->charge_contention(from, to, mem::lines_for(bytes),
                                     engine_->now(), partition_);
}

sim::Task<> CoreApi::mpb_put(mem::MpbAddr dst,
                             std::span<const std::byte> src) {
  co_await sync();
  SimTime t =
      machine_->latency().mpb_bulk(rank_, dst.core, src.size(), /*is_read=*/false);
  if (dst.core != rank_) {
    machine_->traffic_of(partition_).record_transfer(rank_, dst.core,
                                                     mem::lines_for(src.size()));
    t += contention_delay(rank_, dst.core, src.size());
  }
  if (cross_partition(dst.core)) {
    // The functional store lands on the owner's partition exactly at this
    // charge's completion. The bytes are staged NOW (the caller is blocked
    // for the whole charge, so issue-time and completion-time contents are
    // the same core-visible value) because the source span may point at
    // stack memory the posted callable would outlive.
    SCC_EXPECTS(t >= machine_->pdes().lookahead());
    std::vector<std::byte> staged(src.begin(), src.end());
    machine_->pdes().post(
        partition_, machine_->partition_of_core(dst.core), now() + t,
        sim::SmallCallable(
            [m = machine_, dst, staged = std::move(staged)] {
              m->mpb().write(dst, staged);
            }));
    co_await charge_shared(Phase::kMpbTransfer, t);
    co_return;
  }
  co_await charge_shared(Phase::kMpbTransfer, t);
  machine_->mpb().write(dst, src);
}

sim::Task<> CoreApi::mpb_get(mem::MpbAddr src, std::span<std::byte> dst) {
  co_await sync();
  SimTime t =
      machine_->latency().mpb_bulk(rank_, src.core, dst.size(), /*is_read=*/true);
  if (src.core != rank_) {
    machine_->traffic_of(partition_).record_transfer(src.core, rank_,
                                                     mem::lines_for(dst.size()));
    t += contention_delay(src.core, rank_, dst.size());
  }
  if (cross_partition(src.core)) {
    // Remote read: the owner's partition copies the bytes out at
    // (completion - lookahead). A read charge pays the boundary twice
    // (request + reply), so completion - lookahead is itself >= lookahead
    // ahead of now -- the copy-post honours the conservative contract
    // (audited) -- and the window barrier between the copy and this core's
    // resume at completion is the happens-before edge that makes the dst
    // buffer safely visible.
    const SimTime lookahead = machine_->pdes().lookahead();
    SCC_EXPECTS(t >= lookahead + lookahead);
    machine_->pdes().post(
        partition_, machine_->partition_of_core(src.core),
        now() + t - lookahead,
        sim::SmallCallable([m = machine_, src, dst] { m->mpb().read(src, dst); }));
    co_await charge_shared(Phase::kMpbTransfer, t);
    co_return;
  }
  co_await charge_shared(Phase::kMpbTransfer, t);
  machine_->mpb().read(src, dst);
}

sim::Task<> CoreApi::mpb_charge(int mpb_owner, std::size_t bytes,
                                bool is_read) {
  co_await sync();
  SimTime t = machine_->latency().mpb_bulk(rank_, mpb_owner, bytes, is_read);
  if (mpb_owner != rank_) {
    const int from = is_read ? mpb_owner : rank_;
    const int to = is_read ? rank_ : mpb_owner;
    machine_->traffic_of(partition_).record_transfer(from, to,
                                                     mem::lines_for(bytes));
    t += contention_delay(from, to, bytes);
  }
  co_await charge_shared(Phase::kMpbTransfer, t);
}

sim::Task<> CoreApi::mpb_word_charge(int mpb_owner, std::size_t bytes,
                                     bool is_read) {
  co_await sync();
  SimTime t =
      machine_->latency().mpb_word_stream(rank_, mpb_owner, bytes, is_read);
  if (mpb_owner != rank_) {
    const int from = is_read ? mpb_owner : rank_;
    const int to = is_read ? rank_ : mpb_owner;
    machine_->traffic_of(partition_).record_transfer(from, to,
                                                     mem::lines_for(bytes));
    t += contention_delay(from, to, bytes);
  }
  co_await charge_shared(Phase::kMpbTransfer, t);
}

sim::Task<> CoreApi::mpb_word_get(mem::MpbAddr src, std::span<std::byte> dst) {
  co_await sync();
  SimTime t = machine_->latency().mpb_word_stream(rank_, src.core, dst.size(),
                                                  /*is_read=*/true);
  if (src.core != rank_) {
    machine_->traffic_of(partition_).record_transfer(src.core, rank_,
                                                     mem::lines_for(dst.size()));
    t += contention_delay(src.core, rank_, dst.size());
  }
  if (cross_partition(src.core)) {
    // Same owner-side copy-out protocol as the cross-partition mpb_get;
    // word-stream reads also pay the boundary both ways, so the half-
    // weighted lookahead derivation covers this charge too.
    const SimTime lookahead = machine_->pdes().lookahead();
    SCC_EXPECTS(t >= lookahead + lookahead);
    machine_->pdes().post(
        partition_, machine_->partition_of_core(src.core),
        now() + t - lookahead,
        sim::SmallCallable([m = machine_, src, dst] { m->mpb().read(src, dst); }));
    co_await charge_shared(Phase::kMpbTransfer, t);
    co_return;
  }
  co_await charge_shared(Phase::kMpbTransfer, t);
  machine_->mpb().read(src, dst);
}

sim::Task<> CoreApi::mpb_apply_write(int mpb_owner, std::size_t bytes,
                                     sim::SmallCallable apply) {
  SCC_EXPECTS(static_cast<bool>(apply));
  co_await sync();
  SimTime t = machine_->latency().mpb_bulk(rank_, mpb_owner, bytes,
                                           /*is_read=*/false);
  if (mpb_owner != rank_) {
    machine_->traffic_of(partition_).record_transfer(rank_, mpb_owner,
                                                     mem::lines_for(bytes));
    t += contention_delay(rank_, mpb_owner, bytes);
  }
  if (cross_partition(mpb_owner)) {
    SCC_EXPECTS(t >= machine_->pdes().lookahead());
    machine_->pdes().post(partition_, machine_->partition_of_core(mpb_owner),
                          now() + t, std::move(apply));
    co_await charge_shared(Phase::kMpbTransfer, t);
    co_return;
  }
  co_await charge_shared(Phase::kMpbTransfer, t);
  apply();
}

std::span<std::byte> CoreApi::mpb_window(mem::MpbAddr addr,
                                         std::size_t bytes) {
  // Raw shared storage: read or written at the core's true time only, and
  // on a partitioned machine only by the owning slab.
  SCC_EXPECTS(local_ == SimTime::zero());
  SCC_EXPECTS(!cross_partition(addr.core));
  return machine_->mpb().range(addr, bytes);
}

namespace {
// Charges are normalized to whole cache lines starting at the pointer's
// line so the line COUNT depends only on the byte count, never on where
// the host allocator placed the buffer (run-to-run determinism).
std::uintptr_t norm_base(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) & ~std::uintptr_t{mem::kCacheLineBytes - 1};
}
std::size_t norm_bytes(std::size_t bytes) {
  return mem::lines_for(bytes) * mem::kCacheLineBytes;
}
}  // namespace

CoreApi::Charged CoreApi::priv_read(const void* p, std::size_t bytes) {
  const auto result =
      machine_->cache(rank_).touch_read(norm_base(p), norm_bytes(bytes));
  return charge(Phase::kPrivMem,
                machine_->latency().priv_access(rank_, result));
}

CoreApi::Charged CoreApi::priv_write(void* p, std::size_t bytes) {
  const auto result =
      machine_->cache(rank_).touch_write(norm_base(p), norm_bytes(bytes));
  return charge(Phase::kPrivMem,
                machine_->latency().priv_access(rank_, result));
}

sim::Task<> CoreApi::flag_set(FlagRef ref, FlagValue value) {
  co_await sync();
  SimTime t =
      machine_->latency().mpb_line_access(rank_, ref.owner_core,
                                          /*is_read=*/false) +
      machine_->latency().core_cycles(cost().sw.flag_op, rank_);
  t += contention_delay(rank_, ref.owner_core, 1);
  // The deposit lands at the END of this charge; the "set c:i" detail lets
  // the blame engine pair a waiter's wakeup with the setting core (the
  // waiter's wait interval ends exactly when this interval does).
  std::string detail;
  if (machine_->trace_of(partition_) != nullptr) {
    detail = strprintf("set %d:%d", ref.owner_core, ref.index);
  }
  if (cross_partition(ref.owner_core)) {
    // The deposit is the flag's functional effect: it must execute on the
    // owner's partition (whose engine the flag's wait queue is bound to).
    // Its remote-line-write charge clears the lookahead contract (audited).
    SCC_EXPECTS(t >= machine_->pdes().lookahead());
    machine_->pdes().post(
        partition_, machine_->partition_of_core(ref.owner_core), now() + t,
        sim::SmallCallable(
            [m = machine_, ref, value] { m->flags().deposit(ref, value); }));
    co_await charge_shared(Phase::kFlagOp, t, std::move(detail));
    co_return;
  }
  co_await charge_shared(Phase::kFlagOp, t, std::move(detail));
  machine_->flags().deposit(ref, value);
}

SimTime CoreApi::detect_read(FlagRef ref) const {
  return machine_->latency().mpb_line_access(rank_, ref.owner_core,
                                             /*is_read=*/true) +
         machine_->latency().core_cycles(cost().sw.flag_op, rank_);
}

sim::Task<> CoreApi::flag_wait(FlagRef ref, FlagValue value) {
  // Waits are partition-local by protocol design: every stack waits only
  // on flags in its OWN MPB (the RCCE discipline). A cross-partition wait
  // would read remote state without paying the mesh -- forbidden.
  SCC_EXPECTS(!cross_partition(ref.owner_core));
  co_await sync();
  auto& flags = machine_->flags();
  const SimTime start = now();
  while (flags.value(ref) != value) {
    co_await flags.waiters(ref).wait();
  }
  profile_.add(Phase::kFlagWait, now() - start);
  if (auto* trace = machine_->trace_of(partition_)) {
    trace->interval(rank_, phase_name(Phase::kFlagWait), start, now(),
                    strprintf("flag %d:%d", ref.owner_core, ref.index));
  }
  // The read that detects the value: the final poll iteration of
  // wait_until, so it profiles as wait time, not as a standalone flag op.
  // The value is already seen, so its time is private.
  co_await charge(Phase::kFlagWait, detect_read(ref));
}

sim::Task<FlagValue> CoreApi::flag_wait_change(FlagRef ref,
                                               FlagValue last_seen) {
  SCC_EXPECTS(!cross_partition(ref.owner_core));
  co_await sync();
  auto& flags = machine_->flags();
  const SimTime start = now();
  while (flags.value(ref) == last_seen) {
    co_await flags.waiters(ref).wait();
  }
  profile_.add(Phase::kFlagWait, now() - start);
  if (auto* trace = machine_->trace_of(partition_)) {
    trace->interval(rank_, phase_name(Phase::kFlagWait), start, now(),
                    strprintf("flag %d:%d", ref.owner_core, ref.index));
  }
  // The returned value is read at the end of the detecting read, so that
  // read stays shared.
  co_await charge_shared(Phase::kFlagWait, detect_read(ref));
  co_return machine_->flags().value(ref);
}

sim::Task<FlagValue> CoreApi::flag_read(FlagRef ref) {
  SCC_EXPECTS(!cross_partition(ref.owner_core));
  co_await sync();
  const SimTime t = machine_->latency().mpb_line_access(rank_, ref.owner_core,
                                                        /*is_read=*/true);
  co_await charge_shared(Phase::kFlagOp, t);
  co_return machine_->flags().value(ref);
}

FlagValue CoreApi::peek_synced(FlagRef ref) const {
  SCC_EXPECTS(local_ == SimTime::zero());
  SCC_EXPECTS(!cross_partition(ref.owner_core));
  return machine_->flags().value(ref);
}

sim::Task<> CoreApi::sync_barrier() {
  co_await sync();
  auto& barrier = machine_->harness_barrier(partition_);
  if (machine_->partitions() == 1) {
    // Serial machine: the exact pre-PDES inline-release path (the last
    // arriver releases everyone at its own arrival instant).
    const std::uint64_t my_generation = barrier.generation;
    if (++barrier.arrived == num_cores()) {
      barrier.arrived = 0;
      ++barrier.generation;
      barrier.queue.notify_all();
      co_return;
    }
    while (barrier.generation == my_generation) {
      co_await barrier.queue.wait();
    }
    co_return;
  }
  // Partitioned: every arriver parks on its own shard. The barrier has no
  // mesh latency of its own, so it cannot be expressed as lookahead-
  // respecting posts; instead the PDES quiescence hook releases every
  // shard at the deterministic global release instant once all cores have
  // arrived and the mesh has drained
  // (SccMachine::release_harness_barrier).
  const std::uint64_t my_generation = barrier.generation;
  ++barrier.arrived;
  barrier.last_arrival = std::max(barrier.last_arrival, now());
  while (barrier.generation == my_generation) {
    co_await barrier.queue.wait();
  }
}

}  // namespace scc::machine
