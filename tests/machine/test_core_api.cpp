#include "machine/core_api.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "machine/scc_machine.hpp"
#include "trace/recorder.hpp"

namespace scc::machine {
namespace {

SccConfig small_config() {
  SccConfig config;
  config.tiles_x = 2;
  config.tiles_y = 2;
  return config;  // 8 cores
}

sim::Task<> compute_program(CoreApi& api, std::uint64_t cycles,
                            SimTime* elapsed) {
  const SimTime start = api.now();
  co_await api.compute(cycles);
  *elapsed = api.now() - start;
}

TEST(CoreApi, ComputeAdvancesTimeByCoreCycles) {
  SccMachine machine(small_config());
  SimTime elapsed;
  machine.launch(0, compute_program(machine.core(0), 533, &elapsed));
  machine.run();
  EXPECT_NEAR(elapsed.us(), 1.0, 1e-6);  // 533 cycles at 533 MHz = 1 us
}

TEST(CoreApi, ComputeAttributedToProfile) {
  SccMachine machine(small_config());
  SimTime elapsed;
  machine.launch(0, compute_program(machine.core(0), 1000, &elapsed));
  machine.run();
  EXPECT_EQ(machine.core(0).profile().get(Phase::kCompute), elapsed);
  EXPECT_EQ(machine.core(0).profile().get(Phase::kSwOverhead),
            SimTime::zero());
}

sim::Task<> put_get_program(CoreApi& api, std::vector<std::byte>* out) {
  std::vector<std::byte> data(64);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i);
  co_await api.mpb_put({3, 128}, data);
  out->resize(64);
  co_await api.mpb_get({3, 128}, *out);
}

TEST(CoreApi, MpbPutGetMovesRealBytes) {
  SccMachine machine(small_config());
  std::vector<std::byte> out;
  machine.launch(0, put_get_program(machine.core(0), &out));
  machine.run();
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<std::byte>(i));
  EXPECT_GT(machine.core(0).profile().get(Phase::kMpbTransfer),
            SimTime::zero());
}

TEST(CoreApi, RemoteMpbTrafficRecorded) {
  SccMachine machine(small_config());
  std::vector<std::byte> out;
  machine.launch(0, put_get_program(machine.core(0), &out));
  machine.run();
  // Core 0 -> core 3's MPB (different tile): 2 lines each way.
  EXPECT_EQ(machine.traffic().total_lines_sent(), 4u);
}

sim::Task<> flag_producer(CoreApi& api, FlagRef ref) {
  co_await api.compute(1000);
  co_await api.flag_set(ref, 1);
}

sim::Task<> flag_consumer(CoreApi& api, FlagRef ref, SimTime* when) {
  co_await api.flag_wait(ref, 1);
  *when = api.now();
}

TEST(CoreApi, FlagWaitBlocksUntilSet) {
  SccMachine machine(small_config());
  const FlagRef ref{1, 0};
  SimTime when;
  machine.launch(0, flag_producer(machine.core(0), ref));
  machine.launch(1, flag_consumer(machine.core(1), ref, &when));
  machine.run();
  // Consumer finished only after the producer's 1000 compute cycles plus
  // the flag write and detection charges.
  EXPECT_GT(when, Clock{533e6}.cycles(1000));
  EXPECT_GT(machine.core(1).profile().get(Phase::kFlagWait), SimTime::zero());
}

sim::Task<> wait_change_program(CoreApi& api, FlagRef ref, FlagValue* seen) {
  *seen = co_await api.flag_wait_change(ref, 0);
}

TEST(CoreApi, FlagWaitChangeReturnsNewValue) {
  SccMachine machine(small_config());
  const FlagRef ref{1, 3};
  FlagValue seen = 0;
  machine.launch(1, wait_change_program(machine.core(1), ref, &seen));
  machine.launch(0, flag_producer(machine.core(0), ref));
  machine.run();
  EXPECT_EQ(seen, 1);
}

sim::Task<> priv_toucher(CoreApi& api, const std::vector<double>* buf,
                         SimTime* cold, SimTime* warm) {
  SimTime t0 = api.now();
  co_await api.priv_read(buf->data(), buf->size() * sizeof(double));
  *cold = api.now() - t0;
  t0 = api.now();
  co_await api.priv_read(buf->data(), buf->size() * sizeof(double));
  *warm = api.now() - t0;
}

TEST(CoreApi, PrivateMemoryCachesAfterFirstTouch) {
  // The paper's Section IV-D argument: only the first access goes off-chip.
  SccMachine machine(small_config());
  std::vector<double> buf(256);
  SimTime cold, warm;
  machine.launch(0, priv_toucher(machine.core(0), &buf, &cold, &warm));
  machine.run();
  EXPECT_GT(cold, warm * 2);
}

sim::Task<> barrier_program(CoreApi& api, std::uint64_t pre_cycles,
                            SimTime* after) {
  co_await api.compute(pre_cycles);
  co_await api.sync_barrier();
  *after = api.now();
}

TEST(CoreApi, SyncBarrierAlignsAllCores) {
  SccMachine machine(small_config());
  const int p = machine.num_cores();
  std::vector<SimTime> after(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    machine.launch(r, barrier_program(machine.core(r),
                                      static_cast<std::uint64_t>(r) * 100,
                                      &after[static_cast<std::size_t>(r)]));
  }
  machine.run();
  for (int r = 1; r < p; ++r)
    EXPECT_EQ(after[static_cast<std::size_t>(r)], after[0]);
  // All resumed at the slowest core's arrival time.
  EXPECT_EQ(after[0], Clock{533e6}.cycles(static_cast<std::uint64_t>(p - 1) * 100));
}

// --- core-local time -----------------------------------------------------

SimTime cycles(std::uint64_t n) { return Clock{533e6}.cycles(n); }

sim::Task<> private_burst(CoreApi& api, SccMachine* m,
                          std::uint64_t* events_during, SimTime* elapsed,
                          SimTime* ahead) {
  std::vector<double> buf(64);
  const std::uint64_t before = m->events_processed();
  const SimTime t0 = api.now();
  co_await api.compute(1000);
  co_await api.overhead(500);
  co_await api.priv_read(buf.data(), buf.size() * sizeof(double));
  co_await api.priv_write(buf.data(), buf.size() * sizeof(double));
  co_await api.wait_poll(10);
  co_await api.charge(Phase::kFlagOp, SimTime::from_ns(7.0));
  *events_during = m->events_processed() - before;
  *elapsed = api.now() - t0;
  *ahead = api.now() - m->engine().now();
}

TEST(CoreLocalTime, PrivateChargesScheduleNoEventButAdvanceNow) {
  SccMachine machine(small_config());
  std::uint64_t events_during = 1;
  SimTime elapsed, ahead;
  machine.launch(0, private_burst(machine.core(0), &machine, &events_during,
                                  &elapsed, &ahead));
  machine.run();
  EXPECT_EQ(events_during, 0u);
  EXPECT_GT(elapsed, cycles(1500));
  // All of it ran ahead of the engine's clock, and all of it is profiled.
  EXPECT_EQ(ahead, elapsed);
  EXPECT_EQ(machine.core(0).profile().total(), elapsed);
}

TEST(CoreLocalTime, TrailingPrivateTimeSyncsAtProgramEnd) {
  SccMachine machine(small_config());
  SimTime elapsed;
  machine.launch(0, compute_program(machine.core(0), 1000, &elapsed));
  machine.run();
  // One event starts the program, one sync ends it on the core's time.
  EXPECT_EQ(machine.events_processed(), 2u);
  EXPECT_EQ(machine.now(), cycles(1000));
  EXPECT_EQ(machine.core(0).now(), cycles(1000));
  EXPECT_EQ(machine.core(0).profile().events(Phase::kCompute), 1u);
}

sim::Task<> private_then_set(CoreApi& api, FlagRef ref) {
  std::vector<double> buf(8);
  co_await api.compute(100);
  co_await api.overhead(100);
  co_await api.priv_read(buf.data(), buf.size() * sizeof(double));
  co_await api.flag_set(ref, 1);
}

TEST(CoreLocalTime, OneSyncCountsUnderTheLastPrivatePhase) {
  SccMachine machine(small_config());
  machine.launch(0, private_then_set(machine.core(0), FlagRef{1, 0}));
  machine.run();
  const CoreProfile& prof = machine.core(0).profile();
  EXPECT_EQ(prof.events(Phase::kCompute), 0u);
  EXPECT_EQ(prof.events(Phase::kSwOverhead), 0u);
  EXPECT_EQ(prof.events(Phase::kPrivMem), 1u);  // the sync
  EXPECT_EQ(prof.events(Phase::kFlagOp), 1u);   // the set itself
  EXPECT_GT(prof.get(Phase::kCompute), SimTime::zero());
  EXPECT_GT(prof.get(Phase::kSwOverhead), SimTime::zero());
}

// Reads: core 0 publishes a flag and MPB bytes early; core 1 runs far ahead
// on private time, then reads. Each read must sync first and see the
// published state, which an unsynced read at the engine's clock (0) would
// miss.
sim::Task<> publish(CoreApi& api, std::vector<std::byte>* data) {
  co_await api.mpb_put({1, 256}, *data);
  co_await api.flag_set(FlagRef{1, 0}, 1);
}

struct ReadProbe {
  FlagValue read = 0;
  FlagValue changed = 0;
  FlagValue peeked = 0;
  std::vector<std::byte> got = std::vector<std::byte>(32);
  SimTime wait_profiled;
  SimTime wait_elapsed;
};

sim::Task<> read_late(CoreApi& api, ReadProbe* out) {
  const FlagRef ref{1, 0};
  co_await api.compute(50000);
  out->read = co_await api.flag_read(ref);
  co_await api.compute(10);
  out->changed = co_await api.flag_wait_change(ref, 0);
  co_await api.compute(10);
  const SimTime before_wait = api.profile().get(Phase::kFlagWait);
  const SimTime t0 = api.now();
  co_await api.flag_wait(ref, 1);
  out->wait_elapsed = api.now() - t0;
  out->wait_profiled = api.profile().get(Phase::kFlagWait) - before_wait;
  co_await api.compute(10);
  co_await api.mpb_get({1, 256}, out->got);
  co_await api.compute(10);
  out->peeked = co_await api.flag_peek(ref);
}

TEST(CoreLocalTime, ReadsAndWaitsSyncFirst) {
  SccMachine machine(small_config());
  std::vector<std::byte> data(32);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i + 1);
  ReadProbe probe;
  machine.launch(0, publish(machine.core(0), &data));
  machine.launch(1, read_late(machine.core(1), &probe));
  machine.run();
  EXPECT_EQ(probe.read, 1);
  EXPECT_EQ(probe.changed, 1);
  EXPECT_EQ(probe.peeked, 1);
  EXPECT_EQ(probe.got, data);
  // The flag was up at the synced instant: no park, only the detecting
  // read was charged.
  EXPECT_EQ(probe.wait_elapsed, probe.wait_profiled);
  EXPECT_LT(probe.wait_elapsed, cycles(1000));
  EXPECT_EQ(machine.engine_stats().parks, 0u);
}

// flag_peek is the first read of its program: only its own sync brings
// the flag's deposit into view.
sim::Task<> peek_late(CoreApi& api, SccMachine* m, FlagValue* peeked,
                      bool* synced) {
  co_await api.compute(50000);
  *peeked = co_await api.flag_peek(FlagRef{1, 0});
  *synced = m->engine().now() == api.now();
}

TEST(CoreLocalTime, PeekSyncsFirst) {
  SccMachine machine(small_config());
  std::vector<std::byte> data(32);
  FlagValue peeked = 0;
  bool synced = false;
  machine.launch(0, publish(machine.core(0), &data));
  machine.launch(1, peek_late(machine.core(1), &machine, &peeked, &synced));
  machine.run();
  EXPECT_EQ(peeked, 1);
  EXPECT_TRUE(synced);
}

// Writes: the effect lands at the core's time, not at the engine's clock
// when the action was issued.
sim::Task<> wait_and_stamp(CoreApi& api, SccMachine* m, FlagRef ref,
                           SimTime* woke) {
  co_await api.flag_wait(ref, 1);
  *woke = m->engine().now();
}

struct WriteProbe {
  SimTime set_issued;
  SimTime set_done;
  SimTime apply_issued;
  SimTime apply_done;
  SimTime applied_at;
  SimTime after_charges;
};

sim::Task<> write_late(CoreApi& api, SccMachine* m, WriteProbe* out) {
  co_await api.compute(5000);
  out->set_issued = api.now();
  co_await api.flag_set(FlagRef{0, 0}, 1);
  out->set_done = api.now();
  co_await api.compute(100);
  out->apply_issued = api.now();
  co_await api.mpb_apply_write(
      0, 64, sim::SmallCallable([m, out] { out->applied_at = m->engine().now(); }));
  out->apply_done = api.now();
  co_await api.compute(100);
  const SimTime t0 = api.now();
  co_await api.mpb_charge(0, 64, /*is_read=*/true);
  co_await api.compute(100);
  co_await api.mpb_word_charge(0, 64, /*is_read=*/false);
  // Each charge synced before it ran and left the core synced.
  EXPECT_EQ(m->engine().now(), api.now());
  out->after_charges = api.now() - t0;
}

TEST(CoreLocalTime, WritesSyncFirst) {
  SccMachine machine(small_config());
  SimTime woke;
  WriteProbe probe;
  machine.launch(0, wait_and_stamp(machine.core(0), &machine, FlagRef{0, 0},
                                   &woke));
  machine.launch(1, write_late(machine.core(1), &machine, &probe));
  machine.run();
  EXPECT_GT(probe.set_issued, cycles(4999));
  EXPECT_EQ(woke, probe.set_done);  // the deposit landed at the core's time
  EXPECT_GT(probe.apply_issued, probe.set_done);
  EXPECT_EQ(probe.applied_at, probe.apply_done);
  EXPECT_GT(probe.after_charges, cycles(100));
}

sim::Task<> window_unsynced(CoreApi& api) {
  co_await api.compute(10);
  (void)api.mpb_window({0, 0}, 32);
}

// flag_peek syncs by itself (ReadsAndWaitsSyncFirst); the raw MPB view
// cannot, so it refuses an unsynced core.
TEST(CoreLocalTimeDeath, WindowWithUnsyncedPrivateTimeAborts) {
  EXPECT_DEATH(
      {
        SccMachine machine(small_config());
        machine.launch(0, window_unsynced(machine.core(0)));
        machine.run();
      },
      "precondition");
}

TEST(CoreLocalTime, TraceIntervalsKeepExactTimestamps) {
  SccMachine machine(small_config());
  trace::Recorder rec;
  rec.begin_run("core-local");
  machine.attach_trace(&rec);
  machine.launch(0, private_then_set(machine.core(0), FlagRef{1, 0}));
  machine.run();
  std::vector<std::pair<SimTime, SimTime>> spans;
  for (const trace::Event& e : rec.events()) {
    if (e.kind == trace::EventKind::kInterval && e.pid == 0)
      spans.emplace_back(e.t0, e.t1);
  }
  // compute, sw-overhead, priv-mem, flag-op: back to back from 0, each as
  // long as its charge, ending at the core's final time.
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].first, SimTime::zero());
  EXPECT_EQ(spans[0].second, cycles(100));
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_EQ(spans[i].first, spans[i - 1].second) << "interval " << i;
  EXPECT_EQ(spans.back().second, machine.core(0).now());
  EXPECT_EQ(machine.core(0).profile().total(), machine.core(0).now());
}

// Perturbation delays land on engine events; private charges schedule
// none, so they draw none.
TEST(CoreLocalTime, PrivateChargesDrawNoPerturbationDelay) {
  SccConfig config = small_config();
  config.perturb_seed = 9;
  config.perturb_max_delay_fs = 1'000'000;
  SccMachine machine(config);
  std::uint64_t events_during = 1;
  SimTime elapsed, ahead;
  machine.launch(0, private_burst(machine.core(0), &machine, &events_during,
                                  &elapsed, &ahead));
  machine.run();
  EXPECT_EQ(events_during, 0u);
  EXPECT_EQ(ahead, elapsed);  // no delay inside the burst
  // Two events in all (start, trailing sync), so at most two delays.
  EXPECT_EQ(machine.events_processed(), 2u);
  EXPECT_LE(machine.engine_stats().perturb_delays, 2u);
}

TEST(Machine, FlushCachesRestoresColdState) {
  SccMachine machine(small_config());
  std::vector<double> buf(64);
  SimTime cold1, warm;
  machine.launch(0, priv_toucher(machine.core(0), &buf, &cold1, &warm));
  machine.run();
  machine.flush_caches();
  EXPECT_EQ(machine.cache(0).resident_lines(), 0u);
}

TEST(Machine, PaperDefaultHas48Cores) {
  SccMachine machine;
  EXPECT_EQ(machine.num_cores(), 48);
  EXPECT_TRUE(machine.config().cost.hw.mpb_bug_workaround);
}

TEST(Machine, BugFixedConfigDisablesWorkaround) {
  SccMachine machine(SccConfig::bug_fixed());
  EXPECT_FALSE(machine.config().cost.hw.mpb_bug_workaround);
}

}  // namespace
}  // namespace scc::machine
