// The traced run: per-layer metrics, each timed or counted around calls into
// one layer's public functions from this file, with a host span around
// every call. The same ladder runs for every workload (so each per-layer
// metric means one thing); the workload's own ops are replayed traced and
// untraced to check that tracing changes no simulated count.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/nbc.hpp"
#include "coll/stack.hpp"
#include "common.hpp"
#include "common/aligned.hpp"
#include "harness/runner.hpp"
#include "harness/traffic.hpp"
#include "ircce/ircce.hpp"
#include "lwnb/lwnb.hpp"
#include "machine/scc_machine.hpp"
#include "plans.hpp"
#include "rcce/layout.hpp"
#include "rcce/rcce.hpp"
#include "rckmpi/channel.hpp"
#include "rckmpi/mpi.hpp"
#include "sim/engine.hpp"
#include "trace/recorder.hpp"

namespace perfbench {

namespace {

namespace h = scc::harness;
namespace m = scc::machine;
using scc::SimTime;
using Buf = scc::aligned_vector<double>;

constexpr std::size_t kSpotlightElements = 552;

/// Every per-layer metric, in output order, with the end-to-end metric and
/// workload it should move. BENCHMARK.json's per_layer list mirrors it.
struct LayerDef {
  std::string name;
  std::string unit;
  std::string moves;
};

const char* const kVariants[] = {"rckmpi",      "blocking",    "ircce",
                                 "lightweight", "lw-balanced", "mpb"};
const char* const kPhases[] = {"flag_wait", "sw_overhead", "mpb_transfer",
                               "priv_mem",  "flag_op",     "compute"};
const m::Phase kPhaseIds[] = {m::Phase::kFlagWait,    m::Phase::kSwOverhead,
                              m::Phase::kMpbTransfer, m::Phase::kPrivMem,
                              m::Phase::kFlagOp,      m::Phase::kCompute};

std::vector<LayerDef> layer_defs() {
  const std::string ops_fig9 = "host_ops_per_s @ fig9_grid";
  std::vector<LayerDef> d = {
      {"sim.ns_per_event", "ns", "host_ops_per_s @ all, mostly fig9_grid"},
      {"machine.build_ms", "ms", "setup_s, host_op_ms_p50 @ fig9_grid"},
      {"machine.core_api_ns_per_call", "ns", ops_fig9},
      {"rcce.ns_per_msg", "ns", "host_op_ms_tail @ fig9_grid"},
      {"ircce.ns_per_msg", "ns", "host_op_ms_tail @ fig9_grid"},
      {"lwnb.ns_per_msg", "ns", "host_op_ms_tail @ fig9_grid"},
      {"rckmpi.ns_per_msg", "ns", "host_op_ms_tail @ fig9_grid"},
  };
  for (const h::Collective c : fig9_collectives())
    d.push_back({"coll.host_us_per_call." +
                     std::string(h::collective_name(c)),
                 "us", ops_fig9});
  const std::string overload =
      "host_ops_per_s @ traffic_overload (flat @ traffic_steady)";
  for (const char* f : {"progress", "done"})
    for (const char* depth : {"d1", "d64"})
      d.push_back({std::string("coll.nbc.") + f + "_ns." + depth, "ns",
                   overload});
  d.push_back({"harness.verify_share", "ratio",
               "host_op_ms_p50 @ fig9_grid"});
  d.push_back({"pdes.overhead_ratio", "ratio",
               "host_ops_per_s @ pdes_allreduce"});
  d.push_back({"trace.overhead_ratio", "ratio",
               "traced vs untraced host_ops_per_s"});
  for (const char* n : {"sim.events_per_op", "sim.parks_per_op",
                        "sim.wakeups_per_op", "machine.flag_polls_per_op",
                        "machine.flag_sets_per_op"})
    d.push_back({n, "count", ops_fig9});
  for (const char* n : {"mem.cache_hits_per_op", "mem.cache_misses_per_op"})
    d.push_back({n, "count", "sim_us_p50 @ fig9_grid"});
  const std::string noc =
      "sim_us_tail @ fig9_grid (alltoall), traffic_overload";
  d.push_back({"noc.lines_per_op", "count", noc});
  d.push_back({"noc.line_hops_per_op", "count", noc});
  d.push_back({"noc.contention_us_per_op", "us", noc});
  const std::string pdes = "host_ops_per_s @ pdes_allreduce";
  d.push_back({"pdes.windows_per_op", "count", pdes});
  d.push_back({"pdes.events_per_window", "count", pdes});
  d.push_back({"pdes.posts_per_op", "count", pdes});
  d.push_back({"pdes.min_post_slack_ns", "ns", pdes});
  const std::string sim = "sim_total_ms, sim_speedup_vs_blocking @ fig9_grid";
  for (const char* v : kVariants) {
    for (const char* p : kPhases)
      d.push_back({std::string("machine.") + p + "_us." + v, "us", sim});
    d.push_back({std::string("coll.imbalance.") + v, "ratio", sim});
  }
  return d;
}

/// Median host seconds of `reps` calls of `fn`.
double median_s(int reps, const std::function<void()>& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    s.push_back(seconds_since(t0));
  }
  return median(s);
}

/// Registry lookup that fails loudly on a missing counter path.
std::uint64_t need(const scc::metrics::MetricsRegistry& reg,
                   const std::string& path) {
  const scc::metrics::Metric* metric = reg.find(path);
  if (metric == nullptr)
    throw std::runtime_error("expected counter path missing: " + path);
  return metric->value;
}

Buf filled(std::size_t n, int rank) {
  Buf b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<double>((static_cast<std::size_t>(rank) * 31 + i) % 97);
  return b;
}

// --- sim: engine dispatch ---------------------------------------------------

struct Chain {
  scc::sim::Engine* engine = nullptr;
  std::uint64_t remaining = 0;
};

void arm(Chain* c) {
  c->engine->schedule_call(c->engine->now() + SimTime::from_ns(1), [c] {
    if (c->remaining == 0) return;
    --c->remaining;
    arm(c);
  });
}

double engine_ns_per_event(Spans& spans) {
  constexpr std::uint64_t kChains = 64;
  constexpr std::uint64_t kPerChain = 16384;
  std::uint64_t events = 0;
  const double s = median_s(3, [&] {
    Spans::Scope span(&spans, "sim", "Engine::schedule_call/run");
    scc::sim::Engine engine;
    std::vector<Chain> chains(kChains);
    for (Chain& c : chains) {
      c.engine = &engine;
      c.remaining = kPerChain;
      arm(&c);
    }
    engine.run();
    events = engine.events_processed();
  });
  return s * 1e9 / static_cast<double>(events);
}

// --- machine: construction and the CoreApi cost model ------------------------

scc::sim::Task<> core_api_loop(m::CoreApi& api, int iters, Buf& buf) {
  const m::FlagRef flag{api.rank(), 0};
  const auto bytes = std::as_bytes(std::span<const double>(buf).first(8));
  for (int i = 0; i < iters; ++i) {
    co_await api.compute(16);
    co_await api.priv_read(buf.data(), 256);
    co_await api.mpb_put(scc::mem::MpbAddr{api.rank(), 0}, bytes);
    const auto v = static_cast<m::FlagValue>(i % 200 + 1);
    co_await api.flag_set(flag, v);
    co_await api.flag_wait(flag, v);
  }
}

double core_api_ns_per_call(Spans& spans) {
  constexpr int kIters = 400;
  constexpr int kCallsPerIter = 5;
  const int p = m::SccConfig{}.num_cores();
  std::vector<Buf> bufs;
  for (int r = 0; r < p; ++r) bufs.push_back(filled(64, r));
  const double s = median_s(3, [&] {
    m::SccMachine machine;
    for (int r = 0; r < p; ++r)
      machine.launch(r, core_api_loop(machine.core(r), kIters,
                                      bufs[static_cast<std::size_t>(r)]));
    Spans::Scope span(&spans, "machine", "CoreApi compute/priv_read/mpb_put/"
                                         "flag_set/flag_wait");
    machine.run();
  });
  return s * 1e9 / (static_cast<double>(p) * kIters * kCallsPerIter);
}

// --- protocol layers: 552-double ping-pong between the mesh corners ----------

enum class Proto { kRcce, kIrcce, kLwnb, kRckmpi };

scc::sim::Task<> pingpong(m::CoreApi& api, const scc::rcce::Layout& layout,
                          const scc::rckmpi::ChannelLayout& channel,
                          Proto proto, int peer, bool first, int rounds,
                          Buf& buf) {
  const std::span<double> data(buf);
  const auto bytes = std::as_writable_bytes(data);
  scc::rcce::Rcce rcce(api, layout);
  scc::ircce::Ircce ircce(rcce);
  scc::lwnb::Lwnb lwnb(rcce);
  std::optional<scc::rckmpi::Mpi> mpi;
  if (proto == Proto::kRckmpi) mpi.emplace(api, channel);
  for (int r = 0; r < rounds; ++r) {
    for (int leg = 0; leg < 2; ++leg) {
      const bool sending = (leg == 0) == first;
      switch (proto) {
        case Proto::kRcce:
          if (sending) co_await rcce.send(bytes, peer);
          else co_await rcce.recv(bytes, peer);
          break;
        case Proto::kIrcce: {
          const auto id = sending ? co_await ircce.isend(bytes, peer)
                                  : co_await ircce.irecv(bytes, peer);
          co_await ircce.wait(id);
          break;
        }
        case Proto::kLwnb:
          if (sending) {
            co_await lwnb.isend(bytes, peer);
            co_await lwnb.wait_send();
          } else {
            co_await lwnb.irecv(bytes, peer);
            co_await lwnb.wait_recv();
          }
          break;
        case Proto::kRckmpi:
          if (sending) co_await mpi->send(data, peer, 0);
          else co_await mpi->recv(data, peer, 0);
          break;
      }
    }
  }
}

double ns_per_msg(Spans& spans, Proto proto, const char* layer) {
  constexpr int kRounds = 1000;
  m::SccConfig config;
  const int p = config.num_cores();
  const scc::rcce::Layout layout(p);
  const scc::rckmpi::ChannelLayout channel(layout);
  config.flags_per_core = std::max(
      {config.flags_per_core, layout.flags_needed(), channel.flags_needed()});
  Buf a = filled(kSpotlightElements, 0);
  Buf b = filled(kSpotlightElements, 1);
  const double s = median_s(3, [&] {
    m::SccMachine machine(config);
    machine.launch(0, pingpong(machine.core(0), layout, channel, proto, p - 1,
                               true, kRounds, a));
    machine.launch(p - 1, pingpong(machine.core(p - 1), layout, channel,
                                   proto, 0, false, kRounds, b));
    Spans::Scope span(&spans, layer, "552-double ping-pong");
    machine.run();
  });
  return s * 1e9 / (2.0 * kRounds);
}

// --- coll: repeated collective calls on one warm machine ---------------------

struct CollBufs {
  Buf in;
  Buf out;
};

scc::sim::Task<> coll_loop(m::CoreApi& api, const scc::rcce::Layout& layout,
                           h::Collective c, int calls, CollBufs& b) {
  namespace coll = scc::coll;
  coll::Stack stack(api, layout, coll::Prims::kLightweight);
  const auto split = coll::SplitPolicy::kStandard;
  for (int i = 0; i < calls; ++i) {
    co_await api.sync_barrier();
    switch (c) {
      case h::Collective::kAllgather:
        co_await coll::allgather(stack, b.in, b.out);
        break;
      case h::Collective::kAlltoall:
        co_await coll::alltoall(stack, b.in, b.out);
        break;
      case h::Collective::kReduceScatter:
        (void)co_await coll::reduce_scatter(stack, b.in, b.out,
                                            coll::ReduceOp::kSum, split);
        break;
      case h::Collective::kBroadcast:
        co_await coll::broadcast(stack, b.out, 0, split);
        break;
      case h::Collective::kReduce:
        co_await coll::reduce(stack, b.in, b.out, coll::ReduceOp::kSum, 0,
                              split);
        break;
      default:
        co_await coll::allreduce(stack, b.in, b.out, coll::ReduceOp::kSum,
                                 split);
        break;
    }
  }
}

double coll_us_per_call(Spans& spans, h::Collective c) {
  constexpr int kCalls = 4;
  m::SccConfig config;
  const int p = config.num_cores();
  const scc::rcce::Layout layout(p);
  config.flags_per_core = std::max(config.flags_per_core,
                                   layout.flags_needed());
  const std::size_t n = kSpotlightElements;
  const auto pn = n * static_cast<std::size_t>(p);
  const bool gathers = c == h::Collective::kAllgather;
  const bool all2all = c == h::Collective::kAlltoall;
  std::vector<CollBufs> bufs;
  for (int r = 0; r < p; ++r)
    bufs.push_back({filled(all2all ? pn : n, r),
                    filled(gathers || all2all ? pn : n, r)});
  m::SccMachine machine(config);
  for (int r = 0; r < p; ++r)
    machine.launch(r, coll_loop(machine.core(r), layout, c, kCalls,
                                bufs[static_cast<std::size_t>(r)]));
  const auto t0 = Clock::now();
  {
    Spans::Scope span(&spans, "coll",
                      std::string(h::collective_name(c)) + " x4 warm");
    machine.run();
  }
  return seconds_since(t0) * 1e6 / kCalls;
}

// --- coll::nbc: ProgressEngine at queue depth 1 and 64 -----------------------

m::SccConfig nbc_config() {
  m::SccConfig config;
  config.tiles_x = 2;
  config.tiles_y = 2;
  config.flags_per_core =
      std::max(config.flags_per_core,
               scc::rcce::Layout::lane(config.num_cores(), 1, 2)
                   .flags_needed());
  return config;
}

constexpr int kNbcRequests = 64;
constexpr std::size_t kNbcElements = 96;

scc::sim::Task<> nbc_program(m::CoreApi& api, int depth,
                             std::vector<CollBufs>& bufs,
                             std::uint64_t& calls) {
  namespace coll = scc::coll;
  coll::nbc::ProgressEngine engine(api, coll::Prims::kLightweight, 2);
  for (int issued = 0; issued < kNbcRequests; issued += depth) {
    for (int d = 0; d < depth; ++d) {
      CollBufs& b = bufs[static_cast<std::size_t>(issued + d)];
      (void)engine.iallreduce(b.in, b.out, coll::ReduceOp::kSum,
                              coll::SplitPolicy::kStandard);
    }
    while (!engine.idle()) {
      co_await engine.progress();
      ++calls;
    }
  }
}

double nbc_progress_ns(Spans& spans, int depth) {
  const m::SccConfig config = nbc_config();
  const int p = config.num_cores();
  std::vector<std::vector<CollBufs>> bufs(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r)
    for (int i = 0; i < kNbcRequests; ++i)
      bufs[static_cast<std::size_t>(r)].push_back(
          {filled(kNbcElements, r), Buf(kNbcElements)});
  std::uint64_t calls = 0;
  const double s = median_s(3, [&] {
    calls = 0;
    m::SccMachine machine(config);
    for (int r = 0; r < p; ++r)
      machine.launch(r, nbc_program(machine.core(r), depth,
                                    bufs[static_cast<std::size_t>(r)], calls));
    Spans::Scope span(&spans, "coll",
                      "ProgressEngine::progress d" + std::to_string(depth));
    machine.run();
  });
  return s * 1e9 / static_cast<double>(calls);
}

double nbc_done_ns(Spans& spans, int depth) {
  constexpr int kCalls = 1 << 21;
  namespace coll = scc::coll;
  m::SccMachine machine(nbc_config());
  coll::nbc::ProgressEngine engine(machine.core(0), coll::Prims::kLightweight,
                                   2);
  std::vector<coll::nbc::CollRequest> reqs;
  for (int d = 0; d < depth; ++d) reqs.push_back(engine.ibarrier());
  std::uint64_t pending = 0;
  const double s = median_s(3, [&] {
    Spans::Scope span(&spans, "coll",
                      "ProgressEngine::done d" + std::to_string(depth));
    for (int i = 0; i < kCalls; ++i)
      pending += reqs[static_cast<std::size_t>(i % depth)].done() ? 0U : 1U;
  });
  if (pending != 3ULL * kCalls)
    throw std::runtime_error("nbc done(): initiated requests read as done");
  return s * 1e9 / kCalls;
}

// --- harness, pdes and trace ratios ------------------------------------------

h::RunResult spanned_run(Spans& spans, const char* layer, const char* name,
                         const h::RunSpec& spec) {
  Spans::Scope span(&spans, layer, name);
  return h::run_collective(spec);
}

/// Host time of `with` over `without`, run alternately `pairs` times: the
/// ratio of the medians, or of the minima with `use_min`.
double alternating_ratio(int pairs, const std::function<void()>& with,
                         const std::function<void()>& without,
                         bool use_min = false) {
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < pairs; ++i) {
    a.push_back(median_s(1, with));
    b.push_back(median_s(1, without));
  }
  if (use_min)
    return *std::min_element(a.begin(), a.end()) /
           *std::min_element(b.begin(), b.end());
  return median(a) / median(b);
}

bool same_sim(const h::RunResult& a, const h::RunResult& b) {
  return a.mean_latency == b.mean_latency && a.events == b.events &&
         a.lines_sent == b.lines_sent;
}

}  // namespace

Report run_ladder(const Args& args, Spans& spans) {
  Report rep;
  const WorkloadKind kind = parse_workload(args.workload);
  std::map<std::string, double> v;

  // Host-time ladder.
  v["sim.ns_per_event"] = engine_ns_per_event(spans);
  {
    std::vector<double> ms;
    for (int i = 0; i < 9; ++i) {
      Spans::Scope span(&spans, "machine", "SccMachine()");
      const auto t0 = Clock::now();
      { m::SccMachine machine; }
      ms.push_back(seconds_since(t0) * 1e3);
    }
    v["machine.build_ms"] = median(ms);
  }
  v["machine.core_api_ns_per_call"] = core_api_ns_per_call(spans);
  v["rcce.ns_per_msg"] = ns_per_msg(spans, Proto::kRcce, "rcce");
  v["ircce.ns_per_msg"] = ns_per_msg(spans, Proto::kIrcce, "ircce");
  v["lwnb.ns_per_msg"] = ns_per_msg(spans, Proto::kLwnb, "lwnb");
  v["rckmpi.ns_per_msg"] = ns_per_msg(spans, Proto::kRckmpi, "rckmpi");
  for (const h::Collective c : fig9_collectives())
    v["coll.host_us_per_call." + std::string(h::collective_name(c))] =
        coll_us_per_call(spans, c);
  for (const int depth : {1, 64}) {
    const std::string d = "d" + std::to_string(depth);
    v["coll.nbc.progress_ns." + d] = nbc_progress_ns(spans, depth);
    v["coll.nbc.done_ns." + d] = nbc_done_ns(spans, depth);
  }

  // harness: verification's share of an op's host time, on the grid op with
  // the most to verify (Alltoall). Minimum of alternating pairs: the
  // difference is a few percent, below the host's run-to-run noise.
  {
    h::RunSpec on = closed_loop_spec(h::Collective::kAlltoall,
                                     h::PaperVariant::kLightweight,
                                     kSpotlightElements, args.seed);
    h::RunSpec off = on;
    off.verify = false;
    v["harness.verify_share"] =
        1.0 - 1.0 / alternating_ratio(
                        5, [&] { (void)spanned_run(spans, "harness", "verify on", on); },
                        [&] { (void)spanned_run(spans, "harness", "verify off", off); },
                        true);
  }

  // pdes: the spotlight op partitioned (2 workers) over serial, plus the
  // partitioned machine's window counters.
  const h::RunSpec spotlight = closed_loop_spec(
      h::Collective::kAllreduce, h::PaperVariant::kLwBalanced,
      kSpotlightElements, args.seed);
  {
    h::RunSpec part = spotlight;
    part.pdes_workers = 2;
    v["pdes.overhead_ratio"] = alternating_ratio(
        3, [&] { (void)spanned_run(spans, "sim", "pdes_workers=2", part); },
        [&] { (void)spanned_run(spans, "sim", "serial", spotlight); });
    part.collect_metrics = true;
    const h::RunResult r = spanned_run(spans, "sim", "pdes counters", part);
    const auto& reg = *r.metrics;
    const auto windows = static_cast<double>(need(reg, "pdes/windows"));
    v["pdes.windows_per_op"] = windows;
    v["pdes.events_per_window"] =
        static_cast<double>(need(reg, "engine/events_processed")) / windows;
    v["pdes.posts_per_op"] =
        static_cast<double>(need(reg, "pdes/posts_delivered"));
    v["pdes.min_post_slack_ns"] =
        static_cast<double>(need(reg, "pdes/min_post_slack_fs")) / 1e6;
  }

  // trace: the spotlight op with a fresh trace recorder attached over
  // without; the recorder must drop nothing and change no simulated count.
  {
    constexpr std::size_t kCapacity = std::size_t{1} << 22;
    const auto traced_run = [&] {
      scc::trace::Recorder recorder(kCapacity);
      h::RunSpec traced = spotlight;
      traced.trace = &recorder;
      traced.collect_metrics = true;
      return spanned_run(spans, "trace", "recorder on", traced);
    };
    v["trace.overhead_ratio"] = alternating_ratio(
        3, [&] { (void)traced_run(); },
        [&] { (void)spanned_run(spans, "trace", "recorder off", spotlight); });
    const h::RunResult a = traced_run();
    const h::RunResult b = spanned_run(spans, "trace", "recorder off", spotlight);
    if (need(*a.metrics, "trace/dropped_events") != 0)
      rep.fail("trace recorder dropped events on the spotlight op");
    if (!same_sim(a, b))
      rep.fail("tracing changed the spotlight op's simulated result");
  }

  // Exact counts and simulated-time accounting on one Fig. 9 size (from the
  // seed): every collective x variant, metrics and profiles collected.
  {
    const std::size_t n = 500 + derive_seed(args.seed, 77) % 201;
    std::map<std::string, double> sum;
    int ops = 0;
    for (const h::Collective c : fig9_collectives()) {
      for (const h::PaperVariant pv : h::variants_for(c)) {
        h::RunSpec spec = closed_loop_spec(c, pv, n, args.seed);
        spec.collect_metrics = true;
        spec.collect_profiles = true;
        spans.set_op(static_cast<std::uint64_t>(++ops));
        const h::RunResult r =
            spanned_run(spans, "harness", "fig9 sample op", spec);
        const auto& reg = *r.metrics;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        for (int core = 0; core < static_cast<int>(r.profiles.size());
             ++core) {
          const std::string base = "core/" + std::to_string(core) + "/cache/";
          hits += need(reg, base + "hits");
          misses += need(reg, base + "misses");
        }
        sum["sim.events_per_op"] += static_cast<double>(r.events);
        sum["sim.parks_per_op"] += static_cast<double>(need(reg, "engine/parks"));
        sum["sim.wakeups_per_op"] +=
            static_cast<double>(need(reg, "engine/waiters_woken"));
        sum["machine.flag_polls_per_op"] +=
            static_cast<double>(need(reg, "flags/polls"));
        sum["machine.flag_sets_per_op"] +=
            static_cast<double>(need(reg, "flags/sets"));
        sum["mem.cache_hits_per_op"] += static_cast<double>(hits);
        sum["mem.cache_misses_per_op"] += static_cast<double>(misses);
        sum["noc.lines_per_op"] += static_cast<double>(need(reg, "run/lines_sent"));
        sum["noc.line_hops_per_op"] +=
            static_cast<double>(need(reg, "run/line_hops"));
        sum["noc.contention_us_per_op"] +=
            static_cast<double>(need(reg, "noc/contention/total_delay_fs")) /
            1e9;
        if (c != h::Collective::kAllreduce) continue;
        // Allreduce is the one collective with all six variants, so the
        // section IV-A..D ladder compares like with like. Profiles span the
        // warm-up too: divide by the invocations.
        const double invocations = spec.warmup + spec.repetitions;
        const std::string variant(h::variant_name(pv));
        std::vector<double> busy;
        for (const m::CoreProfile& prof : r.profiles)
          busy.push_back((prof.total() - prof.get(m::Phase::kFlagWait)).us());
        for (std::size_t i = 0; i < std::size(kPhases); ++i) {
          double total = 0.0;
          for (const m::CoreProfile& prof : r.profiles)
            total += prof.get(kPhaseIds[i]).us();
          v[std::string("machine.") + kPhases[i] + "_us." + variant] =
              total / invocations;
        }
        double mean_busy = 0.0;
        for (const double b : busy) mean_busy += b;
        mean_busy /= static_cast<double>(busy.size());
        v["coll.imbalance." + variant] =
            *std::max_element(busy.begin(), busy.end()) / mean_busy;
      }
    }
    for (const auto& [name, total] : sum) v[name] = total / ops;
    rep.lines.push_back("counts and accounting: fig9 sample of " +
                        std::to_string(ops) + " ops at n=" +
                        std::to_string(n) + " (accounting: Allreduce cells)");
  }

  // The workload's own ops, traced and untraced: simulated counts must not
  // move, and the recorder must not drop events.
  {
    const Plan plan = make_plan(kind, args.seed, args.seconds);
    int checked = 0;
    for (std::size_t i = 0; i < plan.size() && checked < 3; ++i) {
      spans.set_op(1000 + i);
      if (plan.is_traffic()) {
        // run_traffic has no recorder hook; the check is span-on vs off.
        h::TrafficResult a;
        {
          Spans::Scope span(&spans, "harness", "run_traffic");
          a = h::run_traffic(plan.traffic[i]);
        }
        const h::TrafficResult b = h::run_traffic(plan.traffic[i]);
        if (a.latencies != b.latencies || a.events != b.events ||
            a.lines_sent != b.lines_sent || a.makespan != b.makespan)
          rep.fail("traced traffic call " + std::to_string(i) +
                   " differs from untraced");
        ++checked;
        continue;
      }
      const h::RunSpec& spec = plan.runs[i];
      if (spec.variant == h::PaperVariant::kRckmpi &&
          (spec.collective == h::Collective::kAllgather ||
           spec.collective == h::Collective::kAlltoall))
        continue;  // millions of trace events: too big for one recorder
      scc::trace::Recorder recorder(std::size_t{1} << 22);
      h::RunSpec traced = spec;
      traced.trace = &recorder;
      traced.collect_metrics = true;
      const h::RunResult a =
          spanned_run(spans, "harness", "workload op traced", traced);
      const h::RunResult b =
          spanned_run(spans, "harness", "workload op untraced", spec);
      if (need(*a.metrics, "trace/dropped_events") != 0)
        rep.fail("trace recorder dropped events on workload op " +
                 std::to_string(i));
      if (!same_sim(a, b))
        rep.fail("traced workload op " + std::to_string(i) +
                 " differs from untraced");
      ++checked;
    }
    rep.lines.push_back(std::to_string(checked) + " " + args.workload +
                        " ops replayed traced vs untraced");
    rep.attempted = static_cast<std::uint64_t>(checked);
  }

  for (const LayerDef& d : layer_defs()) {
    const auto it = v.find(d.name);
    if (it == v.end() || !std::isfinite(it->second))
      throw std::runtime_error("per-layer metric not measured: " + d.name);
    rep.add(d.name, it->second, d.unit, d.moves);
  }
  if (v.size() != rep.metrics.size())
    throw std::runtime_error("measured a per-layer metric with no definition");
  return rep;
}

}  // namespace perfbench
