// The four end-to-end workloads, run with tracing off. Each workload is a
// fixed list of ops generated from the seed and sized from --seconds (never
// from the host's speed), so every simulated metric is a pure function of
// (workload, seed, seconds) and two builds run exactly the same work.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "harness/runner.hpp"
#include "harness/traffic.hpp"
#include "machine/scc_machine.hpp"
#include "plans.hpp"

namespace perfbench {

namespace {

namespace h = scc::harness;
using scc::SimTime;

/// The load-regime check's tolerance on the traffic workloads; it equals
/// the bound BENCHMARK.json gives sim_us_p50.
constexpr double kRegimeBound = 0.10;

/// One op's result, in both clocks. `fingerprint` is what a replay must
/// reproduce exactly: simulated latencies, events and lines sent.
struct OpOutcome {
  bool ok = false;
  std::string error;
  double host_s = 0.0;
  std::vector<double> sim_us;  // per collective (per request on traffic)
  double sim_total_us = 0.0;   // op latency, or the call's makespan
  std::vector<std::uint64_t> fingerprint;
};

OpOutcome from_run(const h::RunResult& r) {
  OpOutcome o;
  o.ok = true;
  o.sim_us = {r.mean_latency.us()};
  o.sim_total_us = r.mean_latency.us();
  o.fingerprint = {r.mean_latency.femtoseconds(), r.events, r.lines_sent};
  return o;
}

OpOutcome from_traffic(const h::TrafficResult& r) {
  OpOutcome o;
  o.ok = true;
  o.sim_total_us = r.makespan.us();
  o.fingerprint = {r.makespan.femtoseconds(), r.events, r.lines_sent};
  for (const SimTime t : r.latencies) {
    o.sim_us.push_back(t.us());
    o.fingerprint.push_back(t.femtoseconds());
  }
  return o;
}

/// Runs one op, timing it on the host; an exception is an outcome, never
/// a dropped op.
OpOutcome timed(const std::function<OpOutcome()>& op) {
  const auto t0 = Clock::now();
  OpOutcome o;
  try {
    o = op();
  } catch (const std::exception& e) {
    o = OpOutcome{};
    o.error = e.what();
  }
  o.host_s = seconds_since(t0);
  return o;
}

/// Op `i` of the plan, timed.
OpOutcome run_op(const Plan& plan, std::size_t i) {
  return timed([&] {
    return plan.is_traffic() ? from_traffic(h::run_traffic(plan.traffic[i]))
                             : from_run(h::run_collective(plan.runs[i]));
  });
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// p50 of the requests in [from, to) of each call's schedule, pooled.
double pooled_p50(const std::vector<OpOutcome>& calls, double from,
                  double to) {
  std::vector<double> pool;
  for (const OpOutcome& c : calls) {
    if (!c.ok) continue;
    const auto n = static_cast<double>(c.sim_us.size());
    for (auto i = static_cast<std::size_t>(from * n);
         i < static_cast<std::size_t>(to * n); ++i)
      pool.push_back(c.sim_us[i]);
  }
  return pool.empty() ? 0.0 : median(pool);
}

}  // namespace

Report run_workload(const Args& args, Clock::time_point process_start) {
  Report rep;
  const WorkloadKind kind = parse_workload(args.workload);

  // --- set-up, several times: the op list and its schedules, then the
  // first machine build. The first pass runs from process start.
  constexpr int kSetups = 15;
  std::vector<double> setup_s;
  Plan plan;
  std::size_t scheduled = 0;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = k == 0 ? process_start : Clock::now();
    plan = make_plan(kind, args.seed, args.seconds);
    scheduled = 0;
    for (const h::TrafficSpec& t : plan.traffic)
      scheduled += h::traffic_schedule(t, plan.machine_config.num_cores()).size();
    { scc::machine::SccMachine first(plan.machine_config); }
    setup_s.push_back(seconds_since(t0));
  }

  // --- the timed loop: every op of the plan, in plan order.
  const std::size_t ops = plan.size();
  std::vector<OpOutcome> out(ops);
  const auto loop_t0 = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) out[i] = run_op(plan, i);
  const double loop_s = seconds_since(loop_t0);
  const double rss_mb = peak_rss_mb();

  // --- replay a fixed sample: simulated results must repeat exactly.
  const std::size_t stride = (ops + 5) / 6;  // six replays
  std::size_t replay_mismatch = 0;
  for (std::size_t i = 0; i < ops; i += stride) {
    if (!out[i].ok) continue;
    const OpOutcome again = run_op(plan, i);
    if (!again.ok || again.fingerprint != out[i].fingerprint) {
      out[i].ok = false;
      out[i].error = "simulated result differs on replay";
      ++replay_mismatch;
    }
  }

  // --- failures and both clocks' samples.
  std::uint64_t requests = 0;
  std::uint64_t failed_requests = 0;
  std::vector<double> host_ms;
  std::vector<double> sim_us;
  double sim_total_us = 0.0;
  for (std::size_t i = 0; i < ops; ++i) {
    const OpOutcome& o = out[i];
    const std::uint64_t n = plan.requests_of(i);
    requests += n;
    host_ms.push_back(o.host_s * 1e3);
    if (!o.ok) {
      failed_requests += n;
      if (rep.errors.size() < 5)
        rep.errors.push_back("op " + std::to_string(i) + ": " + o.error);
      continue;
    }
    sim_us.insert(sim_us.end(), o.sim_us.begin(), o.sim_us.end());
    sim_total_us += o.sim_total_us;
  }
  rep.attempted = requests;
  rep.failed = failed_requests;
  if (failed_requests > 0) rep.correct = false;
  if (replay_mismatch > 0) {
    rep.fail(std::to_string(replay_mismatch) +
             " op(s) gave different simulated results on replay");
  }

  // --- the paper's headline ratio, per workload (see README.md).
  double speedup = 0.0;
  if (kind == WorkloadKind::kFig9Grid) {
    // Mean over (collective, size) cells of blocking latency over the best
    // RCCE-family variant's latency.
    std::map<std::pair<int, std::size_t>, std::pair<double, double>> cells;
    for (std::size_t i = 0; i < ops; ++i) {
      const h::RunSpec& s = plan.runs[i];
      if (!out[i].ok || s.variant == h::PaperVariant::kRckmpi) continue;
      auto& cell = cells.try_emplace({static_cast<int>(s.collective),
                                      s.elements},
                                     0.0, 1e300)
                       .first->second;
      if (s.variant == h::PaperVariant::kBlocking)
        cell.first = out[i].sim_total_us;
      cell.second = std::min(cell.second, out[i].sim_total_us);
    }
    double sum = 0.0;
    std::size_t counted = 0;
    for (const auto& [key, cell] : cells) {
      if (cell.first <= 0.0) continue;  // the blocking op failed
      sum += cell.first / cell.second;
      ++counted;
    }
    speedup = counted > 0 ? sum / static_cast<double>(counted) : 0.0;
  } else if (plan.is_traffic()) {
    // The replay sample again through the blocking API: the serialized
    // drain of the identical schedule, makespan over makespan.
    double blocking_us = 0.0;
    double path_us = 0.0;
    for (std::size_t i = 0; i < ops; i += stride) {
      if (!out[i].ok) continue;
      h::TrafficSpec t = plan.traffic[i];
      t.serialize = true;
      const OpOutcome b = timed([&] { return from_traffic(h::run_traffic(t)); });
      if (!b.ok) {
        rep.fail("serialized companion of call " + std::to_string(i) +
                 " failed: " + b.error);
        continue;
      }
      blocking_us += b.sim_total_us;
      path_us += out[i].sim_total_us;
    }
    speedup = path_us > 0.0 ? blocking_us / path_us : 0.0;
  } else {
    // Every op against the blocking variant at its size on the serial
    // machine (one blocking run per distinct size).
    std::map<std::size_t, double> blocking_at;
    double blocking_us = 0.0;
    double path_us = 0.0;
    for (std::size_t i = 0; i < ops; ++i) {
      if (!out[i].ok) continue;
      h::RunSpec s = plan.runs[i];
      auto it = blocking_at.find(s.elements);
      if (it == blocking_at.end()) {
        s.variant = h::PaperVariant::kBlocking;
        s.pdes_workers = 0;
        const OpOutcome b = timed([&] { return from_run(h::run_collective(s)); });
        if (!b.ok) {
          rep.fail("blocking companion at n=" + std::to_string(s.elements) +
                   " failed: " + b.error);
          continue;
        }
        it = blocking_at.emplace(s.elements, b.sim_total_us).first;
      }
      blocking_us += it->second;
      path_us += out[i].sim_total_us;
    }
    speedup = path_us > 0.0 ? blocking_us / path_us : 0.0;
  }

  // --- load-regime self-check on the open-loop workloads.
  if (plan.is_traffic()) {
    const double first = pooled_p50(out, 0.0, 0.25);
    const double last = pooled_p50(out, 0.75, 1.0);
    const double growth = first > 0.0 ? last / first - 1.0 : 0.0;
    const bool want_growth = kind == WorkloadKind::kTrafficOverload;
    const bool ok = want_growth == (growth > kRegimeBound);
    rep.lines.push_back(
        "load regime: sojourn p50 first quarter " + fmt("%.1f", first) +
        " us, last quarter " + fmt("%.1f", last) + " us (" +
        fmt("%+.1f", growth * 100.0) + "%, bound " +
        fmt("%.0f", kRegimeBound * 100.0) + "%): " +
        (ok ? "as intended" : "WRONG REGIME"));
    if (!ok) {
      rep.fail(want_growth ? "load regime: traffic_overload backlog does "
                             "not grow"
                           : "load regime: traffic_steady backlog grows");
    }
  }

  const Tail host_tail = tail_of(host_ms);
  const Tail sim_tail = tail_of(sim_us);
  if (!host_tail.ok || !sim_tail.ok || sim_us.empty()) {
    rep.fail("too few samples for an honest tail (host " +
             tail_label(host_tail) + ", sim " + tail_label(sim_tail) + ")");
  }
  const double med_sim = sim_us.empty() ? 0.0 : median(sim_us);

  rep.add("setup_s", median(setup_s), "s");
  rep.add("host_ops_per_s", static_cast<double>(requests) / loop_s, "1/s");
  rep.add("host_op_ms_p50", median(host_ms), "ms");
  rep.add("host_op_ms_tail", host_tail.value, "ms");
  rep.add("peak_rss_mb", rss_mb, "MB");
  rep.add("sim_us_p50", med_sim, "us");
  rep.add("sim_us_tail", sim_tail.value, "us");
  rep.add("sim_total_ms", sim_total_us / 1e3, "ms");
  rep.add("sim_speedup_vs_blocking", speedup, "x");

  rep.lines.push_back("workload: " + plan.describe);
  rep.lines.push_back("manifest: threads=1 pdes_workers=" +
                      std::to_string(plan.pdes_workers) + " ops=" +
                      std::to_string(ops) + " requests=" +
                      std::to_string(requests));
  rep.lines.push_back("setup_s median of " + std::to_string(kSetups) +
                      " set-ups (first from process start), " +
                      std::to_string(scheduled) + " requests scheduled");
  rep.lines.push_back("host_op_ms_tail is " + tail_label(host_tail) +
                      " timed harness calls");
  rep.lines.push_back("sim_us_tail is " + tail_label(sim_tail) +
                      (plan.is_traffic() ? " requests (sojourn)"
                                         : " collectives"));
  rep.lines.push_back(
      "failed_ratio " +
      fmt("%.6g", requests ? static_cast<double>(failed_requests) /
                                 static_cast<double>(requests)
                           : 0.0) +
      " (" + std::to_string(failed_requests) + " of " +
      std::to_string(requests) + "; " + std::to_string(replay_mismatch) +
      " replay mismatches)");
  return rep;
}

}  // namespace perfbench
