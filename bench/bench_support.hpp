// Shared scaffolding for the figure/table benchmark binaries.
//
// Each binary regenerates one figure or table of the paper in simulated
// (virtual) time, prints it as an aligned table and writes it under
// bench_results/ as CSV plus an "scc-bench-v1" JSON -- the document the
// bench/compare regression gate diffs against a committed baseline.
// Every binary parses its flags with scc::CliFlags and rejects any flag it
// does not read, so a typo exits 2 instead of running the wrong experiment.
//
// Sweep flags (fig9* and tab_speedups; defaults keep each run short):
//   --from=N / --to=N -- sweep bounds in elements (default 500..700)
//   --step=N          -- sweep step in elements (default: per binary)
//   --reps=N          -- measured repetitions per point (default 2)
//   --jobs=N          -- host worker threads for the sweep's independent
//                        simulations (default: hardware concurrency). Cells
//                        merge in spec order, so every output byte --
//                        tables, CSV, JSON, metrics -- matches --jobs=1.
//
// Figure-only flags (fig9*):
//   --metrics=<path>  -- write a metrics snapshot of every point (prefixed
//                        "point/<elements>/<variant>/") as scc-metrics-v1
//   --blame           -- per variant, rerun the sweep's final size on its
//                        own trace recorder and print the critical-path
//                        blame report of its final repetition
//   --workers=N       -- conservative-PDES drain threads INSIDE each
//                        point's machine (harness::RunSpec::pdes_workers;
//                        default: serial machines). Orthogonal to --jobs;
//                        every (jobs, workers) combination produces
//                        byte-identical CSV/JSON/metrics artifacts.
//   --algo=<name|auto> -- run the swept collective under this algorithm
//                        (coll/algos.hpp) on the RCCE-family variants;
//                        RCKMPI and MPB keep their own schedule, so the
//                        figure compares the override against them.
//   --hist            -- per variant, aggregate every measured repetition
//                        of every swept point into a metrics::Histogram and
//                        add a "histograms" block (count/min/mean/p50/p90/
//                        p99/p999/max, microseconds) to the JSON, in
//                        variant-name order. Row bytes are unchanged;
//                        bench/compare gates the block two-sided when the
//                        baseline carries one.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "exec/executor.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "metrics/blame.hpp"
#include "metrics/registry.hpp"
#include "trace/recorder.hpp"

namespace scc::bench {

/// Parses argv, lets `read` query every flag the binary understands, then
/// rejects the flags it never read. Malformed or unknown flags print an
/// error and exit 2.
template <typename Read>
void read_flags(int argc, char** argv, Read&& read) {
  try {
    const CliFlags flags = CliFlags::parse(argc, argv);
    read(flags);
    for (const std::string& name : flags.unconsumed())
      throw std::runtime_error("unknown flag --" + name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

/// The sweep flags (--from/--to/--step/--reps/--jobs) as an unverified
/// SweepSpec with one warmup repetition per point.
inline harness::SweepSpec read_sweep(const CliFlags& flags,
                                     int default_step) {
  harness::SweepSpec spec;
  spec.from = static_cast<std::size_t>(flags.get_positive_int("from", 500));
  spec.to = static_cast<std::size_t>(flags.get_positive_int("to", 700));
  spec.step =
      static_cast<std::size_t>(flags.get_positive_int("step", default_step));
  spec.repetitions = flags.get_positive_int("reps", 2);
  spec.warmup = 1;
  spec.verify = false;
  spec.jobs = exec::jobs_flag(flags);
  if (spec.from > spec.to)
    throw std::runtime_error(strprintf("--from=%zu exceeds --to=%zu",
                                       spec.from, spec.to));
  return spec;
}

/// What --metrics and --blame collect, written after the series.
struct Instruments {
  std::string metrics_path;  // empty: --metrics off
  bool blame = false;
  metrics::MetricsRegistry metrics;
  std::map<std::string, std::string> blame_reports;  // by variant name

  void read(const CliFlags& flags) {
    metrics_path = flags.get("metrics", "");
    if (flags.has("metrics") && metrics_path.empty())
      throw std::runtime_error("--metrics= needs a path");
    blame = flags.get_bool("blame", false);
  }

  /// Stores the blame report of `result`'s final repetition, traced into
  /// `recorder`, under `variant`.
  void add_blame(const trace::Recorder& recorder,
                 const harness::RunResult& result, const std::string& variant,
                 std::size_t elements) {
    if (result.sample_windows.empty()) return;
    const auto [begin, end] = result.sample_windows.back();
    const metrics::BlameReport report = metrics::analyze_blame(
        recorder, recorder.current_run(), /*terminal_core=*/0, begin, end);
    std::ostringstream ss;
    ss << "--- " << variant << " n=" << elements;
    if (recorder.dropped() > 0) {
      ss << " (trace dropped " << recorder.dropped()
         << " events; attribution partial)";
    }
    ss << " ---\n";
    report.print(ss);
    blame_reports[variant] = ss.str();
  }
};

/// Writes `table` as bench_results/<name>.csv and .json.
inline void write_table(const std::string& name, const Table& table,
                        const std::string& json_members = {}) {
  std::filesystem::create_directories("bench_results");
  table.write_csv_file("bench_results/" + name + ".csv");
  table.write_json_file("bench_results/" + name + ".json", name, json_members);
}

/// write_table, then the requested instrumentation.
inline void write_outputs(const std::string& name, const Table& table,
                          Instruments& inst,
                          const std::string& json_members = {}) {
  write_table(name, table, json_members);
  std::cout << "\nseries written to bench_results/" << name
            << ".csv and bench_results/" << name << ".json\n";
  if (!inst.metrics_path.empty()) {
    inst.metrics.set_label(name);
    inst.metrics.write_json_file(inst.metrics_path);
    std::cout << "metrics snapshot written to " << inst.metrics_path << '\n';
  }
  for (const auto& [variant, report] : inst.blame_reports) {
    std::cout << '\n' << report;
  }
}

/// The "histograms" JSON member for --hist: one histogram per variant, in
/// variant-name order.
inline std::string histogram_members(const harness::SweepResult& sweep) {
  std::map<std::string, const metrics::Histogram*> by_name;
  for (std::size_t i = 0; i < sweep.variants.size(); ++i)
    by_name[std::string(harness::variant_name(sweep.variants[i]))] =
        &sweep.histograms[i];
  std::ostringstream ss;
  ss << "\"histograms\": {";
  bool first = true;
  for (const auto& [name, hist] : by_name) {
    ss << (first ? "" : ", ") << '"' << name << "\": ";
    hist->write_json_us(ss);
    first = false;
  }
  ss << '}';
  return ss.str();
}

/// One Fig. 9 panel: sweeps every variant of `coll` over the requested
/// sizes, prints the table and the mean speedups vs blocking, and writes
/// the series plus any requested instrumentation.
inline int figure_main(int argc, char** argv, const char* figure,
                       harness::Collective coll, int default_step) {
  harness::SweepSpec spec;
  Instruments inst;
  bool hist = false;
  read_flags(argc, argv, [&](const CliFlags& flags) {
    spec = read_sweep(flags, default_step);
    inst.read(flags);
    hist = flags.get_bool("hist", false);
    spec.pdes_workers = exec::workers_flag(flags);
    if (flags.has("algo")) {
      const std::string name = flags.get("algo", "");
      spec.algo = coll::parse_algo(name);
      if (!spec.algo) throw std::runtime_error("unknown --algo '" + name + "'");
    }
  });
  spec.collective = coll;
  spec.collect_metrics = !inst.metrics_path.empty();

  harness::SweepResult sweep;
  try {
    sweep = harness::run_sweep(spec);
    if (inst.blame) {
      // Only the final size is reported, so only it is traced.
      const std::size_t last = sweep.points.back().elements;
      for (const harness::PaperVariant v : sweep.variants) {
        trace::Recorder recorder(/*capacity=*/std::size_t{1} << 20);
        harness::RunSpec run = harness::sweep_cell(spec, v, last);
        run.collect_metrics = false;
        run.trace = &recorder;
        inst.add_blame(recorder, harness::run_collective(run),
                       std::string(harness::variant_name(v)), last);
      }
    }
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const Table table = sweep.to_table();
  std::cout << "\n=== " << figure << " (" << harness::collective_name(coll)
            << ", 48 cores; latency in virtual microseconds) ===\n";
  table.print(std::cout);
  std::cout << "\nAverage speedup vs blocking over the sweep:\n";
  for (const auto v : sweep.variants) {
    if (v == harness::PaperVariant::kBlocking) continue;
    std::cout << "  " << harness::variant_name(v) << ": "
              << strprintf("%.2fx", sweep.mean_speedup_vs_blocking(v)) << '\n';
  }
  inst.metrics = std::move(sweep.metrics);
  write_outputs(figure, table, inst, hist ? histogram_members(sweep) : "");
  return 0;
}

}  // namespace scc::bench
