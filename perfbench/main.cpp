// perfbench: the repository's benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 runs the workload and prints its end-to-end metrics in both
// clocks; --trace 1 runs the per-layer ladder (README.md). Human-readable
// lines come first; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when the
// run is correct, 1 when it ran but a check failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "plans.hpp"

namespace {

// Initialised before main runs: the closest the program gets to its own
// start, which setup_s counts from.
const perfbench::Clock::time_point kProcessStart = perfbench::Clock::now();

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fig9_grid|traffic_steady|traffic_overload|pdes_allreduce> "
               "--seed <n> --seconds <1..600> --trace <0|1> "
               "[--out-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  a.seconds = -1;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--out-dir") {
        a.out_dir = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value, &used);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stoi(value, &used);
      } else if (flag == "--trace") {
        trace = std::stoi(value, &used);
      } else {
        usage("unknown flag " + flag);
      }
      if (used != 0 && used != value.size()) usage("bad value for " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds < 1 || a.seconds > 600 ||
      (trace != 0 && trace != 1)) {
    usage("missing or out-of-range argument");
  }
  try {
    (void)perfbench::parse_workload(a.workload);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  a.trace = trace == 1;
  return a;
}

void print_json(const perfbench::Report& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  std::cout << "perfbench " << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << "\nmanifest: build=" << PERFBENCH_BUILD_TYPE
            << " compiler=\"" << PERFBENCH_COMPILER
            << "\" nproc=" << std::thread::hardware_concurrency()
            << " seed=" << args.seed << '\n';
  perfbench::Report report;
  try {
    if (args.trace) {
      perfbench::Spans spans;
      report = perfbench::run_ladder(args, spans);
      if (!args.out_dir.empty()) {
        const std::string path = args.out_dir + "/spans-" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".json";
        spans.write_json(path);
        report.lines.push_back("spans written to " + path);
      }
      report.lines.push_back("host self time by layer (traced run):");
      for (const auto& [layer, s] : spans.self_time()) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "  %-8s %9.3f s", layer.c_str(), s);
        report.lines.emplace_back(buf);
      }
    } else {
      report = perfbench::run_workload(args, kProcessStart);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& line : report.lines) std::cout << line << '\n';
  if (args.trace) {
    std::cout << "per-layer metrics (value unit -> end-to-end metric it "
                 "should move):\n";
  }
  for (const perfbench::Metric& m : report.metrics) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "  %-36s %16.6g %-6s", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << buf << (m.moves.empty() ? "" : " -> ") << m.moves << '\n';
  }
  for (const std::string& e : report.errors)
    std::cout << "ERROR: " << e << '\n';
  print_json(report);
  return report.correct ? 0 : 1;
}
