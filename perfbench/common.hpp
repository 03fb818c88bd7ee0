// Shared pieces of the benchmark program: host clocks, order statistics with
// honest tails, the in-memory host span recorder, and the report the program
// prints. See README.md for the workloads and the metric definitions.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a non-empty sample (mean of the two middle values when even).
[[nodiscard]] double median(std::vector<double> v);

/// The highest quantile with at least ten samples beyond it, computed over
/// the sorted sample (nearest rank). `q` is 1 - 10/n rounded down to a
/// readable grid (0.01 below 0.99, 0.001 below 0.999, then 0.0001); with
/// fewer than 20 samples no such quantile exists and `ok` is false.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  std::size_t n = 0;
  bool ok = false;
};
[[nodiscard]] Tail tail_of(std::vector<double> v);

/// "p93 of 116" style label for a tail, or "n/a (n=12)".
[[nodiscard]] std::string tail_label(const Tail& t);

/// Host spans, kept in memory while the traced run executes and written out
/// at exit. Spans nest through an open-span stack; spans opened while an op
/// id is set share that id.
class Spans {
 public:
  struct Span {
    std::string name;
    std::string layer;
    std::uint64_t op = 0;
    int parent = -1;
    double start_s = 0.0;  // host seconds since the recorder was created
    double end_s = 0.0;
  };

  /// RAII span: opened on construction, closed on destruction. A null
  /// recorder makes it a no-op (the untraced run).
  class Scope {
   public:
    Scope(Spans* spans, std::string layer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int index_ = -1;
  };

  void set_op(std::uint64_t op) { op_ = op; }

  /// Self time per layer: each span's duration minus what its children
  /// cover, summed by layer, in descending order.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_time() const;

  /// Writes every span as one JSON document.
  void write_json(const std::string& path) const;

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::uint64_t op_ = 0;
};

/// One metric line of the final JSON object.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string moves;  // per-layer: the end-to-end metric it should move
};

/// What one invocation reports: the JSON fields plus human-readable lines
/// printed before it.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit,
           std::string moves = {}) {
    metrics.push_back(
        Metric{std::move(name), value, std::move(unit), std::move(moves)});
  }
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// Command-line arguments the workloads see.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out_dir;
};

/// End-to-end run of one workload with tracing off.
[[nodiscard]] Report run_workload(const Args& args,
                                  Clock::time_point process_start);

/// The traced run: the per-layer ladder plus the traced-vs-untraced checks
/// on a sample of the workload's own ops.
[[nodiscard]] Report run_ladder(const Args& args, Spans& spans);

}  // namespace perfbench
