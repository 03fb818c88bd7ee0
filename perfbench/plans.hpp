// Workload definitions: the op list each workload runs, generated from the
// seed and sized from --seconds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/traffic.hpp"
#include "machine/config.hpp"

namespace perfbench {

enum class WorkloadKind {
  kFig9Grid,
  kTrafficSteady,
  kTrafficOverload,
  kPdesAllreduce,
};

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] WorkloadKind parse_workload(const std::string& name);

/// The six Fig. 9 collectives.
[[nodiscard]] const std::vector<scc::harness::Collective>& fig9_collectives();

/// A derived, well-mixed 64-bit value (splitmix64 of seed + salt).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t salt);

/// One fig9_grid / pdes_allreduce op: a closed-loop harness call on a fresh
/// machine, verify on, one warm-up and one measured repetition.
[[nodiscard]] scc::harness::RunSpec closed_loop_spec(
    scc::harness::Collective c, scc::harness::PaperVariant v, std::size_t n,
    std::uint64_t seed);

struct Plan {
  /// Exactly one of the two lists is filled.
  std::vector<scc::harness::RunSpec> runs;
  std::vector<scc::harness::TrafficSpec> traffic;
  scc::machine::SccConfig machine_config;
  int pdes_workers = 0;
  std::string describe;

  [[nodiscard]] bool is_traffic() const { return !traffic.empty(); }
  [[nodiscard]] std::size_t size() const {
    return is_traffic() ? traffic.size() : runs.size();
  }
  /// Ops counted by host_ops_per_s: requests on traffic, one otherwise.
  [[nodiscard]] std::uint64_t requests_of(std::size_t i) const;
};

[[nodiscard]] Plan make_plan(WorkloadKind kind, std::uint64_t seed,
                             int seconds);

}  // namespace perfbench
