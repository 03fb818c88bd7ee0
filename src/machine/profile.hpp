// Per-core time-attribution counters.
//
// The paper motivates its first optimization with a profile: "cores spend
// up to 50% of their time in rcce_wait_until". These counters let the
// reproduction regenerate that profile (bench/tab_wait_profile).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/time.hpp"

namespace scc::machine {

enum class Phase : std::uint8_t {
  kCompute,      // application/reduction arithmetic
  kSwOverhead,   // library instruction-path overhead
  kMpbTransfer,  // moving bytes to/from MPBs
  kPrivMem,      // cacheable private-memory traffic
  kFlagOp,       // setting/clearing synchronization flags
  kFlagWait,     // blocked waiting on a flag (rcce_wait_until time)
  kCount
};

[[nodiscard]] constexpr std::string_view phase_name(Phase p) {
  switch (p) {
    case Phase::kCompute: return "compute";
    case Phase::kSwOverhead: return "sw-overhead";
    case Phase::kMpbTransfer: return "mpb-transfer";
    case Phase::kPrivMem: return "priv-mem";
    case Phase::kFlagOp: return "flag-op";
    case Phase::kFlagWait: return "flag-wait";
    case Phase::kCount: break;
  }
  return "?";
}

/// Per-phase virtual time, plus the number of engine events that end a
/// charge of each phase (the host-cost split of the same work).
class CoreProfile {
 public:
  void add(Phase p, SimTime t) { time_[index(p)] += t; }
  [[nodiscard]] SimTime get(Phase p) const { return time_[index(p)]; }

  void note_event(Phase p) { ++events_[index(p)]; }
  [[nodiscard]] std::uint64_t events(Phase p) const {
    return events_[index(p)];
  }

  [[nodiscard]] SimTime total() const {
    SimTime sum;
    for (const SimTime t : time_) sum += t;
    return sum;
  }

  void reset() {
    time_.fill(SimTime::zero());
    events_.fill(0);
  }

 private:
  static constexpr std::size_t index(Phase p) {
    return static_cast<std::size_t>(p);
  }
  std::array<SimTime, static_cast<std::size_t>(Phase::kCount)> time_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Phase::kCount)>
      events_{};
};

}  // namespace scc::machine
