// Deterministic work counters of every Fig. 9 cell: one (collective,
// variant) point per row, 552 doubles, 48 cores, one warm-up and one
// measured repetition at a fixed seed. Every column is an exact integer -- the
// latency in femtoseconds, per-phase time (fs) and charge events summed
// over cores, MPB/NoC volumes, cache and flag counters, RCKMPI message
// volume, and the engine's events, parks and waiters woken -- so the
// work_counters_smoke gate can diff it against a committed baseline with
// zero tolerance. Wall-clock bands miss a 1% work regression; this
// does not.
//
//   work_counters   (takes no flags)
//
// Writes bench_results/work_counters.{csv,json}; the JSON is keyed by the
// "cell" column ("<collective>/<variant>").
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "machine/profile.hpp"

namespace {

using scc::harness::Collective;
using scc::harness::PaperVariant;
using scc::machine::Phase;

constexpr Collective kFig9[] = {
    Collective::kAllgather, Collective::kAlltoall, Collective::kReduceScatter,
    Collective::kBroadcast, Collective::kReduce,   Collective::kAllreduce};

constexpr int kPhases = static_cast<int>(Phase::kCount);
constexpr std::size_t kElements = 552;  // doubles per vector

std::vector<std::string> header() {
  std::vector<std::string> h{"cell", "latency_fs"};
  for (int p = 0; p < kPhases; ++p) {
    const std::string name{scc::machine::phase_name(static_cast<Phase>(p))};
    h.push_back(name + "_fs");
    h.push_back(name + "_events");
  }
  for (const char* column :
       {"lines_sent", "line_hops", "cache_hits", "cache_misses",
        "cache_writebacks", "cache_uncached_writes", "flag_sets",
        "rckmpi_messages", "rckmpi_payload_lines", "events", "parks",
        "waiters_woken"}) {
    h.emplace_back(column);
  }
  return h;
}

std::vector<std::string> row(Collective coll, PaperVariant variant) {
  scc::harness::RunSpec spec;
  spec.collective = coll;
  spec.variant = variant;
  spec.elements = kElements;
  spec.repetitions = 1;
  spec.warmup = 1;
  spec.seed = 42;
  spec.verify = true;
  spec.collect_profiles = true;
  spec.collect_metrics = true;
  const scc::harness::RunResult r = scc::harness::run_collective(spec);
  const auto count = [](std::uint64_t v) { return std::to_string(v); };

  std::vector<std::string> cells{
      std::string(scc::harness::collective_name(coll)) + "/" +
          std::string(scc::harness::variant_name(variant)),
      count(r.mean_latency.femtoseconds())};
  for (int p = 0; p < kPhases; ++p) {
    std::uint64_t fs = 0;
    std::uint64_t events = 0;
    for (const scc::machine::CoreProfile& prof : r.profiles) {
      fs += prof.get(static_cast<Phase>(p)).femtoseconds();
      events += prof.events(static_cast<Phase>(p));
    }
    cells.push_back(count(fs));
    cells.push_back(count(events));
  }
  scc::mem::CacheStats cache;
  for (const scc::mem::CacheStats& s : r.cache_stats) {
    cache.hits += s.hits;
    cache.misses += s.misses;
    cache.writebacks += s.writebacks;
    cache.uncached_writes += s.uncached_writes;
  }
  const scc::metrics::MetricsRegistry& m = *r.metrics;
  for (const std::uint64_t v :
       {r.lines_sent, r.line_hops, cache.hits, cache.misses, cache.writebacks,
        cache.uncached_writes, m.value_or("flags/sets", 0),
        m.value_or("rckmpi/messages", 0),
        m.value_or("rckmpi/payload_lines", 0), r.events,
        m.value_or("engine/parks", 0), m.value_or("engine/waiters_woken", 0)}) {
    cells.push_back(count(v));
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  scc::bench::read_flags(argc, argv, [](const scc::CliFlags&) {});
  scc::Table table(header());
  for (const Collective coll : kFig9) {
    for (const PaperVariant variant : scc::harness::variants_for(coll)) {
      table.add_row(row(coll, variant));
    }
  }
  std::cout << "\n=== Work counters per Fig. 9 cell (" << kElements
            << " doubles, 48 cores, warm-up 1, repetition 1) ===\n";
  table.print(std::cout);
  scc::bench::write_table("work_counters", table);
  return 0;
}
