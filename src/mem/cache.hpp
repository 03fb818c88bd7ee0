// Private-memory cache model (one per simulated core).
//
// Models the P54C core's cache hierarchy as a single level with the 256 KB
// L2's capacity: 32-byte lines, LRU, write-back, non-write-allocate (the
// documented SCC L2 policies). The paper's Section IV-D argument -- "only
// the first access to a private memory address goes off-chip; later
// accesses hit the cache, masking DRAM latency" -- is exactly what this
// model reproduces, and it is why the MPB-direct Allreduce gains little
// while the arbiter-bug workaround is active.
//
// The model is deliberately FULLY ASSOCIATIVE: user buffers live at host
// heap addresses, and a set-indexed model would make simulated timing
// depend on the allocator's placement (breaking run-to-run determinism,
// a design requirement of this simulator). The cost is that conflict
// misses are not modeled -- only capacity and cold misses -- which is the
// right trade-off for reproducing the paper's cached-vs-MPB comparison.
//
// The model is a timing filter only: it classifies each touched line as
// hit or miss. Data lives in ordinary host memory.
//
// Layout (allocation-free once warm). Resident lines live in `nodes_`, a
// vector of Node that grows on demand up to capacity_lines() and never
// shrinks; the LRU order is a doubly linked list threaded through the
// nodes by 32-bit index (head = most recently used, tail = victim). A
// miss at capacity reuses the victim's node for the new line, so the
// steady state allocates nothing. `table_` maps line -> node by open
// addressing: a power-of-two array of 32-bit node indices (the key is the
// node's line), Fibonacci-hashed, linear probing, kept at most half full
// and doubled as occupancy grows (nothing is reserved up front). Eviction
// deletes by backward shift, so there are no tombstones and probe runs
// stay short.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "mem/cost_model.hpp"

namespace scc::mem {

struct CacheAccessResult {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;           // lines fetched from DRAM
  std::uint64_t writebacks = 0;       // dirty lines evicted to DRAM
  std::uint64_t uncached_writes = 0;  // write misses sent straight to DRAM
};

/// Cumulative per-core cache counters (the lifetime sum of every
/// CacheAccessResult the model handed out). Volume-type: a core's access
/// sequence is its own program order, so these are schedule-invariant and
/// the conformance harness pins them across perturbation seeds.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t uncached_writes = 0;

  CacheStats& operator+=(const CacheAccessResult& r) {
    hits += r.hits;
    misses += r.misses;
    writebacks += r.writebacks;
    uncached_writes += r.uncached_writes;
    return *this;
  }
};

class CacheModel {
 public:
  explicit CacheModel(const HwCostModel& hw);

  /// Touches [addr, addr+bytes) for reading; classifies each line.
  CacheAccessResult touch_read(std::uintptr_t addr, std::size_t bytes);

  /// Touches [addr, addr+bytes) for writing. Write hits dirty the line;
  /// write misses do NOT allocate (non-write-allocate) and are counted as
  /// uncached_writes.
  CacheAccessResult touch_write(std::uintptr_t addr, std::size_t bytes);

  /// Drops every line (cold-start experiments). Cumulative stats() survive
  /// the flush: they count accesses, not contents.
  void flush_all();

  [[nodiscard]] std::uint64_t resident_lines() const { return nodes_.size(); }
  [[nodiscard]] std::uint64_t capacity_lines() const { return capacity_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  struct Node {
    std::uintptr_t line = 0;
    std::uint32_t prev = kNil;  // toward the MRU head
    std::uint32_t next = kNil;  // toward the LRU tail
    bool dirty = false;
  };
  /// Node index of `line`, or kNil when it is not resident.
  [[nodiscard]] std::uint32_t find(std::uintptr_t line) const;
  /// Makes node `n` the most recently used.
  void make_mru(std::uint32_t n);
  /// Inserts `line` as most-recently-used; evicts LRU at capacity.
  /// Returns true when the eviction wrote back a dirty line.
  bool insert(std::uintptr_t line);

  [[nodiscard]] std::size_t home_slot(std::uintptr_t line) const;
  void unlink(std::uint32_t n);
  void push_front(std::uint32_t n);
  void table_insert(std::uint32_t n);
  void table_erase(std::uint32_t n);
  void grow_table();

  std::uint64_t capacity_;
  std::vector<Node> nodes_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::vector<std::uint32_t> table_;  // node index or kNil; size 0 or 2^k
  int table_shift_ = 64;  // 64 - log2(table_.size())
  CacheStats stats_;
};

}  // namespace scc::mem
