#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <ostream>
#include <unordered_map>

#include "common/rng.hpp"

namespace scc::mem {
namespace {

HwCostModel tiny_cache() {
  HwCostModel hw;
  hw.cache_bytes = 8 * kCacheLineBytes;  // capacity: 8 lines
  return hw;
}

TEST(Cache, ColdReadMisses) {
  CacheModel cache{HwCostModel{}};
  const auto r = cache.touch_read(0x1000, 64);
  EXPECT_EQ(r.misses, 2u);
  EXPECT_EQ(r.hits, 0u);
}

TEST(Cache, RepeatedReadHits) {
  CacheModel cache{HwCostModel{}};
  cache.touch_read(0x1000, 64);
  const auto r = cache.touch_read(0x1000, 64);
  EXPECT_EQ(r.hits, 2u);
  EXPECT_EQ(r.misses, 0u);
}

TEST(Cache, PartialLineCountsWholeLine) {
  CacheModel cache{HwCostModel{}};
  const auto r = cache.touch_read(0x1001, 1);  // 1 byte still fills a line
  EXPECT_EQ(r.misses, 1u);
  const auto r2 = cache.touch_read(0x1000, 32);
  EXPECT_EQ(r2.hits, 1u);
}

TEST(Cache, StraddlingAccessTouchesBothLines) {
  CacheModel cache{HwCostModel{}};
  const auto r = cache.touch_read(0x101E, 4);  // crosses a 32 B boundary
  EXPECT_EQ(r.misses, 2u);
}

TEST(Cache, WriteMissDoesNotAllocate) {
  CacheModel cache{HwCostModel{}};
  const auto w = cache.touch_write(0x2000, 32);
  EXPECT_EQ(w.uncached_writes, 1u);
  EXPECT_EQ(w.hits, 0u);
  // Non-write-allocate: a following read still misses.
  const auto r = cache.touch_read(0x2000, 32);
  EXPECT_EQ(r.misses, 1u);
}

TEST(Cache, DirtyEvictionCountsWriteback) {
  CacheModel cache = CacheModel{tiny_cache()};
  cache.touch_read(0x0, 32);                    // fill line 0
  EXPECT_EQ(cache.touch_write(0x0, 32).hits, 1u);  // dirty it
  // Fill 8 more lines; line 0 is the LRU victim.
  const auto r = cache.touch_read(0x100, 8 * 32);
  EXPECT_EQ(r.misses, 8u);
  EXPECT_EQ(r.writebacks, 1u);
  // Line 0 is gone.
  EXPECT_EQ(cache.touch_read(0x0, 32).misses, 1u);
}

TEST(Cache, LruKeepsRecentlyTouchedLines) {
  CacheModel cache = CacheModel{tiny_cache()};  // 8 lines
  for (std::uintptr_t a = 0; a < 8 * 32; a += 32) cache.touch_read(a, 32);
  // Refresh line 0, then insert a ninth line: line at 32 is evicted.
  cache.touch_read(0, 32);
  cache.touch_read(0x1000, 32);
  EXPECT_EQ(cache.touch_read(0, 32).hits, 1u);
  EXPECT_EQ(cache.touch_read(32, 32).misses, 1u);
}

TEST(Cache, FlushAllDropsEverything) {
  CacheModel cache{HwCostModel{}};
  cache.touch_read(0x1000, 320);
  EXPECT_GT(cache.resident_lines(), 0u);
  cache.flush_all();
  EXPECT_EQ(cache.resident_lines(), 0u);
  EXPECT_EQ(cache.touch_read(0x1000, 32).misses, 1u);
}

TEST(Cache, ZeroByteTouchIsNoop) {
  CacheModel cache{HwCostModel{}};
  const auto r = cache.touch_read(0x1000, 0);
  EXPECT_EQ(r.hits + r.misses, 0u);
}

TEST(Cache, CapacityBoundRespected) {
  CacheModel cache{HwCostModel{}};  // 256 KB = 8192 lines
  for (std::uintptr_t line = 0; line < 10000; ++line)
    cache.touch_read(line * kCacheLineBytes, 1);
  EXPECT_EQ(cache.resident_lines(), cache.capacity_lines());
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  CacheModel cache{HwCostModel{}};
  const std::size_t big = 512 * 1024;  // 2x the cache
  cache.touch_read(0, big);
  // Re-reading from the start misses again (LRU evicted the head).
  const auto r = cache.touch_read(0, 32);
  EXPECT_EQ(r.misses, 1u);
}

TEST(Cache, DeterministicForShiftedAddresses) {
  // The timing-relevant classification depends only on the ACCESS PATTERN,
  // not on where the allocator placed the buffer (full associativity) --
  // this is what makes the whole simulation reproducible run to run.
  const auto classify = [](std::uintptr_t base) {
    CacheModel cache = CacheModel{tiny_cache()};
    std::uint64_t misses = 0;
    for (int rep = 0; rep < 3; ++rep)
      for (std::uintptr_t off = 0; off < 6 * 32; off += 32)
        misses += cache.touch_read(base + off, 32).misses;
    return misses;
  };
  EXPECT_EQ(classify(0x10000), classify(0x73420));
}

// --- differential test against the reference list + map model ------------

/// The straightforward LRU model: a std::list in recency order plus a
/// std::unordered_map from line to list position. Same policy as
/// CacheModel (fully associative, true LRU, write-back, non-write-
/// allocate); CacheModel must agree with it on every access.
class ReferenceCache {
 public:
  explicit ReferenceCache(const HwCostModel& hw)
      : capacity_(hw.cache_bytes / kCacheLineBytes) {}

  CacheAccessResult touch_read(std::uintptr_t addr, std::size_t bytes) {
    CacheAccessResult result;
    if (bytes == 0) return result;
    for (std::uintptr_t line = addr / kCacheLineBytes;
         line <= (addr + bytes - 1) / kCacheLineBytes; ++line) {
      const auto it = map_.find(line);
      if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        ++result.hits;
        continue;
      }
      ++result.misses;
      if (insert(line)) ++result.writebacks;
    }
    stats_ += result;
    return result;
  }

  CacheAccessResult touch_write(std::uintptr_t addr, std::size_t bytes) {
    CacheAccessResult result;
    if (bytes == 0) return result;
    for (std::uintptr_t line = addr / kCacheLineBytes;
         line <= (addr + bytes - 1) / kCacheLineBytes; ++line) {
      const auto it = map_.find(line);
      if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        it->second.dirty = true;
        ++result.hits;
        continue;
      }
      ++result.uncached_writes;
    }
    stats_ += result;
    return result;
  }

  void flush_all() {
    lru_.clear();
    map_.clear();
  }

  [[nodiscard]] std::uint64_t resident_lines() const { return map_.size(); }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::list<std::uintptr_t>::iterator lru_pos;
    bool dirty = false;
  };

  bool insert(std::uintptr_t line) {
    lru_.push_front(line);
    map_.emplace(line, Entry{lru_.begin(), false});
    if (map_.size() <= capacity_) return false;
    const std::uintptr_t victim = lru_.back();
    lru_.pop_back();
    const auto it = map_.find(victim);
    const bool dirty = it->second.dirty;
    map_.erase(it);
    return dirty;
  }

  std::uint64_t capacity_;
  std::list<std::uintptr_t> lru_;  // front = most recently used
  std::unordered_map<std::uintptr_t, Entry> map_;
  CacheStats stats_;
};

void expect_same(const CacheAccessResult& got, const CacheAccessResult& want,
                 std::size_t step) {
  ASSERT_EQ(got.hits, want.hits) << "step " << step;
  ASSERT_EQ(got.misses, want.misses) << "step " << step;
  ASSERT_EQ(got.writebacks, want.writebacks) << "step " << step;
  ASSERT_EQ(got.uncached_writes, want.uncached_writes) << "step " << step;
}

struct DiffCase {
  std::uint32_t lines;  // capacity
  std::uint64_t seed;
};

void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << c.lines << " lines, seed " << c.seed;
}

class CacheDifferential : public ::testing::TestWithParam<DiffCase> {};

// Seeded random streams of reads and writes over a working set of twice
// the capacity: mixed spans (sub-line to several lines, unaligned), hot
// revisits of recently used addresses, write hits that dirty lines which
// later age out as dirty evictions, and occasional flushes.
TEST_P(CacheDifferential, MatchesReferenceModelAtEveryStep) {
  const DiffCase c = GetParam();
  HwCostModel hw;
  hw.cache_bytes = c.lines * static_cast<std::uint32_t>(kCacheLineBytes);
  CacheModel model{hw};
  ReferenceCache reference{hw};
  Xoshiro256 rng(c.seed);
  const std::uint64_t span_bytes = 2ULL * c.lines * kCacheLineBytes;
  const std::uintptr_t base = 0x7f3a00001000ULL;
  std::uintptr_t recent = base;
  const std::size_t steps = 8 * static_cast<std::size_t>(c.lines) + 20000;
  std::uint64_t peak_resident = 0;
  for (std::size_t step = 0; step < steps; ++step) {
    // Flushes are rare enough that even the largest cache fills up first.
    if (step == steps / 2 || rng.below(16 * c.lines) == 0) {
      model.flush_all();
      reference.flush_all();
    } else {
      // 40% revisit near the last touched address, otherwise anywhere.
      const std::uintptr_t addr =
          rng.below(10) < 4 ? recent + rng.below(4 * kCacheLineBytes)
                            : base + rng.below(span_bytes);
      const std::size_t bytes = rng.below(8) == 0
                                    ? rng.below(8 * kCacheLineBytes)
                                    : 1 + rng.below(kCacheLineBytes * 2);
      recent = addr;
      if (rng.below(100) < 65) {
        expect_same(model.touch_read(addr, bytes),
                    reference.touch_read(addr, bytes), step);
      } else {
        expect_same(model.touch_write(addr, bytes),
                    reference.touch_write(addr, bytes), step);
      }
    }
    ASSERT_EQ(model.resident_lines(), reference.resident_lines())
        << "step " << step;
    peak_resident = std::max(peak_resident, model.resident_lines());
    ASSERT_EQ(model.stats().hits, reference.stats().hits) << "step " << step;
    ASSERT_EQ(model.stats().misses, reference.stats().misses);
    ASSERT_EQ(model.stats().writebacks, reference.stats().writebacks);
    ASSERT_EQ(model.stats().uncached_writes,
              reference.stats().uncached_writes);
  }
  // The stream really filled the cache and evicted dirty lines.
  EXPECT_EQ(peak_resident, c.lines);
  EXPECT_GT(model.stats().writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, CacheDifferential,
    ::testing::Values(DiffCase{8, 1}, DiffCase{8, 2}, DiffCase{64, 3},
                      DiffCase{64, 4},
                      DiffCase{HwCostModel{}.cache_bytes / kCacheLineBytes,
                               5}),
    [](const ::testing::TestParamInfo<DiffCase>& param_info) {
      return "lines" + std::to_string(param_info.param.lines) + "_seed" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace scc::mem
