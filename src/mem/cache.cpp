#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

namespace scc::mem {

namespace {
constexpr std::uintptr_t line_of(std::uintptr_t addr) {
  return addr / kCacheLineBytes;
}
}  // namespace

CacheModel::CacheModel(const HwCostModel& hw)
    : capacity_(hw.cache_bytes / kCacheLineBytes) {
  SCC_EXPECTS(capacity_ > 0 && capacity_ < kNil);
}

std::size_t CacheModel::home_slot(std::uintptr_t line) const {
  // Fibonacci hashing spreads the consecutive line numbers of a buffer
  // over the whole table.
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(line) * 0x9e3779b97f4a7c15ULL) >>
      table_shift_);
}

std::uint32_t CacheModel::find(std::uintptr_t line) const {
  if (table_.empty()) return kNil;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = home_slot(line);; i = (i + 1) & mask) {
    const std::uint32_t n = table_[i];
    if (n == kNil || nodes_[n].line == line) return n;
  }
}

void CacheModel::table_insert(std::uint32_t n) {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home_slot(nodes_[n].line);
  while (table_[i] != kNil) i = (i + 1) & mask;
  table_[i] = n;
}

void CacheModel::table_erase(std::uint32_t n) {
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = home_slot(nodes_[n].line);
  for (;; hole = (hole + 1) & mask) {
    SCC_ASSERT(table_[hole] != kNil);  // node `n` must be in the table
    if (table_[hole] == n) break;
  }
  // Backward shift: pull every later member of the probe run whose home
  // slot does not lie cyclically in (hole, i] back into the hole.
  for (std::size_t i = (hole + 1) & mask; table_[i] != kNil;
       i = (i + 1) & mask) {
    const std::size_t home = home_slot(nodes_[table_[i]].line);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      table_[hole] = table_[i];
      hole = i;
    }
  }
  table_[hole] = kNil;
}

void CacheModel::grow_table() {
  const std::size_t size = table_.empty() ? 16 : 2 * table_.size();
  table_.assign(size, kNil);
  table_shift_ = 64 - std::countr_zero(size);
  // Every node but the one being filled is resident; re-add them all.
  for (std::uint32_t n = 0; n + 1 < nodes_.size(); ++n) table_insert(n);
}

void CacheModel::unlink(std::uint32_t n) {
  Node& node = nodes_[n];
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != kNil) {
    nodes_[node.next].prev = node.prev;
  } else {
    tail_ = node.prev;
  }
}

void CacheModel::push_front(std::uint32_t n) {
  Node& node = nodes_[n];
  node.prev = kNil;
  node.next = head_;
  if (head_ != kNil) {
    nodes_[head_].prev = n;
  } else {
    tail_ = n;
  }
  head_ = n;
}

void CacheModel::make_mru(std::uint32_t n) {
  if (n == head_) return;
  unlink(n);
  push_front(n);
}

bool CacheModel::insert(std::uintptr_t line) {
  bool wrote_back = false;
  std::uint32_t n;
  if (nodes_.size() < capacity_) {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{});
    if (2 * nodes_.size() > table_.size()) grow_table();
  } else {
    // At capacity: the LRU victim's node becomes the new line's node.
    n = tail_;
    wrote_back = nodes_[n].dirty;
    table_erase(n);
    unlink(n);
  }
  nodes_[n].line = line;
  nodes_[n].dirty = false;
  push_front(n);
  table_insert(n);
  return wrote_back;
}

CacheAccessResult CacheModel::touch_read(std::uintptr_t addr,
                                         std::size_t bytes) {
  CacheAccessResult result;
  if (bytes == 0) return result;
  const std::uintptr_t first = line_of(addr);
  const std::uintptr_t last = line_of(addr + bytes - 1);
  for (std::uintptr_t line = first; line <= last; ++line) {
    const std::uint32_t n = find(line);
    if (n != kNil) {
      make_mru(n);
      ++result.hits;
      continue;
    }
    ++result.misses;
    if (insert(line)) ++result.writebacks;
  }
  stats_ += result;
  return result;
}

CacheAccessResult CacheModel::touch_write(std::uintptr_t addr,
                                          std::size_t bytes) {
  CacheAccessResult result;
  if (bytes == 0) return result;
  const std::uintptr_t first = line_of(addr);
  const std::uintptr_t last = line_of(addr + bytes - 1);
  for (std::uintptr_t line = first; line <= last; ++line) {
    const std::uint32_t n = find(line);
    if (n != kNil) {
      make_mru(n);
      nodes_[n].dirty = true;
      ++result.hits;
      continue;
    }
    // Non-write-allocate: the write goes to memory without filling a line.
    ++result.uncached_writes;
  }
  stats_ += result;
  return result;
}

void CacheModel::flush_all() {
  nodes_.clear();
  head_ = kNil;
  tail_ = kNil;
  std::fill(table_.begin(), table_.end(), kNil);
}

}  // namespace scc::mem
