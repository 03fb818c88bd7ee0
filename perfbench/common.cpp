#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (t.n < 20) return t;
  std::sort(v.begin(), v.end());
  // q = 1 - 10/n floored to the grid, in integer arithmetic: the rank
  // floor(q * n) then leaves at least ten samples above it.
  const std::size_t n = t.n;
  std::size_t grid = 100;
  std::size_t m = (grid * n - 10 * grid) / n;
  while (m >= grid - 1 && grid < 10000) {
    grid *= 10;
    m = (grid * n - 10 * grid) / n;
  }
  m = std::min(m, grid - 1);
  const std::size_t rank = std::max<std::size_t>(1, m * n / grid);
  t.q = static_cast<double>(m) / static_cast<double>(grid);
  t.value = v[rank - 1];
  t.ok = true;
  return t;
}

std::string tail_label(const Tail& t) {
  char buf[64];
  if (!t.ok) {
    std::snprintf(buf, sizeof buf, "n/a (n=%zu)", t.n);
  } else {
    std::snprintf(buf, sizeof buf, "p%g of n=%zu", t.q * 100.0, t.n);
  }
  return buf;
}

Spans::Scope::Scope(Spans* spans, std::string layer, std::string name)
    : spans_(spans) {
  if (spans_ == nullptr) return;
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.op = spans_->op_;
  s.parent = spans_->open_.empty() ? -1 : spans_->open_.back();
  s.start_s = seconds_since(spans_->t0_);
  index_ = static_cast<int>(spans_->spans_.size());
  spans_->spans_.push_back(std::move(s));
  spans_->open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  spans_->spans_[static_cast<std::size_t>(index_)].end_s =
      seconds_since(spans_->t0_);
  spans_->open_.pop_back();
}

std::vector<std::pair<std::string, double>> Spans::self_time() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_s - spans_[i].start_s;
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_layer[spans_[i].layer] += self[i];
  std::vector<std::pair<std::string, double>> out(by_layer.begin(),
                                                  by_layer.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

void Spans::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write spans to " + path);
  os << "{\"schema\":\"perfbench-spans-v1\",\"spans\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"op\":%llu,\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f",
                  static_cast<unsigned long long>(s.op), s.parent, s.start_s,
                  s.end_s);
    os << (i ? "," : "") << "\n{\"id\":" << i << ",\"layer\":\"" << s.layer
       << "\",\"name\":\"" << s.name << "\"," << buf << '}';
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("failed writing spans to " + path);
}

}  // namespace perfbench
