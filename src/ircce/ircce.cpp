#include "ircce/ircce.hpp"

#include <algorithm>

#include "rcce/protocol.hpp"

namespace scc::ircce {

namespace {
/// Wildcard receives must busy-poll across all potential senders' flags;
/// this is the probe spacing (core cycles).
constexpr std::uint64_t kAnySourcePollCycles = 300;
}  // namespace

Ircce::List::iterator Ircce::find_send(RequestId id) {
  return std::find_if(sends_.begin(), sends_.end(),
                      [&](const Request& r) { return r.id == id; });
}

Ircce::List::iterator Ircce::find_recv(RequestId id) {
  return std::find_if(recvs_.begin(), recvs_.end(),
                      [&](const Request& r) { return r.id == id; });
}

sim::Task<RequestId> Ircce::isend(std::span<const std::byte> data, int dest) {
  auto& api = rcce_->api();
  SCC_EXPECTS(dest >= 0 && dest < rcce_->num_cores() && dest != rank());
  co_await api.overhead(api.cost().sw.ircce_issue);
  Request req;
  req.id = next_id_++;
  req.is_send = true;
  req.peer = dest;
  req.sdata = data;
  sends_.push_back(req);
  co_await progress_sends();
  co_return req.id;
}

sim::Task<RequestId> Ircce::irecv(std::span<std::byte> data, int src) {
  auto& api = rcce_->api();
  SCC_EXPECTS(src == kAnySource ||
              (src >= 0 && src < rcce_->num_cores() && src != rank()));
  co_await api.overhead(api.cost().sw.ircce_issue);
  Request req;
  req.id = next_id_++;
  req.is_send = false;
  req.peer = src;
  req.rdata = data;
  req.state = State::kPosted;
  recvs_.push_back(req);
  co_return req.id;
}

sim::Task<> Ircce::progress_sends() {
  if (chunk_busy_) co_return;
  for (Request& req : sends_) {
    if (req.state == State::kQueued) {
      const std::size_t chunk =
          std::min(rcce_->layout().chunk_bytes(), req.sdata.size());
      co_await rcce::stage_and_signal(rcce_->api(), rcce_->layout(),
                                req.sdata.first(chunk), req.peer);
      req.state = State::kStaged;
      chunk_busy_ = true;
      co_return;
    }
    if (req.state == State::kStaged) co_return;  // chunk already in use
  }
}

sim::Task<> Ircce::complete_send(List::iterator it) {
  auto& api = rcce_->api();
  const rcce::Layout& layout = rcce_->layout();
  // FIFO staging discipline: everything queued ahead of us must finish
  // first (they hold or will hold the payload chunk).
  while (sends_.begin() != it) {
    co_await complete_send(sends_.begin());
  }
  if (it->state == State::kQueued) {
    SCC_ASSERT(!chunk_busy_);
    co_await progress_sends();
  }
  SCC_ASSERT(it->state == State::kStaged);
  const std::size_t total = it->sdata.size();
  std::size_t done = std::min(layout.chunk_bytes(), total);
  co_await rcce::await_ack(api, layout, it->peer);
  chunk_busy_ = false;
  // Remaining chunks of an oversized message are pushed synchronously.
  while (done < total) {
    const std::size_t len = std::min(layout.chunk_bytes(), total - done);
    co_await rcce::stage_and_signal(api, layout, it->sdata.subspan(done, len),
                              it->peer);
    co_await rcce::await_ack(api, layout, it->peer);
    done += len;
  }
  co_await api.overhead(api.cost().sw.ircce_complete);
  sends_.erase(it);
  co_await progress_sends();
}

Ircce::List::iterator Ircce::first_blocker(List::iterator it) {
  for (auto j = recvs_.begin(); j != it; ++j) {
    if (j->peer == kAnySource ||
        (it->peer != kAnySource && j->peer == it->peer)) {
      return j;
    }
  }
  return recvs_.end();
}

bool Ircce::claimed_by_earlier(List::const_iterator it, int src) const {
  for (auto j = recvs_.begin(); j != it; ++j) {
    if (j->peer == src) return true;
  }
  return false;
}

sim::Task<int> Ircce::resolve_any_source(List::iterator it) {
  auto& api = rcce_->api();
  const rcce::Layout& layout = rcce_->layout();
  for (;;) {
    for (int src = 0; src < rcce_->num_cores(); ++src) {
      if (src == rank()) continue;
      // A channel whose head belongs to an earlier directed receive is
      // invisible to this wildcard (draining that receive instead could
      // block on a message that is legitimately still far away).
      if (claimed_by_earlier(it, src)) continue;
      if (co_await rcce::sent_is_up(api, layout, src)) co_return src;
    }
    co_await api.charge(machine::Phase::kFlagWait,
                        api.cost().hw.core_clock().cycles(kAnySourcePollCycles));
  }
}

sim::Task<> Ircce::complete_recv(List::iterator it) {
  auto& api = rcce_->api();
  const rcce::Layout& layout = rcce_->layout();
  // FIFO-fair matching (MPI envelope order): a staged message from source s
  // belongs to the EARLIEST still-posted receive that can match s.
  // Completing `it` past such a receive would steal its channel head --
  // wrong data, and a completion set that flips with perturbation seeds
  // depending on who polls first. Drain blockers in posting order; each
  // recursive completion erases its node, so positions strictly decrease.
  for (auto blocker = first_blocker(it); blocker != recvs_.end();
       blocker = first_blocker(it)) {
    co_await complete_recv(blocker);
  }
  int src = it->peer;
  if (src == kAnySource) {
    src = co_await resolve_any_source(it);
    it->peer = src;
  }
  const std::size_t total = it->rdata.size();
  std::size_t done = 0;
  do {
    const std::size_t len = std::min(layout.chunk_bytes(), total - done);
    co_await rcce::await_and_fetch(api, layout, it->rdata.subspan(done, len), src);
    co_await rcce::ack_sender(api, layout, src);
    done += len;
  } while (done < total);
  co_await api.overhead(api.cost().sw.ircce_complete);
  completed_sources_.emplace_back(it->id, src);
  if (completed_sources_.size() > 64) completed_sources_.pop_front();
  recvs_.erase(it);
}

sim::Task<bool> Ircce::test(RequestId id) {
  auto& api = rcce_->api();
  const rcce::Layout& layout = rcce_->layout();
  if (auto it = find_send(id); it != sends_.end()) {
    co_await progress_sends();
    if (it->state == State::kStaged && sends_.begin() == it &&
        co_await api.flag_peek(layout.ready_flag(rank(), it->peer)) != 0 &&
        it->sdata.size() <= layout.chunk_bytes()) {
      co_await complete_send(it);
      co_return true;
    }
    co_return false;
  }
  if (auto it = find_recv(id); it != recvs_.end()) {
    // FIFO-fair matching: while an earlier receive has first claim on this
    // one's channel, test() must answer false rather than either stealing
    // the blocker's message or blocking to drain it.
    if (first_blocker(it) != recvs_.end()) co_return false;
    const int src = it->peer;
    if (it->rdata.size() > layout.chunk_bytes()) co_return false;
    if (src != kAnySource && co_await sent_is_up(api, layout, src)) {
      co_await complete_recv(it);
      co_return true;
    }
    if (src == kAnySource) {
      for (int candidate = 0; candidate < rcce_->num_cores(); ++candidate) {
        if (candidate == rank()) continue;
        if (claimed_by_earlier(it, candidate)) continue;
        if (co_await rcce::sent_is_up(api, layout, candidate)) {
          it->peer = candidate;
          co_await complete_recv(it);
          co_return true;
        }
      }
    }
    co_return false;
  }
  co_return true;  // unknown == already completed
}

sim::Task<> Ircce::wait(RequestId id) {
  if (auto it = find_send(id); it != sends_.end()) {
    co_await complete_send(it);
    co_return;
  }
  if (auto it = find_recv(id); it != recvs_.end()) {
    co_await complete_recv(it);
    co_return;
  }
}

sim::Task<> Ircce::wait_all(std::span<const RequestId> ids) {
  // One send + one concrete-source receive with either message exceeding
  // one MPB chunk: the receive-first policy below deadlocks (each peer's
  // next send chunk waits behind its own unfinished receive; see
  // rcce::complete_exchange), so complete both interleaved. Single-chunk
  // exchanges keep the historical sequence and timing.
  if (ids.size() == 2 && sends_.size() == 1 && recvs_.size() == 1) {
    const auto sit = sends_.begin();
    const auto rit = recvs_.begin();
    const bool ours = (ids[0] == sit->id && ids[1] == rit->id) ||
                      (ids[0] == rit->id && ids[1] == sit->id);
    const std::size_t chunk = rcce_->layout().chunk_bytes();
    if (ours && rit->peer != kAnySource && sit->state == State::kStaged &&
        (sit->sdata.size() > chunk || rit->rdata.size() > chunk)) {
      auto& api = rcce_->api();
      co_await rcce::complete_exchange(api, rcce_->layout(), sit->sdata,
                                       std::min(chunk, sit->sdata.size()),
                                       sit->peer, rit->rdata, rit->peer,
                                       kAnySourcePollCycles);
      chunk_busy_ = false;
      co_await api.overhead(api.cost().sw.ircce_complete);  // the receive's
      co_await api.overhead(api.cost().sw.ircce_complete);  // the send's
      completed_sources_.emplace_back(rit->id, rit->peer);
      if (completed_sources_.size() > 64) completed_sources_.pop_front();
      sends_.erase(sit);
      recvs_.erase(rit);
      co_return;  // sends_ is empty; nothing further to stage
    }
  }
  // Receives first, in posting order: they move the data; send
  // acknowledgements arrive as a side effect of the peers' receives.
  for (const RequestId id : ids) {
    if (find_recv(id) != recvs_.end()) co_await wait(id);
  }
  for (const RequestId id : ids) {
    if (find_send(id) != sends_.end()) co_await wait(id);
  }
}

sim::Task<bool> Ircce::cancel(RequestId id) {
  auto& api = rcce_->api();
  co_await api.overhead(api.cost().sw.ircce_complete);
  if (auto it = find_send(id); it != sends_.end()) {
    if (it->state != State::kQueued) co_return false;  // already on the wire
    sends_.erase(it);
    co_return true;
  }
  if (auto it = find_recv(id); it != recvs_.end()) {
    recvs_.erase(it);
    co_return true;
  }
  co_return false;
}

int Ircce::source_of(RequestId id) const {
  for (const auto& [rid, src] : completed_sources_) {
    if (rid == id) return src;
  }
  return kAnySource;
}

}  // namespace scc::ircce
