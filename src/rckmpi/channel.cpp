#include "rckmpi/channel.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "machine/scc_machine.hpp"

namespace scc::rckmpi {

namespace {
/// Duplex progress loop poll spacing when neither direction can move.
constexpr std::uint64_t kDuplexPollCycles = 150;
}  // namespace

ChannelLayout::ChannelLayout(const rcce::Layout& base)
    : base_(&base),
      flag_base_(base.flags_needed()),
      stats_(static_cast<std::size_t>(base.num_cores())) {
  // Divide the payload area into one ring per peer, whole lines each.
  const std::size_t per_peer =
      base.payload_bytes() / static_cast<std::size_t>(base.num_cores());
  ring_lines_ = static_cast<std::uint32_t>(per_peer / mem::kCacheLineBytes);
  // In-flight lines must stay well under the mod-256 counter ambiguity;
  // tiny meshes would otherwise get huge rings (the real RCKMPI also caps
  // its per-peer region).
  ring_lines_ = std::min<std::uint32_t>(ring_lines_, 64);
  SCC_EXPECTS(ring_lines_ >= 2);  // header + at least one payload line
}

mem::MpbAddr ChannelLayout::ring_line(int at_core, int from,
                                      std::uint32_t line_index) const {
  const std::size_t region =
      static_cast<std::size_t>(from) * ring_bytes();
  const std::size_t line_off =
      static_cast<std::size_t>(line_index % ring_lines_) *
      mem::kCacheLineBytes;
  return base_->payload_addr(at_core, region + line_off);
}

ChannelStats ChannelLayout::stats() const {
  ChannelStats total;
  for (const ChannelStats& s : stats_) {
    total.messages += s.messages;
    total.header_lines += s.header_lines;
    total.payload_lines += s.payload_lines;
    total.credit_updates += s.credit_updates;
    total.credit_stalls += s.credit_stalls;
    total.progress_polls += s.progress_polls;
  }
  return total;
}

machine::FlagRef ChannelLayout::filled_flag(int at_core, int from) const {
  return {at_core, flag_base_ + from};
}

machine::FlagRef ChannelLayout::free_flag(int at_core, int from) const {
  return {at_core, flag_base_ + num_cores() + from};
}

Channel::Channel(machine::CoreApi& api, const ChannelLayout& layout)
    : api_(&api),
      layout_(&layout),
      tx_(static_cast<std::size_t>(layout.num_cores())),
      rx_(static_cast<std::size_t>(layout.num_cores())) {}

void Channel::advance_counter(std::uint32_t& counter,
                              std::uint8_t flag_value) {
  const std::uint8_t delta =
      static_cast<std::uint8_t>(flag_value - static_cast<std::uint8_t>(counter));
  counter += delta;
}

Channel::Refresh Channel::refresh_tx(int dest) {
  return {api_->flag_peek(layout_->free_flag(rank(), dest)),
          &tx_[static_cast<std::size_t>(dest)].lines_acked};
}

Channel::Refresh Channel::refresh_rx(int src) {
  return {api_->flag_peek(layout_->filled_flag(rank(), src)),
          &rx_[static_cast<std::size_t>(src)].lines_written};
}

std::uint32_t Channel::tx_credits(int dest) const {
  const auto& pair = tx_[static_cast<std::size_t>(dest)];
  SCC_ASSERT(pair.lines_sent - pair.lines_acked <= layout_->ring_lines());
  return layout_->ring_lines() - (pair.lines_sent - pair.lines_acked);
}

std::uint32_t Channel::rx_available(int src) const {
  const auto& pair = rx_[static_cast<std::size_t>(src)];
  return pair.lines_written - pair.lines_consumed;
}

sim::Task<bool> Channel::incoming(int src) {
  co_await refresh_rx(src);
  co_return rx_available(src) > 0;
}

sim::Task<> Channel::push_burst(int dest, std::span<const std::byte> payload,
                                int tag, std::uint32_t& line_cursor,
                                std::uint32_t max_lines) {
  auto& pair = tx_[static_cast<std::size_t>(dest)];
  const std::uint32_t payload_lines =
      static_cast<std::uint32_t>(mem::lines_for(payload.size()));
  const std::uint32_t total_lines = 1 + payload_lines;
  const std::uint32_t burst =
      std::min(max_lines, total_lines - line_cursor);
  SCC_EXPECTS(burst > 0);
  // Charge: user-buffer read for the payload part + the remote MPB write.
  if (line_cursor >= 1 || burst > 1) {
    const std::size_t first_byte =
        (line_cursor == 0 ? 0
                          : (static_cast<std::size_t>(line_cursor) - 1) *
                                mem::kCacheLineBytes);
    const std::size_t last_byte = std::min(
        payload.size(),
        static_cast<std::size_t>(line_cursor + burst - 1) *
            mem::kCacheLineBytes);
    if (last_byte > first_byte) {
      co_await api_->priv_read(payload.data() + first_byte,
                               last_byte - first_byte);
    }
  }
  // Functional effect: header and/or payload lines into the (possibly
  // remote, possibly other-partition) ring. The lines are STAGED here into
  // storage the apply callable owns -- exactly the bytes the old
  // charge-then-window idiom wrote, at the same ring addresses -- and the
  // stores run at the charge's completion via mpb_apply_write (inline on a
  // serial machine, posted to the ring owner's partition otherwise).
  ChannelStats& stats = layout_->stats(rank());
  struct StagedLine {
    mem::MpbAddr addr;
    std::size_t len;
  };
  std::vector<StagedLine> lines;
  lines.reserve(burst);
  std::vector<std::byte> bytes;
  bytes.reserve(static_cast<std::size_t>(burst) * mem::kCacheLineBytes);
  for (std::uint32_t i = 0; i < burst; ++i) {
    const std::uint32_t msg_line = line_cursor + i;
    const mem::MpbAddr addr =
        layout_->ring_line(dest, rank(), pair.lines_sent + i);
    if (msg_line == 0) {
      ++stats.messages;
      ++stats.header_lines;
      PacketHeader header;
      header.tag = tag;
      header.bytes = static_cast<std::uint32_t>(payload.size());
      const auto* p = reinterpret_cast<const std::byte*>(&header);
      bytes.insert(bytes.end(), p, p + sizeof(header));
      lines.push_back({addr, sizeof(header)});
    } else {
      ++stats.payload_lines;
      const std::size_t off =
          (static_cast<std::size_t>(msg_line) - 1) * mem::kCacheLineBytes;
      const std::size_t len =
          std::min(mem::kCacheLineBytes, payload.size() - off);
      bytes.insert(bytes.end(), payload.data() + off,
                   payload.data() + off + len);
      lines.push_back({addr, len});
    }
  }
  // The callable MUST be a named local, not a temporary inside the
  // co_await expression: GCC 12 promotes co_await full-expression
  // temporaries into the coroutine frame by bitwise copy after the move
  // into the callee's parameter, leaving a stale alias whose destructor
  // double-frees the staged buffers (GCC PR 99576 family).
  sim::SmallCallable apply([m = &api_->machine(), lines = std::move(lines),
                            bytes = std::move(bytes)] {
    std::size_t off = 0;
    for (const StagedLine& line : lines) {
      m->mpb().write(line.addr, std::span<const std::byte>(bytes.data() + off,
                                                           line.len));
      off += line.len;
    }
  });
  co_await api_->mpb_apply_write(
      dest, static_cast<std::size_t>(burst) * mem::kCacheLineBytes,
      std::move(apply));
  pair.lines_sent += burst;
  line_cursor += burst;
  co_await api_->flag_set(layout_->filled_flag(dest, rank()),
                          static_cast<std::uint8_t>(pair.lines_sent));
  co_await api_->overhead(api_->cost().sw.mpi_packet);
}

sim::Task<PacketHeader> Channel::read_header(int src) {
  auto& pair = rx_[static_cast<std::size_t>(src)];
  co_await refresh_rx(src);
  while (rx_available(src) == 0) {
    const auto value = co_await api_->flag_wait_change(
        layout_->filled_flag(rank(), src),
        static_cast<std::uint8_t>(pair.lines_written));
    advance_counter(pair.lines_written, value);
  }
  // The ring lives in the receiver's own MPB: a LOCAL access (hit by the
  // arbiter-bug workaround like every local MPB access).
  co_await api_->mpb_charge(rank(), mem::kCacheLineBytes, /*is_read=*/true);
  PacketHeader header;
  auto window = api_->mpb_window(
      layout_->ring_line(rank(), src, pair.lines_consumed),
      mem::kCacheLineBytes);
  std::memcpy(&header, window.data(), sizeof(header));
  SCC_ASSERT(header.magic == PacketHeader{}.magic);
  pair.lines_consumed += 1;
  ++layout_->stats(rank()).credit_updates;
  co_await api_->flag_set(layout_->free_flag(src, rank()),
                          static_cast<std::uint8_t>(pair.lines_consumed));
  co_await api_->overhead(api_->cost().sw.mpi_match_attempt);
  co_return header;
}

sim::Task<> Channel::drain_burst(int src, std::span<std::byte> data,
                                 std::size_t& byte_cursor,
                                 std::uint32_t max_lines) {
  auto& pair = rx_[static_cast<std::size_t>(src)];
  const std::uint32_t remaining_lines = static_cast<std::uint32_t>(
      mem::lines_for(data.size() - byte_cursor));
  const std::uint32_t burst = std::min(max_lines, remaining_lines);
  SCC_EXPECTS(burst > 0);
  co_await api_->mpb_charge(rank(),
                            static_cast<std::size_t>(burst) *
                                mem::kCacheLineBytes,
                            /*is_read=*/true);
  std::size_t chunk_begin = byte_cursor;
  for (std::uint32_t i = 0; i < burst; ++i) {
    auto window = api_->mpb_window(
        layout_->ring_line(rank(), src, pair.lines_consumed + i),
        mem::kCacheLineBytes);
    const std::size_t len =
        std::min(mem::kCacheLineBytes, data.size() - byte_cursor);
    std::memcpy(data.data() + byte_cursor, window.data(), len);
    byte_cursor += len;
  }
  pair.lines_consumed += burst;
  ++layout_->stats(rank()).credit_updates;
  co_await api_->priv_write(data.data() + chunk_begin,
                            byte_cursor - chunk_begin);
  co_await api_->flag_set(layout_->free_flag(src, rank()),
                          static_cast<std::uint8_t>(pair.lines_consumed));
  co_await api_->overhead(api_->cost().sw.mpi_packet);
}

sim::Task<> Channel::send(std::span<const std::byte> data, int dest,
                          int tag) {
  SCC_EXPECTS(dest >= 0 && dest < layout_->num_cores() && dest != rank());
  co_await api_->overhead(api_->cost().sw.mpi_call);
  auto& pair = tx_[static_cast<std::size_t>(dest)];
  const std::uint32_t total_lines =
      1 + static_cast<std::uint32_t>(mem::lines_for(data.size()));
  std::uint32_t cursor = 0;
  while (cursor < total_lines) {
    co_await refresh_tx(dest);
    if (tx_credits(dest) == 0) {
      ++layout_->stats(rank()).credit_stalls;
      const auto value = co_await api_->flag_wait_change(
          layout_->free_flag(rank(), dest),
          static_cast<std::uint8_t>(pair.lines_acked));
      advance_counter(pair.lines_acked, value);
      continue;
    }
    co_await push_burst(dest, data, tag, cursor, tx_credits(dest));
  }
}

sim::Task<> Channel::recv(std::span<std::byte> data, int src, int tag) {
  SCC_EXPECTS(src >= 0 && src < layout_->num_cores() && src != rank());
  co_await api_->overhead(api_->cost().sw.mpi_call);
  const PacketHeader header = co_await read_header(src);
  SCC_EXPECTS(tag == kAnyTag || header.tag == tag);
  SCC_EXPECTS(header.bytes == data.size());
  std::size_t cursor = 0;
  auto& pair = rx_[static_cast<std::size_t>(src)];
  while (cursor < data.size()) {
    co_await refresh_rx(src);
    if (rx_available(src) == 0) {
      const auto value = co_await api_->flag_wait_change(
          layout_->filled_flag(rank(), src),
          static_cast<std::uint8_t>(pair.lines_written));
      advance_counter(pair.lines_written, value);
      continue;
    }
    co_await drain_burst(src, data, cursor, rx_available(src));
  }
}

sim::Task<> Channel::sendrecv(std::span<const std::byte> sdata, int dest,
                              std::span<std::byte> rdata, int src, int tag,
                              std::uint32_t call_overhead_cycles) {
  SCC_EXPECTS(dest >= 0 && dest < layout_->num_cores() && dest != rank());
  SCC_EXPECTS(src >= 0 && src < layout_->num_cores() && src != rank());
  co_await api_->overhead(call_overhead_cycles != 0
                              ? call_overhead_cycles
                              : api_->cost().sw.mpi_call);
  const std::uint32_t send_total =
      1 + static_cast<std::uint32_t>(mem::lines_for(sdata.size()));
  std::uint32_t send_cursor = 0;
  bool header_done = false;
  std::size_t recv_cursor = 0;
  const auto recv_done = [&] {
    return header_done && recv_cursor >= rdata.size();
  };
  while (send_cursor < send_total || !recv_done()) {
    bool progressed = false;
    if (!recv_done()) {
      co_await refresh_rx(src);
      if (rx_available(src) > 0) {
        if (!header_done) {
          const PacketHeader header = co_await read_header(src);
          SCC_EXPECTS(tag == kAnyTag || header.tag == tag);
          SCC_EXPECTS(header.bytes == rdata.size());
          header_done = true;
        } else {
          co_await drain_burst(src, rdata, recv_cursor, rx_available(src));
        }
        progressed = true;
      }
    }
    if (send_cursor < send_total) {
      co_await refresh_tx(dest);
      if (tx_credits(dest) > 0) {
        co_await push_burst(dest, sdata, tag, send_cursor, tx_credits(dest));
        progressed = true;
      }
    }
    if (!progressed) {
      ++layout_->stats(rank()).progress_polls;
      co_await api_->charge(
          machine::Phase::kFlagWait,
          api_->cost().hw.core_clock().cycles(kDuplexPollCycles));
    }
  }
}

}  // namespace scc::rckmpi
