#include "net/frontend.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "net/event_loop.hpp"

namespace zh::net {
namespace {

constexpr std::size_t kMaxTcpFrame = 65535;
constexpr std::size_t kReadChunk = 65536;

int make_socket(int type) {
  return ::socket(AF_INET, type | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

bool bind_to(int fd, const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) return false;
  return ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return 0;
  return ntohs(addr.sin_port);
}

}  // namespace

Frontend::Frontend(Dispatch dispatch, FrontendConfig config,
                   trace::Tracer* tracer)
    : dispatch_(std::move(dispatch)),
      config_(std::move(config)),
      tracer_(tracer) {}

Frontend::~Frontend() {
  for (auto& [fd, conn] : connections_) {
    if (loop_) loop_->remove(fd);
    ::close(fd);
  }
  connections_.clear();
  if (loop_) {
    if (udp_fd_ >= 0) loop_->remove(udp_fd_);
    if (tcp_fd_ >= 0) loop_->remove(tcp_fd_);
    if (reap_timer_ != 0) loop_->cancel_timer(reap_timer_);
  }
  if (udp_fd_ >= 0) ::close(udp_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
}

void Frontend::count(std::uint64_t FrontendCounters::* field,
                     const char* metric, std::uint64_t n) {
  counters_.*field += n;
  if (tracer_) tracer_->count(metric, n);
}

bool Frontend::bind_pair() {
  // TCP first: with port 0 the kernel picks one, then UDP binds the same
  // number. Another process may hold that UDP port — retry with a fresh
  // ephemeral pick a few times before giving up.
  const int attempts = config_.port == 0 ? 16 : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    tcp_fd_ = make_socket(SOCK_STREAM);
    if (tcp_fd_ < 0) break;
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (!bind_to(tcp_fd_, config_.listen, config_.port) ||
        ::listen(tcp_fd_, 128) != 0) {
      ::close(tcp_fd_);
      tcp_fd_ = -1;
      break;  // a fixed port that is taken will not free itself: fail now
    }
    const std::uint16_t port = bound_port(tcp_fd_);
    udp_fd_ = make_socket(SOCK_DGRAM);
    if (udp_fd_ >= 0 && bind_to(udp_fd_, config_.listen, port)) {
      port_ = port;
      return true;
    }
    if (udp_fd_ >= 0) ::close(udp_fd_);
    ::close(tcp_fd_);
    udp_fd_ = tcp_fd_ = -1;
    if (config_.port != 0) break;
  }
  error_ = "cannot bind udp+tcp on " + config_.listen + ":" +
           std::to_string(config_.port) + " (" + std::strerror(errno) + ")";
  return false;
}

bool Frontend::start(EventLoop& loop) {
  if (!loop.valid()) {
    error_ = "event loop invalid";
    return false;
  }
  if (!bind_pair()) return false;
  loop_ = &loop;
  loop.add(udp_fd_, EPOLLIN,
           [this](std::uint32_t events) {
             if (events & EPOLLOUT) on_udp_writable();
             if (events & EPOLLIN) on_udp_readable();
           });
  loop.add(tcp_fd_, EPOLLIN, [this](std::uint32_t) { on_accept(); });
  schedule_reap();
  return true;
}

void Frontend::schedule_reap() {
  if (config_.tcp_idle_ms <= 0 || loop_ == nullptr) return;
  const std::int64_t interval = std::max<std::int64_t>(
      1, std::min<std::int64_t>(config_.tcp_idle_ms / 4 + 1, 1000));
  reap_timer_ = loop_->add_timer(interval, [this] {
    const std::int64_t now = EventLoop::now_ms();
    std::vector<int> idle;
    for (const auto& [fd, conn] : connections_)
      if (now - conn.last_active_ms > config_.tcp_idle_ms) idle.push_back(fd);
    for (const int fd : idle) close_connection(fd, /*reaped=*/true);
    schedule_reap();
  });
}

std::optional<Frontend::Served> Frontend::serve(
    std::span<const std::uint8_t> wire, bool tcp) {
  count(&FrontendCounters::rx_bytes, "net.rx_bytes", wire.size());
  dns::DecodeResult decoded = dns::Message::decode(wire);
  if (!decoded.message) {
    count(&FrontendCounters::malformed, "net.malformed");
    if (tracer_ && tracer_->enabled())
      tracer_->instant("net", "malformed", dns::to_string(decoded.error));
    return std::nullopt;
  }
  dns::Message& query = *decoded.message;
  count(tcp ? &FrontendCounters::tcp_queries : &FrontendCounters::udp_queries,
        tcp ? "net.rx_tcp" : "net.rx_udp");
  if (pending_ >= config_.pending_budget) {
    // Same reply as a simtime::ServiceQueue shed on the virtual path.
    count(&FrontendCounters::shed, "net.shed");
    dns::Message shed = dns::Message::make_overloaded(query);
    return Served{std::move(query), std::move(shed)};
  }
  trace::Span span;
  if (tracer_ && tracer_->enabled()) {
    const dns::Question* q = query.question();
    span = tracer_->span("net", tcp ? "serve.tcp" : "serve.udp",
                         q ? q->name.to_string() : std::string{});
  }
  std::optional<dns::Message> response = dispatch_(query);
  if (!response) {
    count(&FrontendCounters::dropped, "net.dropped");
    return std::nullopt;
  }
  return Served{std::move(query), *std::move(response)};
}

std::vector<std::uint8_t> Frontend::udp_response_wire(
    const dns::Message& query, const dns::Message& response) {
  // Encode once and decide truncation from the encoded length: responses
  // that fit (the common case) cost exactly one encode.
  std::vector<std::uint8_t> wire = response.to_wire();
  if (wire.size() <= dns::udp_payload_limit(query)) return wire;
  // The same TC reply as simnet::Network::send: a UDP→TCP retry then
  // fetches the identical answer.
  count(&FrontendCounters::truncated, "net.truncated");
  return dns::Message::make_truncated(query, response).to_wire();
}

void Frontend::on_udp_readable() {
  std::uint8_t buffer[kReadChunk];
  for (;;) {
    sockaddr_storage peer{};
    socklen_t peer_len = sizeof peer;
    const ssize_t n =
        ::recvfrom(udp_fd_, buffer, sizeof buffer, 0,
                   reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (n < 0) return;  // EAGAIN: drained (edge-triggered contract)
    if (n == 0) continue;
    auto served = serve({buffer, static_cast<std::size_t>(n)}, /*tcp=*/false);
    if (!served) continue;
    std::vector<std::uint8_t> wire =
        udp_response_wire(served->query, served->response);
    count(&FrontendCounters::responses, "net.responses");
    const ssize_t sent =
        ::sendto(udp_fd_, wire.data(), wire.size(), 0,
                 reinterpret_cast<const sockaddr*>(&peer), peer_len);
    if (sent >= 0) {
      count(&FrontendCounters::tx_bytes, "net.tx_bytes",
            static_cast<std::uint64_t>(sent));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      PendingDatagram pending;
      pending.wire = std::move(wire);
      pending.peer.assign(reinterpret_cast<const std::uint8_t*>(&peer),
                          reinterpret_cast<const std::uint8_t*>(&peer) +
                              peer_len);
      udp_out_.push_back(std::move(pending));
      ++pending_;
      loop_->modify(udp_fd_, EPOLLIN | EPOLLOUT);
    }
  }
}

void Frontend::on_udp_writable() {
  while (!udp_out_.empty()) {
    PendingDatagram& pending = udp_out_.front();
    const ssize_t sent = ::sendto(
        udp_fd_, pending.wire.data(), pending.wire.size(), 0,
        reinterpret_cast<const sockaddr*>(pending.peer.data()),
        static_cast<socklen_t>(pending.peer.size()));
    if (sent < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    } else {
      count(&FrontendCounters::tx_bytes, "net.tx_bytes",
            static_cast<std::uint64_t>(sent));
    }
    udp_out_.pop_front();
    --pending_;
  }
  loop_->modify(udp_fd_, EPOLLIN);
  maybe_finish_drain();
}

void Frontend::on_accept() {
  for (;;) {
    const int fd = ::accept4(tcp_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    if (config_.tcp_sndbuf > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.tcp_sndbuf,
                   sizeof config_.tcp_sndbuf);
    count(&FrontendCounters::tcp_accepts, "net.tcp_accept");
    Connection conn;
    conn.fd = fd;
    conn.last_active_ms = EventLoop::now_ms();
    connections_.emplace(fd, std::move(conn));
    loop_->add(fd, EPOLLIN,
               [this, fd](std::uint32_t events) { on_connection(fd, events); });
  }
}

void Frontend::on_connection(int fd, std::uint32_t events) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  conn.last_active_ms = EventLoop::now_ms();
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_connection(fd, /*reaped=*/false);
    return;
  }
  if (events & EPOLLOUT) {
    if (!flush_tcp(conn)) {
      close_connection(fd, /*reaped=*/false);
      return;
    }
  }
  if (events & EPOLLIN) {
    std::uint8_t buffer[kReadChunk];
    for (;;) {
      const ssize_t n = ::read(fd, buffer, sizeof buffer);
      if (n == 0) {  // peer closed
        close_connection(fd, /*reaped=*/false);
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_connection(fd, /*reaped=*/false);
        return;
      }
      conn.in.insert(conn.in.end(), buffer, buffer + n);
    }
    parse_frames(conn);
    if (conn.fd < 0) {  // parse_frames closed it (malformed frame)
      connections_.erase(fd);
      return;
    }
  }
  maybe_finish_drain();
}

void Frontend::parse_frames(Connection& conn) {
  std::size_t offset = 0;
  while (conn.in.size() - offset >= 2) {
    const std::size_t length = (static_cast<std::size_t>(conn.in[offset]) << 8)
                               | conn.in[offset + 1];
    if (length == 0 || length > kMaxTcpFrame) {
      // A zero-length frame cannot hold a DNS header: the stream is not
      // speaking RFC 1035 §4.2.2 — drop the connection.
      count(&FrontendCounters::malformed, "net.malformed");
      loop_->remove(conn.fd);
      ::close(conn.fd);
      pending_ -= conn.queued_responses;
      conn.fd = -1;
      return;
    }
    if (conn.in.size() - offset - 2 < length) break;  // partial frame
    const std::span<const std::uint8_t> frame(conn.in.data() + offset + 2,
                                              length);
    offset += 2 + length;
    auto served = serve(frame, /*tcp=*/true);
    if (!served) continue;  // malformed frames keep the stream: framing held
    count(&FrontendCounters::responses, "net.responses");
    enqueue_tcp(conn, served->response.to_wire());
  }
  conn.in.erase(conn.in.begin(),
                conn.in.begin() + static_cast<std::ptrdiff_t>(offset));
}

void Frontend::enqueue_tcp(Connection& conn,
                           const std::vector<std::uint8_t>& wire) {
  if (wire.size() > kMaxTcpFrame) return;  // cannot be framed; drop
  conn.out.push_back(static_cast<std::uint8_t>(wire.size() >> 8));
  conn.out.push_back(static_cast<std::uint8_t>(wire.size()));
  conn.out.insert(conn.out.end(), wire.begin(), wire.end());
  ++conn.queued_responses;
  ++pending_;
  flush_tcp(conn);
}

bool Frontend::flush_tcp(Connection& conn) {
  while (conn.out_offset < conn.out.size()) {
    // MSG_NOSIGNAL: a peer that reset the stream must surface as EPIPE,
    // not as a process-killing SIGPIPE.
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                             conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_write) {
          conn.want_write = true;
          loop_->modify(conn.fd, EPOLLIN | EPOLLOUT);
        }
        return true;
      }
      return false;  // connection broken
    }
    conn.out_offset += static_cast<std::size_t>(n);
    count(&FrontendCounters::tx_bytes, "net.tx_bytes",
          static_cast<std::uint64_t>(n));
  }
  conn.out.clear();
  conn.out_offset = 0;
  pending_ -= conn.queued_responses;
  conn.queued_responses = 0;
  if (conn.want_write) {
    conn.want_write = false;
    loop_->modify(conn.fd, EPOLLIN);
  }
  return true;
}

void Frontend::close_connection(int fd, bool reaped) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  pending_ -= it->second.queued_responses;
  loop_->remove(fd);
  ::close(fd);
  connections_.erase(it);
  if (reaped) count(&FrontendCounters::tcp_reaped, "net.tcp_reap");
}

void Frontend::maybe_finish_drain() {
  if (!draining_ || loop_ == nullptr) return;
  const bool flushed = udp_out_.empty() &&
                       std::all_of(connections_.begin(), connections_.end(),
                                   [](const auto& entry) {
                                     return entry.second.out.empty();
                                   });
  if (flushed || EventLoop::now_ms() >= drain_deadline_ms_) loop_->stop();
}

void Frontend::drain_tick() {
  maybe_finish_drain();
  // Re-check on a short timer so a stalled client cannot hold the loop
  // past the grace window even if no fd event ever fires again.
  if (draining_ && !loop_->stopped())
    loop_->add_timer(20, [this] { drain_tick(); });
}

void Frontend::drain_and_stop(std::int64_t grace_ms) {
  if (loop_ == nullptr) return;
  if (tcp_fd_ >= 0) {
    loop_->remove(tcp_fd_);
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  draining_ = true;
  drain_deadline_ms_ =
      EventLoop::now_ms() + std::max<std::int64_t>(grace_ms, 0);
  drain_tick();
}

}  // namespace zh::net
