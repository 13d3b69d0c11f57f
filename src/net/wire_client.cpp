#include "net/wire_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace zh::net {
namespace {

constexpr std::size_t kMaxTcpFrame = 65535;

bool make_addr(const std::string& host, std::uint16_t port, sockaddr_in* out) {
  std::memset(out, 0, sizeof *out);
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1;
}

/// Waits for readability/writability with a deadline; false on timeout.
bool wait_fd(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  for (;;) {
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n > 0) return true;
    if (n == 0) return false;
    if (errno != EINTR) return false;
  }
}

/// Writes all of `bytes` to a blocking socket.
bool write_all(int fd, const std::uint8_t* bytes, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd, bytes + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

std::vector<std::uint8_t> frame(const std::vector<std::uint8_t>& wire) {
  std::vector<std::uint8_t> framed;
  framed.reserve(wire.size() + 2);
  framed.push_back(static_cast<std::uint8_t>(wire.size() >> 8));
  framed.push_back(static_cast<std::uint8_t>(wire.size() & 0xff));
  framed.insert(framed.end(), wire.begin(), wire.end());
  return framed;
}

}  // namespace

ClientResult WireClient::query_udp(const dns::Message& query,
                                   int timeout_ms) const {
  ClientResult result;
  sockaddr_in addr{};
  if (!make_addr(host_, port_, &addr)) {
    result.error = "bad address " + host_;
    return result;
  }
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    result.error = "socket: " + std::string(std::strerror(errno));
    return result;
  }
  const std::vector<std::uint8_t> wire = query.to_wire();
  if (::sendto(fd, wire.data(), wire.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    result.error = "sendto: " + std::string(std::strerror(errno));
    ::close(fd);
    return result;
  }
  // Responses to a stale id (from a previous timed-out ask on a fresh
  // socket) cannot arrive here — the socket is per-query — so the first
  // datagram is the answer.
  if (!wait_fd(fd, POLLIN, timeout_ms)) {
    result.timed_out = true;
    ::close(fd);
    return result;
  }
  std::uint8_t buffer[65535];
  const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
  ::close(fd);
  if (n < 0) {
    result.error = "recv: " + std::string(std::strerror(errno));
    return result;
  }
  result.wire.assign(buffer, buffer + n);
  result.message = dns::Message::from_wire(result.wire);
  if (!result.message) result.error = "malformed response";
  return result;
}

ClientResult WireClient::query_tcp(const dns::Message& query,
                                   int timeout_ms) const {
  ClientResult result;
  TcpSession session(host_, port_, timeout_ms);
  if (!session.connected()) {
    result.error = "connect failed";
    return result;
  }
  if (!session.send(query)) {
    result.error = "send failed";
    return result;
  }
  const auto payload = session.read_frame(timeout_ms);
  if (!payload) {
    if (session.closed_by_peer())
      result.error = "connection closed";
    else
      result.timed_out = true;
    return result;
  }
  result.wire = *payload;
  result.message = dns::Message::from_wire(result.wire);
  if (!result.message) result.error = "malformed response";
  return result;
}

ClientResult WireClient::query(const dns::Message& query, int timeout_ms,
                               bool retry_tcp) const {
  ClientResult result = query_udp(query, timeout_ms);
  if (retry_tcp && result.message && result.message->header.tc) {
    result = query_tcp(query, timeout_ms);
    result.tcp_fallback = true;
  }
  return result;
}

bool WireClient::send_raw_udp(std::span<const std::uint8_t> bytes) const {
  sockaddr_in addr{};
  if (!make_addr(host_, port_, &addr)) return false;
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  const ssize_t n =
      ::sendto(fd, bytes.data(), bytes.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  ::close(fd);
  return n == static_cast<ssize_t>(bytes.size());
}

TcpSession::TcpSession(const std::string& host, std::uint16_t port,
                       int timeout_ms, int rcvbuf) {
  sockaddr_in addr{};
  if (!make_addr(host, port, &addr)) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return;
  if (rcvbuf > 0)
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  // Blocking connect is fine on loopback (instant SYN/ACK or instant
  // ECONNREFUSED); timeout_ms only governs reads.
  (void)timeout_ms;
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    ::close(fd);
    return;
  }
  fd_ = fd;
}

TcpSession::~TcpSession() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpSession::reset() {
  if (fd_ < 0) return;
  const linger hard_close{.l_onoff = 1, .l_linger = 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard_close, sizeof hard_close);
  ::close(fd_);
  fd_ = -1;
}

bool TcpSession::send(const dns::Message& message) {
  const std::vector<std::uint8_t> framed = frame(message.to_wire());
  return send_raw(framed);
}

bool TcpSession::send_raw(std::span<const std::uint8_t> bytes) {
  if (fd_ < 0) return false;
  return write_all(fd_, bytes.data(), bytes.size());
}

bool TcpSession::fill(std::size_t need, int timeout_ms) {
  while (buffer_.size() < need) {
    if (!wait_fd(fd_, POLLIN, timeout_ms)) return false;
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) {
      closed_ = true;
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      closed_ = true;
      return false;
    }
    buffer_.insert(buffer_.end(), chunk, chunk + n);
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> TcpSession::read_frame(
    int timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  if (!fill(2, timeout_ms)) return std::nullopt;
  const std::size_t length =
      (static_cast<std::size_t>(buffer_[0]) << 8) | buffer_[1];
  if (length == 0 || length > kMaxTcpFrame) {
    closed_ = true;
    return std::nullopt;
  }
  if (!fill(2 + length, timeout_ms)) return std::nullopt;
  std::vector<std::uint8_t> payload(buffer_.begin() + 2,
                                    buffer_.begin() + 2 + length);
  buffer_.erase(buffer_.begin(), buffer_.begin() + 2 + length);
  return payload;
}

}  // namespace zh::net
