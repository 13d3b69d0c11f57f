// Minimal blocking DNS wire client for tests and bench_frontend.
//
// Speaks exactly what the Frontend serves: UDP datagrams with RFC 6891
// EDNS payload advertisement and RFC 1035 §4.2.2 length-framed TCP, with
// the zdns-style UDP→TCP retry on a TC answer. Deliberately independent
// of simnet — its whole point is to exercise the real socket path, so
// loopback interop tests compare *independent* transports, not one
// implementation against itself.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/message.hpp"

namespace zh::net {

/// Outcome of one client exchange.
struct ClientResult {
  std::optional<dns::Message> message;  // decoded response
  std::vector<std::uint8_t> wire;       // raw response bytes (empty if none)
  bool tcp_fallback = false;            // a TC answer was refetched over TCP
  bool timed_out = false;
  std::string error;  // socket-level failure description ("" when clean)
};

class WireClient {
 public:
  WireClient(std::string host, std::uint16_t port)
      : host_(std::move(host)), port_(port) {}

  /// UDP query; on a TC response retries over TCP (when `retry_tcp`) —
  /// the end-to-end path a stub resolver takes.
  ClientResult query(const dns::Message& query, int timeout_ms = 2000,
                     bool retry_tcp = true) const;

  ClientResult query_udp(const dns::Message& query,
                         int timeout_ms = 2000) const;
  ClientResult query_tcp(const dns::Message& query,
                         int timeout_ms = 2000) const;

  /// Fires raw bytes as one UDP datagram (malformed-corpus ammunition);
  /// does not wait for an answer.
  bool send_raw_udp(std::span<const std::uint8_t> bytes) const;

 private:
  std::string host_;
  std::uint16_t port_;
};

/// A persistent framed TCP connection — for pipelining, idle-reap and
/// malformed-stream tests where one socket must outlive a single query.
class TcpSession {
 public:
  /// `rcvbuf` > 0 shrinks SO_RCVBUF before connecting (kernel clamps to
  /// its minimum) — backpressure tests use it to jam the server's writes
  /// with a bounded number of bytes in flight.
  TcpSession(const std::string& host, std::uint16_t port, int timeout_ms = 2000,
             int rcvbuf = 0);
  ~TcpSession();
  TcpSession(const TcpSession&) = delete;
  TcpSession& operator=(const TcpSession&) = delete;

  bool connected() const noexcept { return fd_ >= 0; }

  /// Sends one length-framed message; false on socket failure.
  bool send(const dns::Message& message);
  /// Sends arbitrary stream bytes (no framing added).
  bool send_raw(std::span<const std::uint8_t> bytes);

  /// Reads one length-framed response payload. nullopt on timeout or when
  /// the peer closed (check closed_by_peer() to tell them apart).
  std::optional<std::vector<std::uint8_t>> read_frame(int timeout_ms = 2000);

  bool closed_by_peer() const noexcept { return closed_; }

  /// Aborts the connection: SO_LINGER {1, 0} then close, so the peer sees
  /// an RST instead of a FIN (hostile-client tests).
  void reset();

 private:
  bool fill(std::size_t need, int timeout_ms);

  int fd_ = -1;
  bool closed_ = false;
  std::vector<std::uint8_t> buffer_;
};

}  // namespace zh::net
