// zdns-style query exchange: retransmission with exponential per-attempt
// timeouts over the simulated network, plus UDP→TCP fallback on truncation.
// This is the client half of the virtual-time layer — the network decides a
// query's fate, the client decides how long to wait and whether to retry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "simnet/network.hpp"
#include "simtime/simtime.hpp"

namespace zh::simnet {

/// Outcome of one exchange (one question, however many wire attempts).
struct ExchangeOutcome {
  std::optional<dns::Message> response;
  /// Virtual time from the first transmission to the outcome: answered
  /// deliveries' RTT + service time, plus every exhausted attempt timeout.
  simtime::Duration elapsed;
  /// Wire sends spent, including the TCP fallback when it fired.
  unsigned attempts = 0;
  /// Every attempt was lost: the first-class Timeout outcome — the target
  /// exists but the client gave up waiting.
  bool timed_out = false;
  /// The destination is not attached at all; retransmitting cannot help,
  /// so only one attempt is spent and no timeout is accounted.
  bool unreachable = false;
  bool tcp_fallback = false;
};

/// True when a response is a transport-transient SERVFAIL — the resolver
/// marks upstream-timeout and own-deadline failures with RFC 8914 Network
/// Error / No Reachable Authority. Retrying such an exchange may succeed
/// (the resolver does not cache transient outcomes), unlike a deterministic
/// policy SERVFAIL (e.g. RFC 9276 Item 8 with EDE 27), which must be taken
/// at face value.
inline bool transient_servfail(const dns::Message& response) {
  if (response.header.rcode != dns::Rcode::kServFail || !response.edns)
    return false;
  const auto ede = response.edns->ede();
  return ede && (ede->info_code == dns::EdeCode::kNetworkError ||
                 ede->info_code == dns::EdeCode::kNoReachableAuthority);
}

/// Sends `query` with up to `policy.attempts` UDP transmissions. A lost
/// attempt advances the network clock by that attempt's timeout (the
/// client's wait); a truncated answer is refetched over TCP when the
/// policy allows. With zero loss and an attached destination this is
/// behaviourally identical to a single Network::send + TC fallback.
inline ExchangeOutcome exchange(Network& network, const IpAddress& from,
                                const IpAddress& to, const dns::Message& query,
                                const simtime::RetryPolicy& policy = {}) {
  ExchangeOutcome out;
  const simtime::Duration start = network.clock().now();
  const unsigned attempts = std::max(1u, policy.attempts);
  for (unsigned attempt = 0; attempt < attempts; ++attempt) {
    ++out.attempts;
    // A retry is a retransmission — count it (cold path: only after loss).
    if (attempt > 0) network.tracer().count("client.retransmit");
    auto response = network.send(from, to, query);
    if (!response) {
      if (!network.is_attached(to)) {
        out.unreachable = true;
        out.elapsed = network.clock().now() - start;
        return out;
      }
      network.clock().advance(policy.attempt_timeout(attempt));
      continue;
    }
    if (response->header.tc && policy.tcp_on_truncation) {
      ++out.attempts;
      out.tcp_fallback = true;
      // TCP is loss-exempt in the simulation, so this cannot fail against
      // an attached destination; keep the truncated answer if it ever did.
      if (auto tcp = network.send_tcp(from, to, query)) {
        response = std::move(tcp);
      }
    }
    out.response = std::move(response);
    out.elapsed = network.clock().now() - start;
    return out;
  }
  out.timed_out = true;
  out.elapsed = network.clock().now() - start;
  return out;
}

/// Asks one *logical query*: one question with the full client policy
/// applied. That is up to RetryPolicy::attempts wire transmissions with
/// exponential timeouts and UDP→TCP fallback on truncation (exchange()),
/// re-asked as a fresh query while the answer is a transient SERVFAIL
/// (RFC 8914 EDE 22/23 mark transport fates, not domain properties). `cd`
/// sets the checking-disabled bit: the domain scanner measures *through*
/// the resolver with CD set, the resolver prober measures the resolver
/// itself and leaves CD clear. `next_id` and `queries` are the caller's
/// wire counters: every round takes the next message ID, and `queries`
/// advances by every wire attempt. The outcome is the final round's,
/// except that `attempts` and `elapsed` span all rounds.
inline ExchangeOutcome execute_logical_query(
    Network& network, const IpAddress& from, const IpAddress& to,
    const dns::Name& qname, dns::RrType qtype, bool cd,
    const simtime::RetryPolicy& retry, std::uint16_t& next_id,
    std::uint64_t& queries) {
  const simtime::Duration start = network.clock().now();
  const unsigned rounds = std::max(1u, retry.attempts);
  unsigned attempts = 0;
  ExchangeOutcome out;
  for (unsigned round = 0; round < rounds; ++round) {
    dns::Message query =
        dns::Message::make_query(next_id++, qname, qtype, /*dnssec_ok=*/true);
    query.header.cd = cd;
    out = exchange(network, from, to, query, retry);
    queries += out.attempts;
    attempts += out.attempts;
    if (!out.response || !transient_servfail(*out.response)) break;
  }
  out.attempts = attempts;
  out.elapsed = network.clock().now() - start;
  return out;
}

}  // namespace zh::simnet
