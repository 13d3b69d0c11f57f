// The simulated Internet: a registry of addressable DNS nodes and a
// synchronous query transport with loss injection and server-side logging —
// the measurement infrastructure the paper runs on (their authoritative
// servers log source IPs to detect forwarders, §4.2).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/cost_meter.hpp"
#include "dns/message.hpp"
#include "simnet/address.hpp"
#include "simtime/latency.hpp"
#include "simtime/queue.hpp"
#include "simtime/simtime.hpp"
#include "trace/trace.hpp"

// Debug-mode enforcement of the one-thread-per-Network contract (below).
// Enabled in non-NDEBUG builds and in sanitizer builds (ZH_THREAD_CHECKS is
// defined by -DZH_SANITIZE=...), where catching a cross-thread use early is
// worth the two relaxed atomic ops per delivery.
#if !defined(NDEBUG) || defined(ZH_THREAD_CHECKS)
#define ZH_SIMNET_THREAD_CHECKS 1
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#endif

namespace zh::simnet {

/// A node's query handler: query + source address → response (nullopt means
/// the node drops the query).
using MessageHandler = std::function<std::optional<dns::Message>(
    const dns::Message&, const IpAddress& source)>;

/// One server-side log line.
struct QueryLogEntry {
  IpAddress source;
  IpAddress destination;
  dns::Question question;
};

/// On-path tampering hook: may mutate a response in flight (returns true if
/// it touched the message). Models the downgrade attacker of RFC 9276
/// Item 12 / RFC 5155 §12.1.1.
using TamperHook = std::function<bool(dns::Message& response,
                                      const IpAddress& from,
                                      const IpAddress& to)>;

/// The network. Single-threaded and deterministic: queries are synchronous
/// calls, loss is a pure function of (seed, flow, sequence).
///
/// ## Virtual time
///
/// Each Network owns a simtime::Clock. A delivery advances it by one RTT
/// sample from the latency model (two for TCP — connection setup) plus the
/// service-time conversion of the receiving handler's own SHA-1 block
/// delta; nested deliveries advance it while the outer handler runs, so
/// last_elapsed() after a send() is the full client-observed wait. Both
/// models default to inactive: with zero latency and zero service cost the
/// clock never moves and behaviour is byte-identical to the untimed
/// network. A *lost* query advances nothing — the waiting is the client's
/// (see simnet/exchange.hpp), because only the client knows its timeout.
///
/// Callers label traffic with set_flow(key): loss and jitter draws are
/// keyed on (seed, link, flow key, per-flow sequence), so one item's
/// transport fate does not depend on how many queries *other* items sent
/// before it — the property that keeps sharded campaigns comparable across
/// worker counts.
///
/// ## Threading contract: one Network per worker thread
///
/// A Network instance (and everything attached to it — servers, resolvers,
/// the whole testbed::Internet it belongs to) must only ever be driven by
/// one thread. send()/send_tcp() mutate shared state through const-free
/// paths (`truncations_`, `queries_sent_`, the query log, the loss RNG, and
/// every node handler's own caches), none of which is synchronised —
/// synchronisation would serialise exactly the hot path that sharded
/// campaigns split across workers. Parallel engines therefore give each
/// worker its own Internet (see scanner/parallel.hpp) instead of sharing
/// one.
///
/// In debug and sanitizer builds the contract is enforced: the instance
/// binds to the first thread that attaches a node or sends a query, and any
/// use from a second thread aborts with a diagnostic. A deliberate handover
/// (build on one thread, drive from another after a happens-before edge,
/// e.g. std::thread creation) must call rebind_owner_thread() first.
class Network {
 public:
  /// Registers a node. Re-attaching an address replaces its handler.
  void attach(const IpAddress& address, MessageHandler handler) {
    assert_owner_thread();
    nodes_[address] = std::move(handler);
  }

  void detach(const IpAddress& address) { nodes_.erase(address); }

  bool is_attached(const IpAddress& address) const {
    return nodes_.count(address) > 0;
  }

  std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Sends a query over simulated UDP; returns the response or nullopt on
  /// unreachable destination / simulated loss. Responses larger than the
  /// client's advertised EDNS buffer (or 512 bytes without EDNS) come back
  /// truncated: empty sections with the TC bit set (RFC 1035 §4.2.1 /
  /// RFC 6891 §4.3) — the caller must retry over TCP via send_tcp().
  std::optional<dns::Message> send(const IpAddress& from, const IpAddress& to,
                                   const dns::Message& query) {
    auto response = deliver(from, to, query);
    if (!response) return std::nullopt;
    if (response->wire_size() > dns::udp_payload_limit(query)) {
      ++truncations_;
      return dns::Message::make_truncated(query, *response);
    }
    return response;
  }

  /// Sends over simulated TCP: no size limit, no truncation, and exempt
  /// from UDP loss (the simulation's TCP stands for a reliable stream).
  std::optional<dns::Message> send_tcp(const IpAddress& from,
                                       const IpAddress& to,
                                       const dns::Message& query) {
    ++tcp_queries_;
    return deliver(from, to, query, /*udp=*/false);
  }

  std::uint64_t truncations() const noexcept { return truncations_; }
  std::uint64_t tcp_queries() const noexcept { return tcp_queries_; }

  /// The network's virtual clock (advanced by deliveries; callers advance
  /// it themselves for client-side timeout waits).
  simtime::Clock& clock() noexcept { return clock_; }
  const simtime::Clock& clock() const noexcept { return clock_; }

  void set_latency_model(simtime::LatencyModel model) {
    latency_ = std::move(model);
  }
  const simtime::LatencyModel& latency_model() const noexcept {
    return latency_;
  }

  void set_service_model(simtime::ServiceModel model) { service_ = model; }
  const simtime::ServiceModel& service_model() const noexcept {
    return service_;
  }

  /// True when any virtual-time model can move the clock. Queueing alone
  /// is excluded deliberately: with zero latency and zero service cost
  /// every request arrives, starts and completes at the same instant, so a
  /// queue can never introduce a wait on its own.
  bool time_models_active() const noexcept {
    return latency_.active() || service_.active();
  }

  /// Installs the default service queue applied to every attached node
  /// (inactive by default — see simtime/queue.hpp). Discards live queue
  /// state: configuration changes start a fresh epoch.
  void set_queue_model(simtime::QueueModel model) {
    queue_model_ = model;
    end_queue_epoch();
  }
  const simtime::QueueModel& queue_model() const noexcept {
    return queue_model_;
  }

  /// Per-destination override (e.g. one resolver vendor profile's worker
  /// pool). An *inactive* override exempts the address from the default.
  void set_queue(const IpAddress& destination, simtime::QueueModel model) {
    queue_overrides_[destination] = model;
    end_queue_epoch();
  }

  /// True when any destination can currently queue or shed.
  bool queueing_active() const noexcept {
    if (queue_model_.active()) return true;
    for (const auto& [address, model] : queue_overrides_)
      if (model.active()) return true;
    return false;
  }

  /// Cumulative queueing counters over all destinations and epochs.
  const simtime::QueueCounters& queue_counters() const noexcept {
    return queue_counters_;
  }

  /// Discards all live queue state: subsequent arrivals find every worker
  /// slot idle. Called by set_flow(), so contention is scoped to one flow
  /// (campaign item) — the property that keeps queue-enabled campaigns
  /// bit-identical for any worker count. Batch drivers that *want* their
  /// clients to contend join one epoch instead (QueueEpoch::kJoin).
  void end_queue_epoch() noexcept { queues_.clear(); }

  /// Whether a flow change starts a fresh queue epoch (the default) or
  /// keeps the live queue state so deliberately concurrent flows contend.
  enum class QueueEpoch { kNew, kJoin };

  /// Labels subsequent traffic with a flow key and restarts its sequence
  /// counter. Campaigns key flows on item identity (domain index, probe
  /// token), making loss/jitter draws independent of scan order. By
  /// default this also starts a fresh queue epoch; pass QueueEpoch::kJoin
  /// to contend with the previous flows' queue state (see
  /// simnet::concurrent_exchange).
  void set_flow(std::uint64_t key,
                QueueEpoch epoch = QueueEpoch::kNew) noexcept {
    flow_key_ = key;
    flow_seq_ = 0;
    tracer_.set_flow(key);
    if (epoch == QueueEpoch::kNew) end_queue_epoch();
  }
  std::uint64_t flow() const noexcept { return flow_key_; }

  /// Virtual time consumed by the most recent send()/send_tcp() — zero for
  /// a lost or unreachable delivery.
  simtime::Duration last_elapsed() const noexcept { return last_elapsed_; }

  /// The network's tracer (see trace/trace.hpp): deliveries, queue events
  /// and the layers above (resolver, authoritative servers) all emit into
  /// it, stamped with this network's virtual clock. Disabled by default —
  /// configure via `tracer().configure(...)`; its Metrics registry and
  /// stage accumulators are always live.
  trace::Tracer& tracer() noexcept { return tracer_; }
  const trace::Tracer& tracer() const noexcept { return tracer_; }

  /// Installs (or clears, with nullptr) the on-path attacker.
  void set_tamper(TamperHook hook) { tamper_ = std::move(hook); }
  std::uint64_t tampered_responses() const noexcept { return tampered_; }

  /// Cumulative SHA-1 blocks spent inside node handlers during send().
  std::uint64_t receiver_sha1_blocks() const noexcept {
    return receiver_sha1_blocks_;
  }

  /// Enables the paper's server-side logging for one destination.
  void enable_logging_for(const IpAddress& destination) {
    logged_destinations_.insert({destination, true});
  }

  const std::vector<QueryLogEntry>& query_log() const noexcept { return log_; }
  void clear_query_log() { log_.clear(); }

  std::uint64_t queries_sent() const noexcept { return queries_sent_; }

  /// Uniform random loss on UDP sends (0 disables). Deterministic: each
  /// drop decision is mix64(seed, flow, sequence) — no sequential RNG
  /// state, so a flow's fate is independent of other flows' traffic. TCP
  /// is exempt (reliable stream).
  void set_loss(double probability, std::uint64_t seed = 1) {
    loss_probability_ = probability;
    loss_seed_ = seed;
  }

  /// Releases the debug-mode thread binding so another thread may take the
  /// instance over (see the threading contract above). The caller is
  /// responsible for the happens-before edge between the two threads.
  /// No-op in release builds.
  void rebind_owner_thread() noexcept {
#ifdef ZH_SIMNET_THREAD_CHECKS
    owner_thread_.store(std::thread::id{}, std::memory_order_relaxed);
#endif
  }

 private:
#ifdef ZH_SIMNET_THREAD_CHECKS
  void assert_owner_thread() const {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};  // unbound
    if (owner_thread_.compare_exchange_strong(expected, self,
                                              std::memory_order_relaxed))
      return;  // first use: this thread now owns the instance
    if (expected != self) {
      std::fprintf(stderr,
                   "zh::simnet::Network: instance driven from two threads — "
                   "the one-network-per-worker contract is violated (see "
                   "simnet/network.hpp). Use one Internet per worker, or "
                   "rebind_owner_thread() for a deliberate handover.\n");
      std::abort();
    }
  }
#else
  void assert_owner_thread() const noexcept {}
#endif

  std::optional<dns::Message> deliver(const IpAddress& from,
                                      const IpAddress& to,
                                      const dns::Message& query,
                                      bool udp = true) {
    assert_owner_thread();
    ++queries_sent_;
    const std::uint64_t seq = flow_seq_++;
    last_elapsed_ = {};
    if (udp && loss_probability_ > 0.0 &&
        simtime::unit_double(simtime::mix64(
            loss_seed_ + simtime::mix64(flow_key_ + simtime::mix64(seq)))) <
            loss_probability_) {
      tracer_.instant("net", "loss");
      return std::nullopt;
    }
    const auto it = nodes_.find(to);
    if (it == nodes_.end()) return std::nullopt;
    if (logged_destinations_.count(to) > 0 && !query.questions.empty()) {
      log_.push_back(QueryLogEntry{from, to, query.questions.front()});
    }
    // RTT first (twice for TCP — connection setup), so the clock reads
    // "query arrived" when the handler runs and issues nested sends.
    const simtime::Duration start = clock_.now();
    trace::Span delivery_span;
    if (tracer_.enabled())
      delivery_span = tracer_.span("net", udp ? "deliver.udp" : "deliver.tcp",
                                   to.to_string());
    const simtime::Duration rtt = latency_.sample(from, to, flow_key_, seq);
    clock_.advance(udp ? rtt : rtt * 2);
    // Service queueing: the destination's worker pool decides when service
    // starts, or sheds the request outright when the backlog is full.
    simtime::QueueAdmission admission;
    simtime::ServiceQueue* queue = nullptr;
    if (const simtime::QueueModel* model = queue_model_for(to)) {
      queue = &queue_state(to, *model);
      admission = queue->admit(clock_.now());
      if (!admission.admitted) {
        ++queue_counters_.dropped;
        if (model->shed == simtime::QueueModel::Shed::kDrop) {
          // Like a lost datagram: nothing was served, the waiting is the
          // client's (simnet/exchange.hpp). Nothing ran since `start`, so
          // rewinding cannot disturb any other delivery frame.
          clock_.set(start);
          return std::nullopt;
        }
        last_elapsed_ = clock_.now() - start;
        return dns::Message::make_overloaded(query);
      }
      clock_.advance(admission.wait);
      ++queue_counters_.admitted;
      if (!admission.wait.zero()) {
        ++queue_counters_.delayed;
        queue_counters_.wait_ns +=
            static_cast<std::uint64_t>(admission.wait.nanos());
        if (queue->counters().max_backlog > queue_counters_.max_backlog)
          queue_counters_.max_backlog = queue->counters().max_backlog;
      }
    }
    // Attribute hash work done inside the receiving node's handler to the
    // receiver, so callers can report their own validation cost net of the
    // (synchronous, same-thread) server-side proof construction.
    const std::uint64_t before = crypto::CostMeter::sha1_blocks();
    const std::uint64_t charged_before = service_charged_blocks_;
    auto response = it->second(query, from);
    const std::uint64_t delta = crypto::CostMeter::sha1_blocks() - before;
    receiver_sha1_blocks_ += delta;
    // Service time charges each handler's *own* blocks exactly once: the
    // delta includes work nested deliveries already converted to delay
    // while this handler ran, so subtract what was charged in between.
    const std::uint64_t nested = service_charged_blocks_ - charged_before;
    const std::uint64_t own = delta > nested ? delta - nested : 0;
    service_charged_blocks_ += own;
    clock_.advance(service_.cost(own));
    if (queue) {
      // The slot is occupied from service start to completion — including
      // nested upstream waits, exactly like a recursion-in-progress holds
      // a resolver worker context.
      queue->complete(admission, clock_.now());
      queue_counters_.busy_ns +=
          static_cast<std::uint64_t>((clock_.now() - admission.start).nanos());
    }
    last_elapsed_ = clock_.now() - start;
    if (response && tamper_ && tamper_(*response, to, from)) ++tampered_;
    return response;
  }

  /// The queue model governing `to`: a per-address override wins (an
  /// inactive override exempts the address), else the network default;
  /// nullptr when no active model applies.
  const simtime::QueueModel* queue_model_for(const IpAddress& to) const {
    const auto it = queue_overrides_.find(to);
    const simtime::QueueModel& model =
        it != queue_overrides_.end() ? it->second : queue_model_;
    return model.active() ? &model : nullptr;
  }

  /// Live queue state for `to` this epoch (created idle on first use).
  simtime::ServiceQueue& queue_state(const IpAddress& to,
                                     const simtime::QueueModel& model) {
    auto it = queues_.find(to);
    if (it == queues_.end()) {
      it = queues_.emplace(to, simtime::ServiceQueue(model)).first;
      it->second.set_tracer(&tracer_);
    }
    return it->second;
  }

  std::unordered_map<IpAddress, MessageHandler, IpAddressHash> nodes_;
  std::unordered_map<IpAddress, bool, IpAddressHash> logged_destinations_;
  std::vector<QueryLogEntry> log_;
  std::uint64_t queries_sent_ = 0;
  std::uint64_t receiver_sha1_blocks_ = 0;
  std::uint64_t truncations_ = 0;
  std::uint64_t tcp_queries_ = 0;
  TamperHook tamper_;
  std::uint64_t tampered_ = 0;
  double loss_probability_ = 0.0;
  std::uint64_t loss_seed_ = 1;
  std::uint64_t flow_key_ = 0;
  std::uint64_t flow_seq_ = 0;
  simtime::Clock clock_;
  simtime::LatencyModel latency_;
  simtime::ServiceModel service_;
  simtime::Duration last_elapsed_;
  std::uint64_t service_charged_blocks_ = 0;
  simtime::QueueModel queue_model_;
  std::unordered_map<IpAddress, simtime::QueueModel, IpAddressHash>
      queue_overrides_;
  /// Live per-destination queue state for the current epoch only;
  /// queue_counters_ accumulates across epochs.
  std::unordered_map<IpAddress, simtime::ServiceQueue, IpAddressHash> queues_;
  simtime::QueueCounters queue_counters_;
  /// Adapts the virtual clock to the trace::TimeSource interface, so trace
  /// timestamps are virtual time by construction. Declared after clock_.
  struct ClockTimeSource final : trace::TimeSource {
    explicit ClockTimeSource(const simtime::Clock* clock_in)
        : clock(clock_in) {}
    std::int64_t now_ns() const override { return clock->now().nanos(); }
    const simtime::Clock* clock;
  };
  ClockTimeSource clock_source_{&clock_};
  trace::Tracer tracer_{&clock_source_};
#ifdef ZH_SIMNET_THREAD_CHECKS
  mutable std::atomic<std::thread::id> owner_thread_{};
#endif
};

}  // namespace zh::simnet
