// Loopback interop for the real-socket frontend (src/net): a Frontend on
// an ephemeral port must serve byte-identical answers to what the in-sim
// transport (simnet::exchange) produces for the same world, query set and
// query order — over UDP, over TCP, and across the UDP→TC→TCP retry. Also
// covers the event loop itself, overload shedding, idle reaping, and the
// malformed-input corpus fired at a live socket (ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/frontend.hpp"
#include "net/wire_client.hpp"
#include "simnet/exchange.hpp"
#include "testbed/internet.hpp"

namespace zh::net {
namespace {

using dns::Message;
using dns::Name;
using dns::Rcode;
using dns::RrType;
using simnet::IpAddress;

/// Runs an EventLoop + Frontend on a worker thread; the test thread plays
/// wire client. Counters are read only after stop() joins the worker.
class ServerHarness {
 public:
  bool start(Dispatch dispatch, FrontendConfig config = {}) {
    frontend_ = std::make_unique<Frontend>(std::move(dispatch), config);
    if (!loop_.valid() || !frontend_->start(loop_)) return false;
    thread_ = std::thread([this] { loop_.run(); });
    return true;
  }

  std::uint16_t port() const { return frontend_->port(); }

  const FrontendCounters& stop() {
    if (thread_.joinable()) {
      loop_.stop();
      thread_.join();
    }
    static const FrontendCounters kNone{};
    return frontend_ ? frontend_->counters() : kNone;
  }

  ~ServerHarness() { stop(); }

 private:
  EventLoop loop_;
  std::unique_ptr<Frontend> frontend_;
  std::thread thread_;
};

// ---------------------------------------------------------------- EventLoop

TEST(EventLoop, TimersFireInDeadlineOrder) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  std::vector<int> order;
  loop.add_timer(30, [&] { order.push_back(2); });
  loop.add_timer(5, [&] { order.push_back(1); });
  loop.add_timer(60, [&] {
    order.push_back(3);
    loop.stop();
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, CancelledTimerNeverFires) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  bool fired = false;
  const std::uint64_t id = loop.add_timer(5, [&] { fired = true; });
  loop.cancel_timer(id);
  loop.add_timer(30, [&] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, StopFromAnotherThreadWakesRun) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.stop();
  });
  loop.run();  // would block forever without the cross-thread wake
  stopper.join();
  EXPECT_TRUE(loop.stopped());
}

// ------------------------------------------------- frontend transport basics

Message echo_query(std::uint16_t id, const std::string& name) {
  return Message::make_query(id, Name::must_parse(name), RrType::kA);
}

/// Dispatch used by the transport-level tests: a fixed-size TXT answer.
/// TXT character-strings cap at 255 bytes each, so large payloads are
/// spread across as many full chunks as needed (make_txt would silently
/// clamp a single long string to 255).
Dispatch txt_dispatch(std::size_t text_bytes) {
  return [text_bytes](const Message& query) -> std::optional<Message> {
    Message response = Message::make_response(query);
    response.header.aa = true;
    if (const dns::Question* q = query.question()) {
      dns::TxtRdata rd;
      for (std::size_t left = text_bytes; left > 0;) {
        const std::size_t chunk = std::min<std::size_t>(left, 255);
        rd.strings.emplace_back(chunk, 'x');
        left -= chunk;
      }
      response.answers.push_back(
          dns::ResourceRecord::make(q->name, RrType::kTxt, 60, rd));
    }
    return response;
  };
}

TEST(Frontend, EphemeralPortsAreDistinctAndReported) {
  ServerHarness a, b;
  ASSERT_TRUE(a.start(txt_dispatch(16)));
  ASSERT_TRUE(b.start(txt_dispatch(16)));
  EXPECT_GT(a.port(), 0);
  EXPECT_GT(b.port(), 0);
  EXPECT_NE(a.port(), b.port());
}

TEST(Frontend, FixedPortConflictFailsWithError) {
  ServerHarness first;
  ASSERT_TRUE(first.start(txt_dispatch(16)));
  EventLoop loop;
  Frontend second(txt_dispatch(16), FrontendConfig{.port = first.port()});
  EXPECT_FALSE(second.start(loop));
  EXPECT_FALSE(second.error().empty());
}

TEST(Frontend, UdpTruncatesToAdvertisedPayloadAndTcpDoesNot) {
  // ~900-byte answer: above the 512 floor, below the 1232 default.
  ServerHarness server;
  ASSERT_TRUE(server.start(txt_dispatch(900)));
  WireClient client("127.0.0.1", server.port());

  // Default advertisement (1232) fits: full answer over UDP.
  ClientResult fits = client.query_udp(echo_query(1, "txt.example"));
  ASSERT_TRUE(fits.message);
  EXPECT_FALSE(fits.message->header.tc);
  EXPECT_EQ(fits.message->answers.size(), 1u);

  // A 600-byte advertisement forces TC...
  Message small = echo_query(2, "txt.example");
  small.edns->udp_payload_size = 600;
  ClientResult tc = client.query_udp(small);
  ASSERT_TRUE(tc.message);
  EXPECT_TRUE(tc.message->header.tc);
  EXPECT_TRUE(tc.message->answers.empty());

  // ...and an advertisement below 512 is clamped *up* to 512 (RFC 6891):
  // a small answer still fits even though the client asked for 16 bytes.
  ServerHarness tiny;
  ASSERT_TRUE(tiny.start(txt_dispatch(100)));
  Message clamped = echo_query(3, "txt.example");
  clamped.edns->udp_payload_size = 16;
  ClientResult ok = WireClient("127.0.0.1", tiny.port()).query_udp(clamped);
  ASSERT_TRUE(ok.message);
  EXPECT_FALSE(ok.message->header.tc);
  EXPECT_EQ(ok.message->answers.size(), 1u);

  // The client-side retry glues it together: query() lands the full answer.
  ClientResult full = client.query(small);
  ASSERT_TRUE(full.message);
  EXPECT_TRUE(full.tcp_fallback);
  EXPECT_EQ(full.message->answers.size(), 1u);

  const FrontendCounters& counters = server.stop();
  EXPECT_GE(counters.truncated, 1u);
  EXPECT_GE(counters.udp_queries, 3u);
  EXPECT_GE(counters.tcp_queries, 1u);
}

TEST(Frontend, TcpPipeliningAnswersInOrder) {
  ServerHarness server;
  ASSERT_TRUE(server.start(txt_dispatch(32)));
  TcpSession session("127.0.0.1", server.port());
  ASSERT_TRUE(session.connected());
  constexpr int kQueries = 16;
  for (int i = 0; i < kQueries; ++i)
    ASSERT_TRUE(session.send(echo_query(static_cast<std::uint16_t>(i),
                                        "pipeline.example")));
  for (int i = 0; i < kQueries; ++i) {
    const auto frame = session.read_frame();
    ASSERT_TRUE(frame) << "frame " << i;
    const auto response = Message::from_wire(
        std::span<const std::uint8_t>(frame->data(), frame->size()));
    ASSERT_TRUE(response);
    // RFC 7766 §6.2.1.1: responses come back in query order.
    EXPECT_EQ(response->header.id, static_cast<std::uint16_t>(i));
  }
}

TEST(Frontend, DroppedDispatchMeansNoAnswer) {
  ServerHarness server;
  ASSERT_TRUE(server.start([](const Message&) -> std::optional<Message> {
    return std::nullopt;  // the simulated node drops the query
  }));
  WireClient client("127.0.0.1", server.port());
  ClientResult result = client.query_udp(echo_query(9, "drop.example"), 300);
  EXPECT_FALSE(result.message);
  EXPECT_TRUE(result.timed_out);
  const FrontendCounters& counters = server.stop();
  EXPECT_EQ(counters.dropped, 1u);
  EXPECT_EQ(counters.responses, 0u);
}

// ----------------------------------------------------- overload + lifecycle

TEST(Frontend, PendingBudgetShedsWithServfailEde23) {
  // Deterministic backpressure: a 1-deep budget, a ~32 KiB answer, and
  // tiny kernel buffers on both ends. The first response jams the stream
  // unflushed, so every pipelined query after it is shed while the client
  // has read nothing yet.
  FrontendConfig config;
  config.pending_budget = 1;
  config.tcp_sndbuf = 1;  // kernel clamps up to its minimum (a few KiB)
  ServerHarness server;
  ASSERT_TRUE(server.start(txt_dispatch(32 * 1024), config));
  TcpSession session("127.0.0.1", server.port(), 5000, /*rcvbuf=*/1);
  ASSERT_TRUE(session.connected());
  constexpr int kQueries = 5;
  for (int i = 0; i < kQueries; ++i)
    ASSERT_TRUE(session.send(echo_query(static_cast<std::uint16_t>(i),
                                        "shed.example")));
  // Let the server process the whole pipeline while we read nothing: the
  // first 32 KiB answer cannot fit the few-KiB kernel pipe, so the budget
  // stays exhausted for every query behind it.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  int full = 0, shed = 0;
  for (int i = 0; i < kQueries; ++i) {
    const auto frame = session.read_frame(5000);
    ASSERT_TRUE(frame) << "frame " << i;
    const auto response = Message::from_wire(
        std::span<const std::uint8_t>(frame->data(), frame->size()));
    ASSERT_TRUE(response);
    if (response->header.rcode == Rcode::kServFail) {
      ++shed;
      ASSERT_TRUE(response->edns);
      const auto ede = response->edns->ede();
      ASSERT_TRUE(ede);
      EXPECT_EQ(ede->info_code, dns::EdeCode::kNetworkError);
      EXPECT_EQ(ede->extra_text, "server overloaded");
    } else {
      ++full;
      EXPECT_EQ(response->answers.size(), 1u);
    }
  }
  EXPECT_GE(full, 1);
  EXPECT_GE(shed, 1);
  const FrontendCounters& counters = server.stop();
  EXPECT_EQ(counters.shed, static_cast<std::uint64_t>(shed));
}

TEST(Frontend, IdleConnectionsAreReaped) {
  FrontendConfig config;
  config.tcp_idle_ms = 50;
  ServerHarness server;
  ASSERT_TRUE(server.start(txt_dispatch(16), config));
  TcpSession session("127.0.0.1", server.port());
  ASSERT_TRUE(session.connected());
  // Never send anything; the reaper should close us within a few periods.
  const auto frame = session.read_frame(2000);
  EXPECT_FALSE(frame);
  EXPECT_TRUE(session.closed_by_peer());
  const FrontendCounters& counters = server.stop();
  EXPECT_GE(counters.tcp_reaped, 1u);
}

// A client that resets its stream while responses are being written must
// not kill the server. The dispatch holds the first pipelined query until
// the client's RST has landed, so every response write hits a reset
// socket: the first send reports ECONNRESET and the next EPIPE, which
// raises SIGPIPE unless the frontend sends with MSG_NOSIGNAL.
TEST(Frontend, ResetWhileRespondingNeverKillsTheServer) {
  std::promise<void> entered_promise, released_promise;
  std::future<void> entered = entered_promise.get_future();
  std::shared_future<void> released = released_promise.get_future().share();
  std::atomic<bool> first{true};
  const Dispatch answer = txt_dispatch(64);
  ServerHarness server;
  ASSERT_TRUE(server.start([&](const Message& query) {
    if (first.exchange(false)) {
      entered_promise.set_value();
      released.wait_for(std::chrono::seconds(5));
    }
    return answer(query);
  }));

  TcpSession session("127.0.0.1", server.port());
  ASSERT_TRUE(session.connected());
  // The whole pipeline goes out as one write, so the server has read every
  // frame before it dispatches (and writes) the first answer.
  constexpr int kQueries = 8;
  std::vector<std::uint8_t> pipeline;
  for (int i = 0; i < kQueries; ++i) {
    const std::vector<std::uint8_t> wire =
        echo_query(static_cast<std::uint16_t>(i), "reset.example").to_wire();
    pipeline.push_back(static_cast<std::uint8_t>(wire.size() >> 8));
    pipeline.push_back(static_cast<std::uint8_t>(wire.size()));
    pipeline.insert(pipeline.end(), wire.begin(), wire.end());
  }
  ASSERT_TRUE(session.send_raw({pipeline.data(), pipeline.size()}));
  ASSERT_EQ(entered.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  session.reset();
  released_promise.set_value();

  // The server is still alive and answers byte-identically.
  const Message fresh = echo_query(99, "alive.example");
  WireClient client("127.0.0.1", server.port());
  const ClientResult result = client.query_udp(fresh);
  ASSERT_TRUE(result.message) << result.error;
  EXPECT_EQ(result.wire, answer(fresh)->to_wire());
  const FrontendCounters& counters = server.stop();
  EXPECT_EQ(counters.tcp_queries, static_cast<std::uint64_t>(kQueries));
}

// ------------------------------------------------------- malformed corpus

TEST(Frontend, MalformedCorpusNeverKillsTheServer) {
  ServerHarness server;
  ASSERT_TRUE(server.start(txt_dispatch(64)));
  WireClient client("127.0.0.1", server.port());

  // The crafted shapes from test_wire_hardening, plus bit flips of a valid
  // query, all as real datagrams.
  std::vector<std::vector<std::uint8_t>> corpus;
  corpus.push_back({});                                      // empty payload
  corpus.push_back({0x00});                                  // 1 byte
  corpus.push_back({0x12, 0x34, 0x01});                      // partial header
  corpus.push_back({0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0,
                    0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01});    // self-pointer
  corpus.push_back({0x12, 0x34, 0x01, 0x00, 0x00, 0x05, 0, 0, 0, 0, 0, 0});
  const std::vector<std::uint8_t> valid =
      echo_query(77, "alive.example").to_wire();
  for (std::size_t byte = 0; byte < valid.size(); ++byte) {
    auto flipped = valid;
    flipped[byte] ^= 0x80;
    corpus.push_back(std::move(flipped));
  }
  for (const auto& bytes : corpus)
    ASSERT_TRUE(client.send_raw_udp({bytes.data(), bytes.size()}));

  // Same corpus down a TCP stream, as framed payloads...
  {
    TcpSession session("127.0.0.1", server.port());
    ASSERT_TRUE(session.connected());
    for (const auto& bytes : corpus) {
      if (bytes.empty() || bytes.size() > 65535) continue;
      std::vector<std::uint8_t> framed;
      framed.push_back(static_cast<std::uint8_t>(bytes.size() >> 8));
      framed.push_back(static_cast<std::uint8_t>(bytes.size()));
      framed.insert(framed.end(), bytes.begin(), bytes.end());
      if (!session.send_raw({framed.data(), framed.size()})) break;
    }
  }
  // ...and a zero-length frame, which must close the stream.
  {
    TcpSession session("127.0.0.1", server.port());
    ASSERT_TRUE(session.connected());
    const std::vector<std::uint8_t> zero = {0x00, 0x00};
    ASSERT_TRUE(session.send_raw({zero.data(), zero.size()}));
    EXPECT_FALSE(session.read_frame(2000));
    EXPECT_TRUE(session.closed_by_peer());
  }

  // The server is still alive and still correct.
  ClientResult result = client.query(echo_query(78, "alive.example"));
  ASSERT_TRUE(result.message);
  EXPECT_EQ(result.message->header.id, 78);
  const FrontendCounters& counters = server.stop();
  EXPECT_GE(counters.malformed, 3u);
}

// --------------------------------------------- byte-identity vs simulation

/// Two identical probe-infrastructure worlds: one served over real sockets,
/// one driven in-sim for goldens. Build is deterministic, so same-order
/// queries see identical handler state on both sides.
class FrontendInteropTest : public ::testing::Test {
 protected:
  struct World {
    testbed::Internet internet;
    std::vector<testbed::ProbeZone> probes;
    std::unique_ptr<resolver::RecursiveResolver> resolver;

    World() {
      probes = testbed::add_probe_infrastructure(internet);
      internet.build();
      resolver = internet.make_resolver(resolver::ResolverProfile::cloudflare(),
                                        IpAddress::v4(1, 1, 1, 1));
    }
  };

  /// The same source identity zh_serve uses for real-socket clients.
  static IpAddress kClient() { return IpAddress::v4(203, 0, 113, 53); }
  static IpAddress kResolver() { return IpAddress::v4(1, 1, 1, 1); }

  /// Golden query sequence: positive, NXDOMAIN (NSEC3-heavy, truncates),
  /// DNSKEY, a high-iteration probe zone, and a repeat (cache-hit path).
  static std::vector<Message> golden_queries() {
    std::vector<Message> queries;
    std::uint16_t id = 1;
    const auto add = [&](const std::string& name, RrType type) {
      queries.push_back(Message::make_query(id++, Name::must_parse(name), type));
    };
    add("valid.rfc9276-in-the-wild.com", RrType::kA);
    add("www.valid.rfc9276-in-the-wild.com", RrType::kA);
    add("nx.valid.rfc9276-in-the-wild.com", RrType::kA);
    add("valid.rfc9276-in-the-wild.com", RrType::kDnskey);
    add("nx.it-150.rfc9276-in-the-wild.com", RrType::kA);
    add("nx.it-500.rfc9276-in-the-wild.com", RrType::kA);
    add("valid.rfc9276-in-the-wild.com", RrType::kA);  // repeat: cache hit
    // A constrained 512-byte advertisement the NSEC3-heavy NXDOMAIN answer
    // cannot fit: deterministically exercises the TC→TCP retry on both
    // transports (the default 1232 advertisement holds every probe answer).
    add("nx.valid.rfc9276-in-the-wild.com", RrType::kA);
    queries.back().edns->udp_payload_size = 512;
    return queries;
  }
};

TEST_F(FrontendInteropTest, AnswersMatchSimulationByteForByte) {
  World sim_world;  // golden side, driven by this thread
  auto served_world = std::make_unique<World>();
  simnet::Network& served_net = served_world->internet.network();
  // Hand the served world to the loop thread (the dispatch below runs
  // there); this thread must not touch it again until after stop().
  served_net.rebind_owner_thread();
  ServerHarness server;
  ASSERT_TRUE(server.start([&served_net](const Message& query) {
    return served_net.send_tcp(kClient(), kResolver(), query);
  }));
  WireClient client("127.0.0.1", server.port());

  const std::vector<Message> queries = golden_queries();
  std::size_t fallbacks = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const simnet::ExchangeOutcome golden = simnet::exchange(
        sim_world.internet.network(), kClient(), kResolver(), queries[i]);
    ASSERT_TRUE(golden.response) << "golden query " << i;

    const ClientResult real = client.query(queries[i]);
    ASSERT_TRUE(real.message) << "wire query " << i << ": " << real.error;
    EXPECT_EQ(real.tcp_fallback, golden.tcp_fallback) << "query " << i;
    if (real.tcp_fallback) ++fallbacks;
    // The acceptance bar: final answer bytes identical to the in-sim
    // transport, UDP→TCP retry included (ids match by construction).
    EXPECT_EQ(real.wire, golden.response->to_wire()) << "query " << i;
  }
  // The constrained-advertisement golden truncates: the TC path must
  // actually have been exercised, not vacuously skipped.
  EXPECT_GE(fallbacks, 1u);

  // TCP-first asks the same question the retry path just did (a cache hit
  // on the served side): bytes must again be identical.
  const Message nxd = queries[2];
  const ClientResult tcp_first = client.query_tcp(nxd);
  const ClientResult retried = client.query(nxd);
  ASSERT_TRUE(tcp_first.message);
  ASSERT_TRUE(retried.message);
  EXPECT_EQ(tcp_first.wire, retried.wire);

  const FrontendCounters& counters = server.stop();
  EXPECT_EQ(counters.malformed, 0u);
  EXPECT_GE(counters.udp_queries, queries.size());
  EXPECT_GE(counters.truncated, fallbacks);
}

TEST_F(FrontendInteropTest, TinyAdvertisedBufferClampsTo512BothWays) {
  World sim_world;
  auto served_world = std::make_unique<World>();
  simnet::Network& served_net = served_world->internet.network();
  served_net.rebind_owner_thread();
  ServerHarness server;
  ASSERT_TRUE(server.start([&served_net](const Message& query) {
    return served_net.send_tcp(kClient(), kResolver(), query);
  }));
  WireClient client("127.0.0.1", server.port());

  // An advertised 16-byte buffer is clamped to 512 on both transports, so
  // the truncated UDP answer and the TCP retry behave identically.
  Message query = Message::make_query(
      41, Name::must_parse("nx.valid.rfc9276-in-the-wild.com"), RrType::kA);
  query.edns->udp_payload_size = 16;

  const simnet::ExchangeOutcome golden =
      simnet::exchange(sim_world.internet.network(), kClient(), kResolver(),
                       query);
  ASSERT_TRUE(golden.response);
  EXPECT_TRUE(golden.tcp_fallback);

  const ClientResult real = client.query(query);
  ASSERT_TRUE(real.message);
  EXPECT_TRUE(real.tcp_fallback);
  EXPECT_EQ(real.wire, golden.response->to_wire());
  server.stop();
}

}  // namespace
}  // namespace zh::net
