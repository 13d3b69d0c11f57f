// Unit tests for the simulated network: addressing, routing, loss,
// server-side query logging (the paper's forwarder-detection mechanism).
#include <gtest/gtest.h>

#include <vector>

#include "simnet/address.hpp"
#include "simnet/batch.hpp"
#include "simnet/network.hpp"
#include "simtime/latency.hpp"

namespace zh::simnet {
namespace {

using dns::Message;
using dns::Name;
using dns::RrType;

TEST(IpAddress, V4Formatting) {
  EXPECT_EQ(IpAddress::v4(1, 1, 1, 1).to_string(), "1.1.1.1");
  EXPECT_EQ(IpAddress::v4(198, 41, 0, 4).to_string(), "198.41.0.4");
}

TEST(IpAddress, V6Formatting) {
  const auto addr = IpAddress::v6({0x2001, 0xdb8, 0, 0, 0, 0, 0, 1});
  EXPECT_EQ(addr.to_string(), "2001:db8:0:0:0:0:0:1");
  EXPECT_TRUE(addr.is_v6());
}

TEST(IpAddress, EqualityAndHash) {
  const auto a = IpAddress::v4(10, 0, 0, 1);
  const auto b = IpAddress::v4(10, 0, 0, 1);
  const auto c = IpAddress::v4(10, 0, 0, 2);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  // v4 and v6 with the same leading bytes differ.
  const auto v6 = IpAddress::v6({0x0a00, 0x0001, 0, 0, 0, 0, 0, 0});
  EXPECT_FALSE(a == v6);
}

TEST(IpAddress, FromIndexIsUnique) {
  std::set<std::string> seen;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(IpAddress::from_index(false, i).to_string()).second);
    EXPECT_TRUE(seen.insert(IpAddress::from_index(true, i).to_string()).second);
  }
}

TEST(IpAddress, FromBytesRoundTrip) {
  const std::uint8_t v4_bytes[4] = {192, 0, 2, 7};
  EXPECT_EQ(IpAddress::from_bytes(false, v4_bytes).to_string(), "192.0.2.7");
}

TEST(Network, RoutesToAttachedNode) {
  Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  const auto client = IpAddress::v4(203, 0, 113, 1);
  network.attach(server, [](const Message& query, const IpAddress&) {
    Message response = Message::make_response(query);
    response.header.rcode = dns::Rcode::kNoError;
    return std::optional<Message>(response);
  });

  const Message query =
      Message::make_query(7, Name::must_parse("example.com"), RrType::kA);
  const auto response = network.send(client, server, query);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->header.id, 7);
  EXPECT_TRUE(response->header.qr);
  EXPECT_EQ(network.queries_sent(), 1u);
}

TEST(Network, UnreachableDestination) {
  Network network;
  const Message query =
      Message::make_query(7, Name::must_parse("example.com"), RrType::kA);
  EXPECT_FALSE(network.send(IpAddress::v4(1, 2, 3, 4),
                            IpAddress::v4(5, 6, 7, 8), query));
}

TEST(Network, DetachStopsRouting) {
  Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  network.attach(server, [](const Message& q, const IpAddress&) {
    return std::optional<Message>(Message::make_response(q));
  });
  EXPECT_TRUE(network.is_attached(server));
  network.detach(server);
  EXPECT_FALSE(network.is_attached(server));
  const Message query =
      Message::make_query(1, Name::must_parse("example.com"), RrType::kA);
  EXPECT_FALSE(network.send(IpAddress::v4(1, 1, 1, 1), server, query));
}

TEST(Network, LossDropsDeterministically) {
  Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  network.attach(server, [](const Message& q, const IpAddress&) {
    return std::optional<Message>(Message::make_response(q));
  });
  network.set_loss(0.5, /*seed=*/42);
  int delivered = 0;
  const Message query =
      Message::make_query(1, Name::must_parse("example.com"), RrType::kA);
  for (int i = 0; i < 1000; ++i) {
    if (network.send(IpAddress::v4(1, 1, 1, 1), server, query)) ++delivered;
  }
  EXPECT_GT(delivered, 400);
  EXPECT_LT(delivered, 600);

  // Same seed → same delivery pattern.
  Network network2;
  network2.attach(server, [](const Message& q, const IpAddress&) {
    return std::optional<Message>(Message::make_response(q));
  });
  network2.set_loss(0.5, 42);
  int delivered2 = 0;
  for (int i = 0; i < 1000; ++i) {
    if (network2.send(IpAddress::v4(1, 1, 1, 1), server, query)) ++delivered2;
  }
  EXPECT_EQ(delivered, delivered2);
}

TEST(Network, LossSeedSelectsTheDroppedSubset) {
  const auto server = IpAddress::v4(192, 0, 2, 1);
  const auto handler = [](const Message& q, const IpAddress&) {
    return std::optional<Message>(Message::make_response(q));
  };
  const Message query =
      Message::make_query(1, Name::must_parse("example.com"), RrType::kA);
  // The per-send fate pattern is a function of the seed: two seeds must
  // disagree somewhere in 200 draws (P(identical) = 2^-200 at loss 0.5).
  const auto fates = [&](std::uint64_t seed) {
    Network network;
    network.attach(server, handler);
    network.set_loss(0.5, seed);
    std::vector<bool> delivered;
    for (int i = 0; i < 200; ++i) {
      delivered.push_back(
          network.send(IpAddress::v4(1, 1, 1, 1), server, query).has_value());
    }
    return delivered;
  };
  EXPECT_EQ(fates(42), fates(42));
  EXPECT_NE(fates(42), fates(43));
}

TEST(Network, ClearingLossRestoresPerfectDelivery) {
  Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  network.attach(server, [](const Message& q, const IpAddress&) {
    return std::optional<Message>(Message::make_response(q));
  });
  const Message query =
      Message::make_query(1, Name::must_parse("example.com"), RrType::kA);
  network.set_loss(1.0, 42);
  EXPECT_FALSE(network.send(IpAddress::v4(1, 1, 1, 1), server, query));
  network.set_loss(0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(network.send(IpAddress::v4(1, 1, 1, 1), server, query));
  }
}

TEST(Network, TcpIsExemptFromUdpLoss) {
  Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  network.attach(server, [](const Message& q, const IpAddress&) {
    return std::optional<Message>(Message::make_response(q));
  });
  network.set_loss(1.0, 42);
  const Message query =
      Message::make_query(1, Name::must_parse("example.com"), RrType::kA);
  EXPECT_FALSE(network.send(IpAddress::v4(1, 1, 1, 1), server, query));
  // TCP models a reliable stream: it must get through under total UDP loss.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(network.send_tcp(IpAddress::v4(1, 1, 1, 1), server, query));
  }
}

TEST(Network, FlowKeyedLossIsIndependentOfOtherTraffic) {
  const auto server = IpAddress::v4(192, 0, 2, 1);
  const auto handler = [](const Message& q, const IpAddress&) {
    return std::optional<Message>(Message::make_response(q));
  };
  const Message query =
      Message::make_query(1, Name::must_parse("example.com"), RrType::kA);
  // Flow 7's fate pattern must not depend on how much traffic *other*
  // flows sent first — the property sharded campaigns rely on.
  const auto flow7_fates = [&](int other_traffic) {
    Network network;
    network.attach(server, handler);
    network.set_loss(0.5, 42);
    network.set_flow(99);
    for (int i = 0; i < other_traffic; ++i) {
      (void)network.send(IpAddress::v4(1, 1, 1, 1), server, query);
    }
    network.set_flow(7);
    std::vector<bool> delivered;
    for (int i = 0; i < 100; ++i) {
      delivered.push_back(
          network.send(IpAddress::v4(1, 1, 1, 1), server, query).has_value());
    }
    return delivered;
  };
  EXPECT_EQ(flow7_fates(0), flow7_fates(137));
}

TEST(Network, ServerSideLoggingRecordsSources) {
  Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  const auto forwarder = IpAddress::v4(203, 0, 113, 9);
  network.attach(server, [](const Message& q, const IpAddress&) {
    return std::optional<Message>(Message::make_response(q));
  });
  network.enable_logging_for(server);

  const Message query =
      Message::make_query(1, Name::must_parse("probe.example.com"), RrType::kA);
  network.send(forwarder, server, query);
  ASSERT_EQ(network.query_log().size(), 1u);
  EXPECT_EQ(network.query_log()[0].source, forwarder);
  EXPECT_TRUE(network.query_log()[0].question.name.equals(
      Name::must_parse("probe.example.com")));

  network.clear_query_log();
  EXPECT_TRUE(network.query_log().empty());
}

TEST(Network, LoggingOnlyForEnabledDestinations) {
  Network network;
  const auto a = IpAddress::v4(192, 0, 2, 1);
  const auto b = IpAddress::v4(192, 0, 2, 2);
  const auto handler = [](const Message& q, const IpAddress&) {
    return std::optional<Message>(Message::make_response(q));
  };
  network.attach(a, handler);
  network.attach(b, handler);
  network.enable_logging_for(a);
  const Message query =
      Message::make_query(1, Name::must_parse("x.example"), RrType::kA);
  network.send(IpAddress::v4(9, 9, 9, 9), a, query);
  network.send(IpAddress::v4(9, 9, 9, 9), b, query);
  EXPECT_EQ(network.query_log().size(), 1u);
}


TEST(NetworkTransport, OversizeUdpResponseTruncated) {
  Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  network.attach(server, [](const Message& q, const IpAddress&) {
    Message response = Message::make_response(q);
    // Stuff the answer well past any UDP budget.
    for (int i = 0; i < 60; ++i) {
      response.answers.push_back(dns::make_txt(
          q.questions.front().name, 60, std::string(100, 'x')));
    }
    return std::optional<Message>(response);
  });

  Message query = Message::make_query(
      5, Name::must_parse("big.example"), RrType::kTxt);
  query.edns->udp_payload_size = 1232;
  const auto udp = network.send(IpAddress::v4(9, 9, 9, 9), server, query);
  ASSERT_TRUE(udp);
  EXPECT_TRUE(udp->header.tc);
  EXPECT_TRUE(udp->answers.empty());
  EXPECT_EQ(network.truncations(), 1u);

  const auto tcp = network.send_tcp(IpAddress::v4(9, 9, 9, 9), server, query);
  ASSERT_TRUE(tcp);
  EXPECT_FALSE(tcp->header.tc);
  EXPECT_EQ(tcp->answers.size(), 60u);
  EXPECT_EQ(network.tcp_queries(), 1u);
}

TEST(NetworkTransport, SmallResponsesStayOnUdp) {
  Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  network.attach(server, [](const Message& q, const IpAddress&) {
    Message response = Message::make_response(q);
    response.answers.push_back(
        dns::make_a(q.questions.front().name, 60, 1, 2, 3, 4));
    return std::optional<Message>(response);
  });
  const Message query = Message::make_query(
      5, Name::must_parse("small.example"), RrType::kA);
  const auto response = network.send(IpAddress::v4(9, 9, 9, 9), server, query);
  ASSERT_TRUE(response);
  EXPECT_FALSE(response->header.tc);
  EXPECT_EQ(network.truncations(), 0u);
}

TEST(NetworkTransport, NonEdnsClientsGet512ByteBudget) {
  Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  network.attach(server, [](const Message& q, const IpAddress&) {
    Message response = Message::make_response(q);
    for (int i = 0; i < 8; ++i) {
      response.answers.push_back(dns::make_txt(
          q.questions.front().name, 60, std::string(90, 'y')));
    }
    return std::optional<Message>(response);
  });
  Message query = Message::make_query(
      5, Name::must_parse("legacy.example"), RrType::kTxt);
  query.edns.reset();  // pre-EDNS client: 512-byte limit applies
  const auto response = network.send(IpAddress::v4(9, 9, 9, 9), server, query);
  ASSERT_TRUE(response);
  EXPECT_TRUE(response->header.tc);
}

// The truncation decision asks wire_size(), the length of the one encode
// to_wire() also runs; this pins the cutover at the exact 512-byte boundary
// and the truncated response's wire bytes — neither may change.
TEST(NetworkTransport, TruncationBoundaryAndWireBytesUnchanged) {
  Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  const Name qname = Name::must_parse("edge.example");

  // Calibrate TXT payloads so the full response encodes to exactly the
  // 512-byte non-EDNS budget (one extra byte then tips it over). A TXT
  // character-string caps at 255 bytes, so grow with fixed-size records
  // until the budget is within one final record's reach.
  Message query = Message::make_query(5, qname, RrType::kTxt);
  query.edns.reset();
  Message base = Message::make_response(query);
  base.header.aa = true;
  std::size_t floor = 0;  // size with an empty final record appended
  for (;;) {
    Message probe = base;
    probe.answers.push_back(dns::make_txt(qname, 60, ""));
    floor = probe.to_wire().size();
    if (floor + 254 >= 512) break;
    base.answers.push_back(dns::make_txt(qname, 60, std::string(100, 'x')));
  }
  ASSERT_LE(floor, 512u);

  for (const std::size_t extra : {std::size_t{0}, std::size_t{1}}) {
    Message response = base;
    response.answers.push_back(
        dns::make_txt(qname, 60, std::string(512 + extra - floor, 'x')));
    // The decision input equals the serialised size, always.
    ASSERT_EQ(response.wire_size(), response.to_wire().size());
    ASSERT_EQ(response.wire_size(), 512 + extra);
    network.attach(server, [&response](const Message&, const IpAddress&) {
      return std::optional<Message>(response);
    });

    const auto got = network.send(IpAddress::v4(9, 9, 9, 9), server, query);
    ASSERT_TRUE(got);
    if (extra == 0) {
      // Exactly at budget: delivered whole, bit for bit.
      EXPECT_FALSE(got->header.tc);
      EXPECT_EQ(got->to_wire(), response.to_wire());
      EXPECT_EQ(network.truncations(), 0u);
    } else {
      // One byte over: TC skeleton with the handler's rcode/aa preserved.
      Message expected = Message::make_response(query);
      expected.header.rcode = response.header.rcode;
      expected.header.aa = response.header.aa;
      expected.header.tc = true;
      EXPECT_TRUE(got->header.tc);
      EXPECT_TRUE(got->answers.empty());
      EXPECT_EQ(got->to_wire(), expected.to_wire());
      EXPECT_EQ(network.truncations(), 1u);
    }
  }
}

// Stress/property test for concurrent_exchange: 8k staggered logical
// clients multiplexed over one network with loss, jitter and
// retransmission must never reorder each other's flow-keyed RNG draws.
// Every client's transport fate — which attempts are lost, the sampled
// RTTs, whether it times out — must equal a run of that client ALONE, and
// the whole batch must replay bit-identically. Rewinding the clock per
// client and joining one queue epoch must therefore leave each flow's
// draw sequence untouched.
TEST(NetworkBatch, EightThousandInFlightQueriesKeepFlowDrawsOrdered) {
  constexpr std::size_t kClients = 8000;
  const auto server = IpAddress::v4(192, 0, 2, 9);
  const auto echo = [](const Message& q, const IpAddress&) {
    return std::optional<Message>(Message::make_response(q));
  };
  // Loss 0.3 with 4 attempts: retransmission is everywhere (~30 % of
  // attempts) and ~0.8 % of exchanges exhaust the budget, so the timeout
  // path is exercised too.
  const auto shape = [&](Network& network) {
    network.attach(server, echo);
    network.set_loss(0.3, /*seed=*/77);
    network.set_latency_model(simtime::LatencyModel(
        simtime::Duration::from_ms(20), simtime::Duration::from_ms(5),
        /*seed=*/42));
  };
  simtime::RetryPolicy retry;
  retry.attempts = 4;

  std::vector<BatchClient> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    BatchClient client;
    client.source = IpAddress::from_index(false, static_cast<std::uint32_t>(i));
    client.query = Message::make_query(
        static_cast<std::uint16_t>(i + 1),
        *Name::must_parse("stress.example")
             .prepended("c" + std::to_string(i)),
        RrType::kA);
    client.flow = 0x5000 + i;
    // Staggered arrivals: 50 µs spacing keeps thousands genuinely in
    // flight at once under a ~20 ms RTT.
    client.offset = simtime::Duration::from_us(static_cast<std::int64_t>(i) *
                                               50);
    clients.push_back(std::move(client));
  }

  Network batch_net;
  shape(batch_net);
  const BatchResult batch = concurrent_exchange(batch_net, server, clients,
                                                retry);
  ASSERT_EQ(batch.outcomes.size(), kClients);

  // The shaped transport genuinely bites: retransmissions happened, a few
  // exchanges timed out, most were answered.
  std::size_t retransmitted = 0, timed_out = 0, answered = 0;
  for (const ExchangeOutcome& outcome : batch.outcomes) {
    if (outcome.attempts > 1) ++retransmitted;
    if (outcome.timed_out) ++timed_out;
    if (outcome.response) ++answered;
  }
  EXPECT_GT(retransmitted, kClients / 10);
  EXPECT_GT(timed_out, 0u);
  EXPECT_GT(answered, kClients * 9 / 10);

  // Property 1: the batch replays bit-identically.
  Network replay_net;
  shape(replay_net);
  const BatchResult replay = concurrent_exchange(replay_net, server, clients,
                                                 retry);
  for (std::size_t i = 0; i < kClients; ++i) {
    EXPECT_EQ(batch.outcomes[i].attempts, replay.outcomes[i].attempts) << i;
    EXPECT_EQ(batch.outcomes[i].timed_out, replay.outcomes[i].timed_out) << i;
    EXPECT_EQ(batch.outcomes[i].elapsed.nanos(),
              replay.outcomes[i].elapsed.nanos())
        << i;
    EXPECT_EQ(batch.outcomes[i].response.has_value(),
              replay.outcomes[i].response.has_value())
        << i;
  }
  EXPECT_EQ(batch.makespan.nanos(), replay.makespan.nanos());

  // Property 2: no client's draws depend on the other 7999 — running the
  // clients solo, in REVERSE order, reproduces every batch outcome. (Each
  // solo exchange restarts its flow at sequence zero exactly as the batch
  // did, so any cross-flow draw leakage would surface as a mismatch.)
  Network solo_net;
  shape(solo_net);
  const simtime::Duration epoch = solo_net.clock().now();
  for (std::size_t r = 0; r < kClients; ++r) {
    const std::size_t i = kClients - 1 - r;
    solo_net.clock().set(epoch + clients[i].offset);
    solo_net.set_flow(clients[i].flow);
    const ExchangeOutcome solo = exchange(solo_net, clients[i].source, server,
                                          clients[i].query, retry);
    ASSERT_EQ(solo.attempts, batch.outcomes[i].attempts) << i;
    ASSERT_EQ(solo.timed_out, batch.outcomes[i].timed_out) << i;
    ASSERT_EQ(solo.elapsed.nanos(), batch.outcomes[i].elapsed.nanos()) << i;
    ASSERT_EQ(solo.response.has_value(), batch.outcomes[i].response.has_value())
        << i;
  }
}

}  // namespace
}  // namespace zh::simnet
