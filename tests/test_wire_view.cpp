// Zero-copy view parser tests: MessageView::parse must accept exactly the
// inputs Message::decode accepts and reject with the *same* WireErrc on
// every input it rejects — pinned here over crafted wires, every strict
// prefix, and the full single-bit-flip corpus. CI runs this binary under
// ASan/UBSan, so every parse doubles as a memory-safety probe.
//
// The binary also carries the allocation gate: with the counting
// operator-new hook (bench/bench_alloc.hpp) compiled in, a steady-state
// reset-and-parse loop must perform zero heap allocations.
#define ZH_BENCH_COUNT_ALLOCS
#include "bench/bench_alloc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "dns/arena.hpp"
#include "dns/message.hpp"
#include "dns/wire_view.hpp"

namespace zh::dns {
namespace {

std::span<const std::uint8_t> as_span(const std::vector<std::uint8_t>& v) {
  return {v.data(), v.size()};
}

/// Same shape as test_wire_hardening's corpus seed: every special-cased
/// rdata decode path (NS/CNAME/MX/SOA decompression) plus EDNS with EDE.
Message rich_response() {
  Message query = Message::make_query(
      0x5157, Name::must_parse("www.example.com"), RrType::kA);
  Message response = Message::make_response(query);
  response.header.aa = true;
  response.header.ra = true;
  response.answers.push_back(
      make_a(Name::must_parse("www.example.com"), 300, 192, 0, 2, 1));
  response.answers.push_back(make_txt(Name::must_parse("www.example.com"), 300,
                                      "view corpus"));
  response.authorities.push_back(make_ns(Name::must_parse("example.com"), 3600,
                                         Name::must_parse("ns1.example.com")));
  response.authorities.push_back(
      make_soa(Name::must_parse("example.com"), 3600,
               Name::must_parse("ns1.example.com"), 2024010100));
  response.additionals.push_back(
      make_a(Name::must_parse("ns1.example.com"), 3600, 192, 0, 2, 53));
  response.edns->add_ede(EdeCode::kOther, "corpus");
  return response;
}

/// NXDOMAIN + NSEC3 proof: the message shape the scan hot path parses
/// millions of times (the reason the view layer exists).
Message nxdomain_with_proof() {
  Message query = Message::make_query(
      1, Name::must_parse("probe.nx.example.com"), RrType::kA);
  Message response = Message::make_response(query);
  response.header.rcode = Rcode::kNxDomain;
  response.header.aa = true;
  response.authorities.push_back(
      make_soa(Name::must_parse("example.com"), 3600,
               Name::must_parse("ns1.example.com"), 1));
  for (int i = 0; i < 3; ++i) {
    Nsec3Rdata nsec3;
    nsec3.iterations = 10;
    nsec3.next_hash.assign(20, static_cast<std::uint8_t>(i * 40 + 7));
    nsec3.types = TypeBitmap({RrType::kA, RrType::kRrsig});
    response.authorities.push_back(ResourceRecord::make(
        Name::must_parse(std::string(32, static_cast<char>('a' + i)) +
                         ".example.com"),
        RrType::kNsec3, 3600, nsec3));
  }
  return response;
}

/// One suffix repeated in mixed case: the compressor must match names
/// case-insensitively and point every repeat at the first offset that
/// registered the suffix, whatever case that first copy was written in.
Message mixed_case_repeats() {
  Message query = Message::make_query(
      0x0c0c, Name::must_parse("WWW.Example.COM"), RrType::kA);
  Message response = Message::make_response(query);
  response.answers.push_back(
      make_a(Name::must_parse("www.EXAMPLE.com"), 60, 192, 0, 2, 1));
  response.answers.push_back(
      make_a(Name::must_parse("Mail.example.Com"), 60, 192, 0, 2, 2));
  response.authorities.push_back(make_ns(Name::must_parse("EXAMPLE.COM"), 3600,
                                         Name::must_parse("ns1.example.com")));
  response.additionals.push_back(
      make_a(Name::must_parse("NS1.example.COM"), 3600, 192, 0, 2, 53));
  response.additionals.push_back(
      make_a(Name::must_parse("mail.EXAMPLE.COM"), 3600, 192, 0, 2, 2));
  return response;
}

std::vector<Message> corpus() {
  std::vector<Message> messages;
  messages.push_back(
      Message::make_query(7, Name::must_parse("example.com"), RrType::kA));
  messages.push_back(Message::make_query(
      0xbeef, Name::must_parse("www.example.com"), RrType::kDnskey));
  messages.push_back(rich_response());
  messages.push_back(nxdomain_with_proof());
  messages.push_back(mixed_case_repeats());
  return messages;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

/// Minimal header + question skeleton for the crafted-wire tests.
std::vector<std::uint8_t> header(std::uint16_t qdcount, std::uint16_t ancount,
                                 std::uint16_t nscount, std::uint16_t arcount) {
  std::vector<std::uint8_t> wire = {0x12, 0x34, 0x01, 0x00};
  for (const std::uint16_t count : {qdcount, ancount, nscount, arcount}) {
    wire.push_back(static_cast<std::uint8_t>(count >> 8));
    wire.push_back(static_cast<std::uint8_t>(count));
  }
  return wire;
}

void push_question_tail(std::vector<std::uint8_t>& wire) {
  wire.insert(wire.end(), {0x00, 0x01, 0x00, 0x01});  // QTYPE=A QCLASS=IN
}

/// Both parsers on the same bytes must agree: same accept/reject decision
/// and the same typed error. Returns the errc for crafted-wire asserts.
WireErrc expect_parity(std::span<const std::uint8_t> wire) {
  MonotonicArena arena;
  const ViewDecodeResult view = MessageView::parse(wire, arena);
  const DecodeResult owned = Message::decode(wire);
  EXPECT_EQ(view.view.has_value(), owned.message.has_value());
  EXPECT_EQ(view.error, owned.error);
  if (view.view && owned.message) {
    EXPECT_EQ(view.view->questions.size(), owned.message->questions.size());
    EXPECT_EQ(view.view->answers.size(), owned.message->answers.size());
    EXPECT_EQ(view.view->authorities.size(), owned.message->authorities.size());
    EXPECT_EQ(view.view->additionals.size(), owned.message->additionals.size());
    EXPECT_EQ(view.view->edns.has_value(), owned.message->edns.has_value());
  }
  return view.error;
}

void expect_sections_match(const MessageView& view, const Message& owned) {
  const Header& a = view.header;
  const Header& b = owned.header;
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.qr, b.qr);
  EXPECT_EQ(a.opcode, b.opcode);
  EXPECT_EQ(a.aa, b.aa);
  EXPECT_EQ(a.tc, b.tc);
  EXPECT_EQ(a.rd, b.rd);
  EXPECT_EQ(a.ra, b.ra);
  EXPECT_EQ(a.ad, b.ad);
  EXPECT_EQ(a.cd, b.cd);
  EXPECT_EQ(a.rcode, b.rcode);

  ASSERT_EQ(view.questions.size(), owned.questions.size());
  for (std::size_t i = 0; i < owned.questions.size(); ++i) {
    EXPECT_TRUE(view.questions[i].name.equals(owned.questions[i].name));
    EXPECT_EQ(view.questions[i].name.to_name(), owned.questions[i].name);
    EXPECT_EQ(view.questions[i].type, owned.questions[i].type);
    EXPECT_EQ(view.questions[i].klass, owned.questions[i].klass);
  }

  const auto check_section = [](std::span<const RecordView> views,
                                const std::vector<ResourceRecord>& records) {
    ASSERT_EQ(views.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_TRUE(views[i].name.equals(records[i].name));
      EXPECT_EQ(views[i].type, records[i].type);
      EXPECT_EQ(views[i].klass, records[i].klass);
      EXPECT_EQ(views[i].ttl, records[i].ttl);
      // A view's rdata is the raw on-wire bytes; the owned record stores the
      // normalised (decompressed) form. They coincide exactly for types the
      // codec does not rewrite.
      switch (records[i].type) {
        case RrType::kNs:
        case RrType::kCname:
        case RrType::kSoa:
        case RrType::kMx:
          break;
        default:
          EXPECT_EQ(std::vector<std::uint8_t>(views[i].rdata.begin(),
                                              views[i].rdata.end()),
                    records[i].rdata);
      }
    }
  };
  check_section(view.answers, owned.answers);
  check_section(view.authorities, owned.authorities);
  check_section(view.additionals, owned.additionals);

  ASSERT_EQ(view.edns.has_value(), owned.edns.has_value());
  if (view.edns) {
    EXPECT_EQ(view.edns->udp_payload_size, owned.edns->udp_payload_size);
    EXPECT_EQ(view.edns->version, owned.edns->version);
    EXPECT_EQ(view.edns->do_bit, owned.edns->do_bit);
    const auto view_ede = view.edns->ede();
    const auto owned_ede = owned.edns->ede();
    ASSERT_EQ(view_ede.has_value(), owned_ede.has_value());
    if (view_ede) {
      EXPECT_EQ(view_ede->info_code, owned_ede->info_code);
      EXPECT_EQ(view_ede->extra_text, owned_ede->extra_text);
    }
  }
}

TEST(WireView, ValidMessagesAgreeFieldForField) {
  for (const Message& msg : corpus()) {
    const auto wire = msg.to_wire();
    MonotonicArena arena;
    const ViewDecodeResult view = MessageView::parse(as_span(wire), arena);
    const DecodeResult owned = Message::decode(as_span(wire));
    ASSERT_TRUE(view.view) << to_string(view.error);
    ASSERT_TRUE(owned.message) << to_string(owned.error);
    expect_sections_match(*view.view, *owned.message);
  }
}

TEST(WireView, ToMessageMaterialisesTheDecodedMessage) {
  for (const Message& msg : corpus()) {
    const auto wire = msg.to_wire();
    MonotonicArena arena;
    const ViewDecodeResult view = MessageView::parse(as_span(wire), arena);
    ASSERT_TRUE(view.view);
    EXPECT_EQ(view.view->to_message().to_wire(), wire);
  }
}

TEST(WireView, QuestionAccessor) {
  MonotonicArena arena;
  const auto wire =
      Message::make_query(9, Name::must_parse("a.example.com"), RrType::kNs)
          .to_wire();
  const ViewDecodeResult view = MessageView::parse(as_span(wire), arena);
  ASSERT_TRUE(view.view);
  ASSERT_NE(view.view->question(), nullptr);
  EXPECT_EQ(view.view->question()->type, RrType::kNs);
  EXPECT_TRUE(view.view->question()->name.equals(
      Name::must_parse("A.EXAMPLE.com")));  // case-insensitive
}

TEST(WireView, EveryStrictPrefixAgreesOnTheError) {
  const auto wire = rich_response().to_wire();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const WireErrc errc =
        expect_parity(std::span<const std::uint8_t>(wire.data(), len));
    EXPECT_NE(errc, WireErrc::kOk) << "prefix of length " << len << " parsed";
  }
}

TEST(WireView, SingleBitFlipCorpusAgrees) {
  // The core parity property: on *every* single-bit corruption of the rich
  // response the two parsers take the same decision with the same errc.
  const auto pristine = rich_response().to_wire();
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto wire = pristine;
      wire[byte] ^= static_cast<std::uint8_t>(1u << bit);
      expect_parity(as_span(wire));
    }
  }
}

TEST(WireView, NxdomainProofBitFlipCorpusAgrees) {
  // Second corpus seed: the NSEC3 proof shape the scanner actually parses.
  const auto pristine = nxdomain_with_proof().to_wire();
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto wire = pristine;
      wire[byte] ^= static_cast<std::uint8_t>(1u << bit);
      expect_parity(as_span(wire));
    }
  }
}

TEST(WireView, CraftedWiresGetTheSameTypedErrors) {
  {
    auto wire = rich_response().to_wire();
    wire.push_back(0x00);
    EXPECT_EQ(expect_parity(as_span(wire)), WireErrc::kTrailingBytes);
  }
  {
    auto wire = header(1, 0, 0, 0);
    wire.push_back(0xc0);  // pointer to offset 12 = itself
    wire.push_back(0x0c);
    push_question_tail(wire);
    EXPECT_EQ(expect_parity(as_span(wire)), WireErrc::kPointerLoop);
  }
  {
    auto wire = header(1, 0, 0, 0);
    wire.push_back(0x01);  // "a"
    wire.push_back('a');
    wire.push_back(0xc0);  // ping-pong: back to 12, which re-reads this
    wire.push_back(0x0c);
    push_question_tail(wire);
    EXPECT_EQ(expect_parity(as_span(wire)), WireErrc::kPointerLoop);
  }
  {
    auto wire = header(1, 0, 0, 0);
    wire.push_back(0x40 | 0x01);  // reserved label type
    wire.push_back('x');
    wire.push_back(0x00);
    push_question_tail(wire);
    EXPECT_EQ(expect_parity(as_span(wire)), WireErrc::kBadLabelType);
  }
  {
    auto wire = header(1, 0, 0, 0);  // overlong name: 5 * 64 > 255
    for (int label = 0; label < 5; ++label) {
      wire.push_back(63);
      for (int i = 0; i < 63; ++i)
        wire.push_back(static_cast<std::uint8_t>('a' + label));
    }
    wire.push_back(0x00);
    push_question_tail(wire);
    EXPECT_EQ(expect_parity(as_span(wire)), WireErrc::kNameTooLong);
  }
  {
    auto wire = header(5, 0, 0, 0);  // claims five questions, carries none
    EXPECT_EQ(expect_parity(as_span(wire)), WireErrc::kTruncated);
  }
  {
    auto wire = header(0, 0, 1, 0);  // NS rdata shorter than RDLENGTH
    wire.push_back(0x00);
    wire.insert(wire.end(), {0x00, 0x02, 0x00, 0x01});
    wire.insert(wire.end(), {0x00, 0x00, 0x0e, 0x10});
    wire.insert(wire.end(), {0x00, 0x06});
    wire.insert(wire.end(), {0x01, 'a', 0x00});
    wire.insert(wire.end(), {0x00, 0x00, 0x00});
    EXPECT_EQ(expect_parity(as_span(wire)), WireErrc::kBadRdata);
  }
  {
    auto wire = header(0, 0, 0, 1);  // OPT option overrunning its rdata
    wire.push_back(0x00);
    wire.insert(wire.end(), {0x00, 0x29});
    wire.insert(wire.end(), {0x04, 0xd0});
    wire.insert(wire.end(), {0x00, 0x00, 0x00, 0x00});
    wire.insert(wire.end(), {0x00, 0x06});
    wire.insert(wire.end(), {0x00, 0x0f, 0x00, 0x09});
    wire.insert(wire.end(), {0x00, 0x00});
    EXPECT_EQ(expect_parity(as_span(wire)), WireErrc::kBadOpt);
  }
}

TEST(WireView, TruncatedSuffixSweepsNeverCrashAndAgree) {
  const auto pristine = rich_response().to_wire();
  for (std::size_t front = 0; front < pristine.size(); front += 3) {
    for (std::size_t back = 0; back + front < pristine.size(); back += 3) {
      expect_parity(std::span<const std::uint8_t>(
          pristine.data() + front, pristine.size() - front - back));
    }
  }
}

TEST(WireView, NameViewAccessors) {
  MonotonicArena arena;
  const auto wire =
      Message::make_query(3, Name::must_parse("WwW.Example.COM"), RrType::kA)
          .to_wire();
  const ViewDecodeResult view = MessageView::parse(as_span(wire), arena);
  ASSERT_TRUE(view.view);
  const NameView& name = view.view->questions.front().name;
  EXPECT_FALSE(name.is_root());
  EXPECT_EQ(name.label_count(), 3u);
  EXPECT_EQ(name.wire_length(), Name::must_parse("www.example.com").wire_length());
  std::vector<std::string> labels;
  name.for_each_label([&](std::string_view label) {
    labels.emplace_back(label);
  });
  // Labels come back in original case; equality is case-insensitive.
  EXPECT_EQ(labels, (std::vector<std::string>{"WwW", "Example", "COM"}));
  EXPECT_TRUE(name.equals(Name::must_parse("www.example.com")));
  EXPECT_FALSE(name.equals(Name::must_parse("www.example.org")));
  EXPECT_FALSE(name.equals(Name::must_parse("example.com")));
  EXPECT_EQ(name.to_name(), Name::must_parse("WwW.Example.COM"));
  EXPECT_EQ(name.to_string(), "WwW.Example.COM.");
}

TEST(WireView, CompressedNamesWalkThroughPointers) {
  // In the rich response the NS rdata name ns1.example.com is emitted with a
  // compression pointer into the question; the owner of the SOA record is a
  // pointer as well. equals/to_name must follow them transparently.
  const auto wire = rich_response().to_wire();
  MonotonicArena arena;
  const ViewDecodeResult view = MessageView::parse(as_span(wire), arena);
  ASSERT_TRUE(view.view);
  ASSERT_GE(view.view->authorities.size(), 2u);
  EXPECT_TRUE(
      view.view->authorities[0].name.equals(Name::must_parse("example.com")));
  EXPECT_EQ(view.view->authorities[1].name.to_string(), "example.com.");
}

TEST(WireView, ArenaConvergesToOneSlabAcrossResets) {
  // Slabs grow geometrically and reset() coalesces spills, so a stable
  // workload must stop allocating slabs after the first few cycles.
  MonotonicArena arena(/*initial_bytes=*/64);  // force early spills
  const auto wire = nxdomain_with_proof().to_wire();
  for (int i = 0; i < 4; ++i) {
    arena.reset();
    ASSERT_TRUE(MessageView::parse(as_span(wire), arena));
  }
  const std::uint64_t warm_slabs = arena.stats().slab_allocations;
  for (int i = 0; i < 1000; ++i) {
    arena.reset();
    ASSERT_TRUE(MessageView::parse(as_span(wire), arena));
  }
  EXPECT_EQ(arena.stats().slab_allocations, warm_slabs);
  EXPECT_GE(arena.stats().resets, 1004u);
  EXPECT_GE(arena.stats().high_water, arena.stats().used);
}

TEST(WireView, ArenaMakeArrayAlignsAndZeroes) {
  MonotonicArena arena;
  EXPECT_TRUE(arena.make_array<std::uint64_t>(0).empty());
  (void)arena.allocate(1, 1);  // misalign the cursor
  const std::span<std::uint64_t> array = arena.make_array<std::uint64_t>(5);
  ASSERT_EQ(array.size(), 5u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(array.data()) %
                alignof(std::uint64_t),
            0u);
  for (const std::uint64_t v : array) EXPECT_EQ(v, 0u);
}

TEST(WireView, SteadyStateParseMakesZeroHeapAllocations) {
  // The allocation gate (CI: alloc-gate job). After one warm parse the
  // reset-and-parse loop must never touch the heap: the arena rewinds a
  // cursor and every view lands in the retained slab.
  const auto wire = nxdomain_with_proof().to_wire();
  MonotonicArena arena;
  ASSERT_TRUE(MessageView::parse(as_span(wire), arena));  // warm-up slab
  const bench::AllocStats before = bench::alloc_stats();
  for (int i = 0; i < 10000; ++i) {
    arena.reset();
    const ViewDecodeResult view = MessageView::parse(as_span(wire), arena);
    if (!view.view) FAIL() << "parse failed mid-loop";
  }
  const bench::AllocStats after = bench::alloc_stats();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "steady-state view parse allocated";
}

TEST(WireView, SteadyStateWireSizeMakesZeroHeapAllocations) {
  // The simnet truncation decision sizes every UDP response: after one warm
  // call the encode buffer and the compressor's suffix table are reused.
  const Message response = nxdomain_with_proof();
  const std::size_t size = response.wire_size();  // warm-up
  const bench::AllocStats before = bench::alloc_stats();
  for (int i = 0; i < 10000; ++i) {
    if (response.wire_size() != size) {
      FAIL() << "size changed mid-loop";
    }
  }
  const bench::AllocStats after = bench::alloc_stats();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "steady-state wire_size allocated";
}

TEST(WireView, WireSizeMatchesEncodedSizeExactly) {
  // wire_size() runs the same encode as to_wire(), so it is exact — the
  // simnet truncation decision depends on that. Round trips accept any
  // valid compression, so the encoded bytes themselves are pinned too
  // (FNV-1a of to_wire()): a compressor change that picks other pointers
  // shows here.
  const std::uint64_t pinned[] = {
      0x02e8a6d844242765ull, 0x07b6d203c3d39fdaull, 0x47e42bc4fe6b902cull,
      0x0a14043544b132d6ull, 0xc1a435c6fd761130ull};
  const std::vector<Message> messages = corpus();
  ASSERT_EQ(messages.size(), std::size(pinned));
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const std::vector<std::uint8_t> wire = messages[i].to_wire();
    EXPECT_EQ(messages[i].wire_size(), wire.size());
    EXPECT_EQ(fnv1a(wire), pinned[i]) << "corpus message " << i;
  }
  // And for every bit-flipped message that still decodes (mutated flags,
  // TTLs, rdata bytes — anything that survives the parser).
  const auto pristine = rich_response().to_wire();
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    auto wire = pristine;
    wire[byte] ^= 0x01;
    const DecodeResult result = Message::decode(as_span(wire));
    if (result.message)
      EXPECT_EQ(result.message->wire_size(), result.message->to_wire().size());
  }
}

}  // namespace
}  // namespace zh::dns
