// Unit tests for zh::crypto: FIPS/RFC test vectors for the hash primitives,
// HMAC vectors (RFC 4231/2202), the RFC 5155 Appendix A NSEC3 vectors, and
// the simulated signature scheme.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>

#include "crypto/cost_meter.hpp"
#include "crypto/hmac.hpp"
#include "crypto/nsec3_hash.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha1_mb.hpp"
#include "crypto/sha2.hpp"
#include "crypto/signing.hpp"

namespace zh::crypto {
namespace {

template <typename Digest>
std::string hex(const Digest& digest) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : digest) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::vector<std::uint8_t> bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(Sha1, EmptyInput) {
  EXPECT_EQ(hex(Sha1::hash(std::string_view{})),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(hex(Sha1::hash(std::string_view{"abc"})),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(hex(Sha1::hash(std::string_view{
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finalize()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const std::string data = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha1 h;
    h.update(std::string_view(data).substr(0, split));
    h.update(std::string_view(data).substr(split));
    EXPECT_EQ(hex(h.finalize()),
              "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12")
        << "split at " << split;
  }
}

TEST(Sha1, ExactBlockBoundary) {
  // 64 bytes: padding must spill into a second block.
  const std::string data(64, 'x');
  Sha1 a;
  a.update(data);
  Sha1 b;
  b.update(std::string_view(data).substr(0, 32));
  b.update(std::string_view(data).substr(32));
  EXPECT_EQ(hex(a.finalize()), hex(b.finalize()));
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update(std::string_view{"garbage"});
  (void)h.finalize();
  h.reset();
  h.update(std::string_view{"abc"});
  EXPECT_EQ(hex(h.finalize()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(hex(Sha256::hash(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex(Sha256::hash(std::string_view{"abc"})),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex(Sha256::hash(std::string_view{
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha224, Abc) {
  const auto data = bytes("abc");
  EXPECT_EQ(hex(Sha224::hash(std::span<const std::uint8_t>(data))),
            "23097d223405d8228642a477bda255b32aadbce4bda0b3f7e36c9da7");
}

TEST(Sha512, Abc) {
  const auto data = bytes("abc");
  EXPECT_EQ(hex(Sha512::hash(std::span<const std::uint8_t>(data))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha384, Abc) {
  const auto data = bytes("abc");
  EXPECT_EQ(hex(Sha384::hash(std::span<const std::uint8_t>(data))),
            "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed"
            "8086072ba1e7cc2358baeca134c825a7");
}

TEST(Sha512, MillionAs) {
  Sha512 h;
  const auto chunk = bytes(std::string(1000, 'a'));
  for (int i = 0; i < 1000; ++i)
    h.update(std::span<const std::uint8_t>(chunk));
  EXPECT_EQ(hex(h.finalize()),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

// RFC 2202 test case 1 for HMAC-SHA1.
TEST(Hmac, Sha1Rfc2202Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const auto data = bytes("Hi There");
  const auto mac =
      Hmac<Sha1>::mac(std::span<const std::uint8_t>(key),
                      std::span<const std::uint8_t>(data));
  EXPECT_EQ(hex(mac), "b617318655057264e28bc0b6fb378c8ef146be00");
}

// RFC 4231 test case 1 for HMAC-SHA256.
TEST(Hmac, Sha256Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const auto data = bytes("Hi There");
  const auto mac =
      Hmac<Sha256>::mac(std::span<const std::uint8_t>(key),
                        std::span<const std::uint8_t>(data));
  EXPECT_EQ(hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2: key shorter than block, "what do ya want for nothing?"
TEST(Hmac, Sha256Rfc4231Case2) {
  const auto key = bytes("Jefe");
  const auto data = bytes("what do ya want for nothing?");
  const auto mac =
      Hmac<Sha256>::mac(std::span<const std::uint8_t>(key),
                        std::span<const std::uint8_t>(data));
  EXPECT_EQ(hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20-byte 0xaa key, 50 bytes of 0xdd.
TEST(Hmac, Sha256Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  const auto mac =
      Hmac<Sha256>::mac(std::span<const std::uint8_t>(key),
                        std::span<const std::uint8_t>(data));
  EXPECT_EQ(hex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size (131 bytes of 0xaa).
TEST(Hmac, Sha256LongKey) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const auto data = bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  const auto mac =
      Hmac<Sha256>::mac(std::span<const std::uint8_t>(key),
                        std::span<const std::uint8_t>(data));
  EXPECT_EQ(hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- NSEC3 hash ---

std::vector<std::uint8_t> wire_name(std::initializer_list<std::string> labels) {
  std::vector<std::uint8_t> out;
  for (const auto& label : labels) {
    out.push_back(static_cast<std::uint8_t>(label.size()));
    out.insert(out.end(), label.begin(), label.end());
  }
  out.push_back(0);
  return out;
}

std::string base32hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdefghijklmnopqrstuv";
  std::string out;
  std::uint32_t bits = 0;
  int nbits = 0;
  for (const std::uint8_t b : data) {
    bits = (bits << 8) | b;
    nbits += 8;
    while (nbits >= 5) {
      nbits -= 5;
      out.push_back(kDigits[(bits >> nbits) & 0x1f]);
    }
  }
  if (nbits > 0) out.push_back(kDigits[(bits << (5 - nbits)) & 0x1f]);
  return out;
}

// RFC 5155 Appendix A: zone "example", salt aabbccdd, 12 iterations.
TEST(Nsec3Hash, Rfc5155AppendixAExample) {
  const std::vector<std::uint8_t> salt = {0xaa, 0xbb, 0xcc, 0xdd};
  const auto owner = wire_name({"example"});
  const auto digest = nsec3_hash(std::span<const std::uint8_t>(owner),
                                 std::span<const std::uint8_t>(salt), 12);
  EXPECT_EQ(base32hex(std::span<const std::uint8_t>(digest.data(), 20)),
            "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom");
}

TEST(Nsec3Hash, Rfc5155AppendixAAExample) {
  const std::vector<std::uint8_t> salt = {0xaa, 0xbb, 0xcc, 0xdd};
  const auto owner = wire_name({"a", "example"});
  const auto digest = nsec3_hash(std::span<const std::uint8_t>(owner),
                                 std::span<const std::uint8_t>(salt), 12);
  EXPECT_EQ(base32hex(std::span<const std::uint8_t>(digest.data(), 20)),
            "35mthgpgcu1qg68fab165klnsnk3dpvl");
}

TEST(Nsec3Hash, ZeroIterationsIsSingleHash) {
  CostMeter::reset();
  const auto owner = wire_name({"www", "example", "com"});
  (void)nsec3_hash(std::span<const std::uint8_t>(owner), {}, 0);
  // name+salt < 55 bytes: exactly one SHA-1 block.
  EXPECT_EQ(CostMeter::sha1_blocks(), 1u);
  EXPECT_EQ(CostMeter::nsec3_hashes(), 1u);
}

TEST(Nsec3Hash, IterationCountScalesWork) {
  const auto owner = wire_name({"www", "example", "com"});
  CostMeter::reset();
  (void)nsec3_hash(std::span<const std::uint8_t>(owner), {}, 0);
  const auto one = CostMeter::sha1_blocks();
  CostMeter::reset();
  (void)nsec3_hash(std::span<const std::uint8_t>(owner), {}, 150);
  const auto many = CostMeter::sha1_blocks();
  EXPECT_EQ(many, one + 150);  // each extra iteration hashes 20B+salt: 1 block
}

TEST(Nsec3Hash, SaltChangesDigest) {
  const auto owner = wire_name({"example", "com"});
  const std::vector<std::uint8_t> salt1 = {0x01};
  const auto d0 = nsec3_hash(std::span<const std::uint8_t>(owner), {}, 5);
  const auto d1 = nsec3_hash(std::span<const std::uint8_t>(owner),
                             std::span<const std::uint8_t>(salt1), 5);
  EXPECT_NE(d0, d1);
}

TEST(Nsec3Hash, IterationChangesDigest) {
  const auto owner = wire_name({"example", "com"});
  const auto d0 = nsec3_hash(std::span<const std::uint8_t>(owner), {}, 0);
  const auto d1 = nsec3_hash(std::span<const std::uint8_t>(owner), {}, 1);
  EXPECT_NE(d0, d1);
}

// --- Simulated signatures ---

TEST(SimSigning, DeterministicDerivation) {
  const SimKey a = SimKey::derive("example.com/zsk");
  const SimKey b = SimKey::derive("example.com/zsk");
  EXPECT_EQ(a.public_key(), b.public_key());
  const SimKey c = SimKey::derive("example.com/ksk");
  EXPECT_NE(a.public_key(), c.public_key());
}

TEST(SimSigning, SignVerifyRoundTrip) {
  const SimKey key = SimKey::derive("example.org/zsk");
  const auto data = bytes("signed rrset bytes");
  const auto sig = key.sign(std::span<const std::uint8_t>(data));
  EXPECT_TRUE(sim_verify(key.public_key(), std::span<const std::uint8_t>(data),
                         std::span<const std::uint8_t>(sig.data(), sig.size())));
}

TEST(SimSigning, TamperedDataFailsVerification) {
  const SimKey key = SimKey::derive("example.org/zsk");
  auto data = bytes("signed rrset bytes");
  const auto sig = key.sign(std::span<const std::uint8_t>(data));
  data[3] ^= 0x01;
  EXPECT_FALSE(sim_verify(key.public_key(), std::span<const std::uint8_t>(data),
                          std::span<const std::uint8_t>(sig.data(), sig.size())));
}

TEST(SimSigning, WrongKeyFailsVerification) {
  const SimKey key = SimKey::derive("example.org/zsk");
  const SimKey other = SimKey::derive("evil.example/zsk");
  const auto data = bytes("signed rrset bytes");
  const auto sig = key.sign(std::span<const std::uint8_t>(data));
  EXPECT_FALSE(
      sim_verify(other.public_key(), std::span<const std::uint8_t>(data),
                 std::span<const std::uint8_t>(sig.data(), sig.size())));
}

TEST(SimSigning, TruncatedSignatureRejected) {
  const SimKey key = SimKey::derive("example.org/zsk");
  const auto data = bytes("payload");
  const auto sig = key.sign(std::span<const std::uint8_t>(data));
  EXPECT_FALSE(sim_verify(key.public_key(), std::span<const std::uint8_t>(data),
                          std::span<const std::uint8_t>(sig.data(), 31)));
}

// --- Multi-buffer SHA-1 (sha1_mb.hpp) ---

std::vector<Sha1Impl> supported_impls() {
  std::vector<Sha1Impl> impls;
  for (const Sha1Impl impl :
       {Sha1Impl::kScalar, Sha1Impl::kSsse3, Sha1Impl::kAvx2})
    if (sha1_impl_supported(impl)) impls.push_back(impl);
  return impls;
}

/// Forces an implementation for one scope, restoring the previous one.
class ScopedSha1Impl {
 public:
  explicit ScopedSha1Impl(Sha1Impl impl) : previous_(sha1_impl()) {
    set_sha1_impl(impl);
  }
  ~ScopedSha1Impl() { set_sha1_impl(previous_); }

 private:
  Sha1Impl previous_;
};

/// Deterministic messages for ragged-batch tests: a mix of lengths hitting
/// the padding edge cases (empty, 55/56 split, exact blocks, multi-block).
std::vector<std::vector<std::uint8_t>> ragged_messages() {
  std::vector<std::vector<std::uint8_t>> messages;
  std::uint32_t lcg = 0x5eed1234u;
  const std::size_t lengths[] = {0,  1,  55, 56,  63, 64,  65,  119,
                                 120, 127, 128, 129, 200, 256, 300, 3};
  for (const std::size_t len : lengths) {
    std::vector<std::uint8_t> message(len);
    for (auto& b : message) {
      lcg = lcg * 1664525u + 1013904223u;
      b = static_cast<std::uint8_t>(lcg >> 24);
    }
    messages.push_back(std::move(message));
  }
  return messages;
}

std::vector<std::span<const std::uint8_t>> as_spans(
    const std::vector<std::vector<std::uint8_t>>& messages) {
  std::vector<std::span<const std::uint8_t>> spans;
  spans.reserve(messages.size());
  for (const auto& m : messages) spans.emplace_back(m.data(), m.size());
  return spans;
}

TEST(Sha1Multi, RegistryRoundTrip) {
  EXPECT_STREQ(sha1_impl_name(Sha1Impl::kScalar), "scalar");
  EXPECT_STREQ(sha1_impl_name(Sha1Impl::kSsse3), "ssse3");
  EXPECT_STREQ(sha1_impl_name(Sha1Impl::kAvx2), "avx2");
  EXPECT_EQ(parse_sha1_impl("scalar"), Sha1Impl::kScalar);
  EXPECT_EQ(parse_sha1_impl("ssse3"), Sha1Impl::kSsse3);
  EXPECT_EQ(parse_sha1_impl("avx2"), Sha1Impl::kAvx2);
  EXPECT_FALSE(parse_sha1_impl("sse2").has_value());
  EXPECT_FALSE(parse_sha1_impl("").has_value());
  EXPECT_EQ(sha1_impl_lanes(Sha1Impl::kScalar), 1u);
  EXPECT_EQ(sha1_impl_lanes(Sha1Impl::kSsse3), 4u);
  EXPECT_EQ(sha1_impl_lanes(Sha1Impl::kAvx2), 8u);
}

TEST(Sha1Multi, ScalarAlwaysSupported) {
  EXPECT_TRUE(sha1_impl_supported(Sha1Impl::kScalar));
  EXPECT_TRUE(sha1_impl_supported(sha1_best_impl()));
}

TEST(Sha1Multi, UnsupportedRequestClampsToBest) {
  const Sha1Impl original = sha1_impl();
  for (const Sha1Impl impl :
       {Sha1Impl::kScalar, Sha1Impl::kSsse3, Sha1Impl::kAvx2}) {
    const Sha1Impl effective = set_sha1_impl(impl);
    EXPECT_TRUE(sha1_impl_supported(effective));
    if (sha1_impl_supported(impl)) {
      EXPECT_EQ(effective, impl);
    }
    EXPECT_EQ(sha1_impl(), effective);
  }
  set_sha1_impl(original);
}

TEST(Sha1Multi, Rfc3174VectorsOnEveryImplementation) {
  const std::vector<std::vector<std::uint8_t>> messages = {
      bytes("abc"),
      bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      bytes(""),
      bytes(std::string(64, 'x')),
  };
  const std::vector<std::string> expected = {
      "a9993e364706816aba3e25717850c26c9cd0d89d",
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
      "da39a3ee5e6b4b0d3255bfef95601890afd80709",
      hex(Sha1::hash(std::string_view(std::string(64, 'x')))),
  };
  for (const Sha1Impl impl : supported_impls()) {
    ScopedSha1Impl scoped(impl);
    const auto spans = as_spans(messages);
    std::vector<Sha1::Digest> digests(messages.size());
    sha1_multi_hash(std::span<const std::span<const std::uint8_t>>(
                        spans.data(), spans.size()),
                    digests.data());
    for (std::size_t i = 0; i < messages.size(); ++i)
      EXPECT_EQ(hex(digests[i]), expected[i])
          << sha1_impl_name(impl) << " message " << i;
  }
}

TEST(Sha1Multi, RaggedBatchesMatchSingleMessageHashing) {
  const auto messages = ragged_messages();
  const auto spans = as_spans(messages);

  // Reference digests and the logical block count of a scalar
  // message-at-a-time run.
  std::vector<std::string> expected;
  std::uint64_t expected_blocks = 0;
  for (const auto& message : messages) {
    expected.push_back(hex(
        Sha1::hash(std::span<const std::uint8_t>(message.data(),
                                                 message.size()))));
    expected_blocks += (message.size() + 8) / Sha1::kBlockSize + 1;
  }

  for (const Sha1Impl impl : supported_impls()) {
    ScopedSha1Impl scoped(impl);
    // Partial final batch: every sub-batch size from 1 to count exercises
    // lanes left idle at the tail.
    for (std::size_t batch = 1; batch <= spans.size(); batch += 5) {
      std::vector<Sha1::Digest> digests(spans.size());
      CostMeter::reset();
      for (std::size_t start = 0; start < spans.size(); start += batch) {
        const std::size_t n = std::min(batch, spans.size() - start);
        sha1_multi_hash(std::span<const std::span<const std::uint8_t>>(
                            spans.data() + start, n),
                        digests.data() + start);
      }
      for (std::size_t i = 0; i < spans.size(); ++i)
        EXPECT_EQ(hex(digests[i]), expected[i])
            << sha1_impl_name(impl) << " batch " << batch << " message " << i;
      // Logical cost is invariant across implementations and batch splits,
      // and batching never fakes physical work it did not do.
      EXPECT_EQ(CostMeter::sha1_blocks(), expected_blocks)
          << sha1_impl_name(impl) << " batch " << batch;
      EXPECT_EQ(CostMeter::sha1_physical_blocks(), expected_blocks)
          << sha1_impl_name(impl) << " batch " << batch;
    }
  }
}

TEST(Sha1Multi, IterateMatchesScalarLoop) {
  // Every suffix length up to 300 B: 1–5 padded blocks in the lane buffers,
  // and 6 past 291 B, where sha1_multi_iterate hands over to sha1_iterate.
  constexpr std::uint16_t kIterations = 17;
  for (std::size_t len = 0; len <= 300; ++len) {
    std::vector<std::uint8_t> suffix(len);
    for (std::size_t i = 0; i < len; ++i)
      suffix[i] = static_cast<std::uint8_t>(0xaa + i);
    const std::span<const std::uint8_t> suffix_span(suffix.data(),
                                                    suffix.size());
    // 5 digests: a partial final group on every implementation width.
    std::vector<Sha1::Digest> seed(5);
    for (std::size_t i = 0; i < seed.size(); ++i)
      seed[i] = Sha1::hash(std::string_view(std::string(i + 1, 'q')));

    // Streaming reference.
    std::vector<Sha1::Digest> expected = seed;
    for (auto& digest : expected) {
      for (std::uint16_t it = 0; it < kIterations; ++it) {
        Sha1 h;
        h.update(std::span<const std::uint8_t>(digest.data(), digest.size()));
        h.update(suffix_span);
        digest = h.finalize();
      }
    }
    const std::uint64_t blocks =
        seed.size() * kIterations * Sha1::blocks_for(20 + len);

    for (const Sha1Impl impl : supported_impls()) {
      ScopedSha1Impl scoped(impl);
      std::vector<Sha1::Digest> multi = seed;
      CostMeter::reset();
      sha1_multi_iterate(std::span<Sha1::Digest>(multi.data(), multi.size()),
                         suffix_span, kIterations);
      EXPECT_EQ(multi, expected) << sha1_impl_name(impl) << " suffix " << len;
      EXPECT_EQ(CostMeter::sha1_blocks(), blocks)
          << sha1_impl_name(impl) << " suffix " << len;
      EXPECT_EQ(CostMeter::sha1_physical_blocks(), blocks)
          << sha1_impl_name(impl) << " suffix " << len;

      std::vector<Sha1::Digest> single = seed;
      CostMeter::reset();
      for (auto& digest : single)
        sha1_iterate(digest, suffix_span, kIterations);
      EXPECT_EQ(single, expected) << sha1_impl_name(impl) << " suffix " << len;
      EXPECT_EQ(CostMeter::sha1_blocks(), blocks)
          << sha1_impl_name(impl) << " suffix " << len;
      EXPECT_EQ(CostMeter::sha1_physical_blocks(), blocks)
          << sha1_impl_name(impl) << " suffix " << len;
    }
  }
}

TEST(Sha1Multi, BatchMeterCountsBatchesAndMessages) {
  Sha1BatchMeter::reset();
  const auto messages = ragged_messages();
  const auto spans = as_spans(messages);
  std::vector<Sha1::Digest> digests(spans.size());
  sha1_multi_hash(std::span<const std::span<const std::uint8_t>>(
                      spans.data(), spans.size()),
                  digests.data());
  EXPECT_EQ(Sha1BatchMeter::batches(), 1u);
  EXPECT_EQ(Sha1BatchMeter::messages(), spans.size());
}

// --- Batched NSEC3 hashing ---

TEST(Nsec3Batch, Rfc5155VectorsViaBatch) {
  const std::vector<std::uint8_t> salt = {0xaa, 0xbb, 0xcc, 0xdd};
  const std::vector<std::vector<std::uint8_t>> owners = {
      wire_name({"example"}), wire_name({"a", "example"})};
  for (const Sha1Impl impl : supported_impls()) {
    ScopedSha1Impl scoped(impl);
    const auto spans = as_spans(owners);
    std::vector<Nsec3Digest> digests(owners.size());
    nsec3_hash_batch(std::span<const std::span<const std::uint8_t>>(
                         spans.data(), spans.size()),
                     std::span<const std::uint8_t>(salt.data(), salt.size()),
                     12, digests.data());
    EXPECT_EQ(base32hex(std::span<const std::uint8_t>(digests[0].data(), 20)),
              "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom")
        << sha1_impl_name(impl);
    EXPECT_EQ(base32hex(std::span<const std::uint8_t>(digests[1].data(), 20)),
              "35mthgpgcu1qg68fab165klnsnk3dpvl")
        << sha1_impl_name(impl);
  }
}

TEST(Nsec3Batch, MatchesSingleHashingAcrossImplementations) {
  // Ragged owner names (1–60 byte wire forms) under a non-trivial salt and
  // iteration count; batch digests and logical accounting must match the
  // one-at-a-time path exactly on every implementation.
  std::vector<std::vector<std::uint8_t>> owners;
  for (std::size_t i = 0; i < 13; ++i)
    owners.push_back(wire_name(
        {std::string(1 + (i * 7) % 40, static_cast<char>('a' + (i % 26))),
         "example"}));
  const std::vector<std::uint8_t> salt = {0x5a, 0x5a, 0x5a};
  constexpr std::uint16_t kIterations = 10;

  std::vector<std::string> expected;
  CostMeter::reset();
  for (const auto& owner : owners)
    expected.push_back(hex(nsec3_hash(
        std::span<const std::uint8_t>(owner.data(), owner.size()),
        std::span<const std::uint8_t>(salt.data(), salt.size()),
        kIterations)));
  const std::uint64_t expected_sha1 = CostMeter::sha1_blocks();
  const std::uint64_t expected_nsec3 = CostMeter::nsec3_hashes();

  for (const Sha1Impl impl : supported_impls()) {
    ScopedSha1Impl scoped(impl);
    const auto spans = as_spans(owners);
    std::vector<Nsec3Digest> digests(owners.size());
    CostMeter::reset();
    nsec3_hash_batch(std::span<const std::span<const std::uint8_t>>(
                         spans.data(), spans.size()),
                     std::span<const std::uint8_t>(salt.data(), salt.size()),
                     kIterations, digests.data());
    for (std::size_t i = 0; i < owners.size(); ++i)
      EXPECT_EQ(hex(digests[i]), expected[i])
          << sha1_impl_name(impl) << " owner " << i;
    EXPECT_EQ(CostMeter::sha1_blocks(), expected_sha1) << sha1_impl_name(impl);
    EXPECT_EQ(CostMeter::nsec3_hashes(), expected_nsec3)
        << sha1_impl_name(impl);
    EXPECT_EQ(CostMeter::sha1_physical_blocks(), expected_sha1)
        << sha1_impl_name(impl);
  }
}

TEST(Nsec3Batch, EmptyBatchIsANoOp) {
  CostMeter::reset();
  nsec3_hash_batch({}, {}, 100, nullptr);
  EXPECT_EQ(CostMeter::sha1_blocks(), 0u);
  EXPECT_EQ(CostMeter::nsec3_hashes(), 0u);
}

// --- Single-stream compress and the fixed-block iterate loop ---

/// Textbook FIPS 180-4 compression (80-word schedule, one round loop): the
/// oracle the optimised single-stream kernels are checked against.
void reference_compress(std::uint32_t state[5], const std::uint8_t* block) {
  const auto rotl = [](std::uint32_t x, int n) {
    return (x << n) | (x >> (32 - n));
  };
  std::uint32_t w[80];
  for (int t = 0; t < 16; ++t)
    w[t] = (std::uint32_t{block[4 * t]} << 24) |
           (std::uint32_t{block[4 * t + 1]} << 16) |
           (std::uint32_t{block[4 * t + 2]} << 8) | block[4 * t + 3];
  for (int t = 16; t < 80; ++t)
    w[t] = rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4];
  for (int t = 0; t < 80; ++t) {
    std::uint32_t f, k;
    if (t < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (t < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (t < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const std::uint32_t tmp = rotl(a, 5) + f + e + k + w[t];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = tmp;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

/// The reference over `n` consecutive blocks.
void reference_compress_blocks(std::uint32_t state[5],
                               const std::uint8_t* blocks, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    reference_compress(state, blocks + 64 * i);
}

/// The whole message padded by hand: 0x80, zeros, big-endian bit length.
std::vector<std::uint8_t> textbook_padded(std::string_view message) {
  std::vector<std::uint8_t> padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = std::uint64_t{message.size()} * 8;
  for (int i = 7; i >= 0; --i)
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  return padded;
}

/// Hex digest of `message` with `compress` fed every block in one call.
template <typename Compress>
std::string hash_by(Compress compress, std::string_view message) {
  const auto padded = textbook_padded(message);
  std::uint32_t state[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                            0x10325476u, 0xC3D2E1F0u};
  compress(state, padded.data(), padded.size() / 64);
  std::array<std::uint8_t, 20> digest;
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 4; ++j)
      digest[4 * i + j] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
  return hex(digest);
}

/// RFC 3174 §7.3's four test messages and digests.
std::vector<std::pair<std::string, std::string>> rfc3174_vectors() {
  std::string four;
  for (int i = 0; i < 80; ++i) four += "01234567";
  return {
      {"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
      {std::string(1000000, 'a'), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
      {four, "dea356a2cddd90c7a7ecedc5ebb563934f460452"},
  };
}

/// Checks `compress` against the reference on RFC 3174 and on 10 K random
/// (state, block) pairs from a fixed seed.
template <typename Compress>
void expect_matches_reference(Compress compress) {
  for (const auto& [message, digest] : rfc3174_vectors()) {
    EXPECT_EQ(hash_by(compress, message), digest) << message.size() << " B";
    EXPECT_EQ(hash_by(reference_compress_blocks, message), digest)
        << "reference, " << message.size() << " B";
  }
  std::mt19937 rng(20240526);
  for (int pair = 0; pair < 10000; ++pair) {
    std::uint32_t state[5];
    for (auto& word : state) word = static_cast<std::uint32_t>(rng());
    std::uint8_t block[64];
    for (auto& byte : block) byte = static_cast<std::uint8_t>(rng());
    std::uint32_t expected[5];
    std::memcpy(expected, state, sizeof state);
    reference_compress(expected, block);
    compress(state, block, 1);
    ASSERT_EQ(0, std::memcmp(state, expected, sizeof state)) << "pair " << pair;
  }
}

TEST(Sha1Compress, PortableRoundMatchesTextbookReference) {
  expect_matches_reference(
      [](std::uint32_t state[5], const std::uint8_t* blocks, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
          sha1_compress_scalar(state, blocks + 64 * i);
      });
  // A forced scalar setting routes the single-stream dispatch to it too.
  ScopedSha1Impl scoped(Sha1Impl::kScalar);
  expect_matches_reference(sha1_compress);
}

TEST(Sha1Compress, ShaNiMatchesTextbookReference) {
  if (!sha1_shani_supported() || sha1_best_impl() == Sha1Impl::kScalar)
    GTEST_SKIP() << "SHA-NI not supported on this host/build";
  // Any setting but kScalar lets the dispatch take the SHA-NI kernel.
  ScopedSha1Impl scoped(sha1_best_impl());
  expect_matches_reference(sha1_compress);
}

TEST(Sha1, EveryLengthMatchesTextbookReferenceAndBlockCount) {
  // Covers finalize()'s in-place padding on both sides of the 55/56 split.
  std::string message;
  for (std::size_t len = 0; len <= 200; ++len) {
    CostMeter::reset();
    EXPECT_EQ(hex(Sha1::hash(message)),
              hash_by(reference_compress_blocks, message))
        << len << " B";
    EXPECT_EQ(CostMeter::sha1_blocks(), Sha1::blocks_for(len)) << len << " B";
    EXPECT_EQ(CostMeter::sha1_physical_blocks(), Sha1::blocks_for(len));
    message.push_back(static_cast<char>('a' + len % 26));
  }
}

TEST(Nsec3Hash, MatchesBatchForEverySaltLengthAndBlockCount) {
  // Every legal salt length (0–255 B) crosses each padding boundary of both
  // the first hash and the re-hash (one/two blocks at salt 35/36, ...).
  // Runs under whatever kernel ZH_SHA1_IMPL selects, so the forced-kernel
  // matrix covers the portable round, SHA-NI and each batch width.
  const std::vector<std::vector<std::uint8_t>> owners = {
      wire_name({"example"}),
      wire_name({std::string(40, 'h'), "zone", "example"})};
  const auto spans = as_spans(owners);
  const std::span<const std::span<const std::uint8_t>> batch(spans.data(),
                                                             spans.size());
  for (const std::uint16_t iterations : {0, 1, 2, 150, 2500}) {
    for (std::size_t len = 0; len <= 255; ++len) {
      std::vector<std::uint8_t> salt(len);
      for (std::size_t i = 0; i < len; ++i)
        salt[i] = static_cast<std::uint8_t>(i * 7 + len);
      const std::span<const std::uint8_t> salt_span(salt.data(), salt.size());
      std::uint64_t blocks = 0;
      for (const auto& owner : owners)
        blocks += Sha1::blocks_for(owner.size() + len) +
                  std::uint64_t{iterations} * Sha1::blocks_for(20 + len);

      std::vector<Nsec3Digest> single;
      CostMeter::reset();
      for (const auto& owner : spans)
        single.push_back(nsec3_hash(owner, salt_span, iterations));
      EXPECT_EQ(CostMeter::sha1_blocks(), blocks)
          << "salt " << len << " iterations " << iterations;
      EXPECT_EQ(CostMeter::sha1_physical_blocks(), blocks)
          << "salt " << len << " iterations " << iterations;
      EXPECT_EQ(CostMeter::nsec3_hashes(), owners.size());

      std::vector<Nsec3Digest> batched(owners.size());
      CostMeter::reset();
      nsec3_hash_batch(batch, salt_span, iterations, batched.data());
      EXPECT_EQ(CostMeter::sha1_blocks(), blocks)
          << "salt " << len << " iterations " << iterations;
      EXPECT_EQ(CostMeter::sha1_physical_blocks(), blocks)
          << "salt " << len << " iterations " << iterations;
      EXPECT_EQ(CostMeter::nsec3_hashes(), owners.size());

      ASSERT_EQ(single, batched)
          << "salt " << len << " iterations " << iterations;
    }
  }
}

TEST(CostMeter, ScopedMeasurement) {
  CostMeter::reset();
  Sha1WorkScope scope;
  (void)Sha1::hash(std::string_view{"abc"});
  EXPECT_EQ(scope.elapsed(), 1u);
  (void)Sha1::hash(std::string_view(std::string(200, 'x')));
  EXPECT_GE(scope.elapsed(), 4u);
}

}  // namespace
}  // namespace zh::crypto
