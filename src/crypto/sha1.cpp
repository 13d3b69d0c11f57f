#include "crypto/sha1.hpp"

#include <bit>
#include <cstring>
#include <vector>

#include "crypto/cost_meter.hpp"
#include "crypto/sha1_mb.hpp"

namespace zh::crypto {
namespace {

constexpr std::uint32_t kIv[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                  0x10325476u, 0xC3D2E1F0u};

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

/// Schedule word t (0..79), kept in a 16-word ring: w[t mod 16] is replaced
/// by word t once t reaches 16.
inline std::uint32_t schedule(std::uint32_t w[16], int t) noexcept {
  if (t >= 16)
    w[t & 15] = std::rotl(
        w[(t - 3) & 15] ^ w[(t - 8) & 15] ^ w[(t - 14) & 15] ^ w[t & 15], 1);
  return w[t & 15];
}

/// One round of stage S (0..3). The five working variables are renamed from
/// round to round instead of shifted: `e` accumulates the new `a`, and `b`
/// is rotated in place.
template <int S>
inline void round(std::uint32_t a, std::uint32_t& b, std::uint32_t c,
                  std::uint32_t d, std::uint32_t& e, std::uint32_t w) noexcept {
  constexpr std::uint32_t kK[4] = {0x5A827999u, 0x6ED9EBA1u, 0x8F1BBCDCu,
                                   0xCA62C1D6u};
  std::uint32_t f;
  if constexpr (S == 0) {
    f = d ^ (b & (c ^ d));  // Ch
  } else if constexpr (S == 2) {
    f = (b & c) | (d & (b | c));  // Maj
  } else {
    f = b ^ c ^ d;  // Parity
  }
  e += std::rotl(a, 5) + f + kK[S] + w;
  b = std::rotl(b, 30);
}

/// Rounds 20S..20S+19, five at a time so the renaming comes full circle.
template <int S>
inline void twenty_rounds(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d, std::uint32_t& e,
                          std::uint32_t w[16]) noexcept {
#pragma GCC unroll 4
  for (int t = 20 * S; t < 20 * S + 20; t += 5) {
    round<S>(a, b, c, d, e, schedule(w, t));
    round<S>(e, a, b, c, d, schedule(w, t + 1));
    round<S>(d, e, a, b, c, schedule(w, t + 2));
    round<S>(c, d, e, a, b, schedule(w, t + 3));
    round<S>(b, c, d, e, a, schedule(w, t + 4));
  }
}

}  // namespace

void sha1_compress_scalar(std::uint32_t state[5],
                          const std::uint8_t* block) noexcept {
  std::uint32_t w[16];
  for (int t = 0; t < 16; ++t) w[t] = load_be32(block + 4 * t);

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4];
  twenty_rounds<0>(a, b, c, d, e, w);
  twenty_rounds<1>(a, b, c, d, e, w);
  twenty_rounds<2>(a, b, c, d, e, w);
  twenty_rounds<3>(a, b, c, d, e, w);

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

void sha1_compress(std::uint32_t state[5], const std::uint8_t* blocks,
                   std::size_t nblocks) noexcept {
#if defined(ZH_HAVE_SHA1_SHANI)
  static const bool shani = sha1_shani_supported();
  if (shani && sha1_impl() != Sha1Impl::kScalar) {
    detail::sha1_compress_shani(state, blocks, nblocks);
    return;
  }
#endif
  for (; nblocks > 0; --nblocks, blocks += Sha1::kBlockSize)
    sha1_compress_scalar(state, blocks);
}

bool sha1_shani_supported() noexcept {
#if defined(ZH_HAVE_SHA1_SHANI)
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

std::size_t detail::sha1_pad_tail(std::uint8_t* tail, std::size_t rem,
                                  std::uint64_t total_len) noexcept {
  const std::size_t blocks = rem < Sha1::kBlockSize - 8 ? 1 : 2;
  std::uint8_t* const length = tail + blocks * Sha1::kBlockSize - 8;
  tail[rem] = 0x80;
  std::memset(tail + rem + 1, 0,
              blocks * Sha1::kBlockSize - 8 - (rem + 1));
  const std::uint64_t bits = total_len * 8;
  store_be32(length, static_cast<std::uint32_t>(bits >> 32));
  store_be32(length + 4, static_cast<std::uint32_t>(bits));
  return blocks;
}

void Sha1::reset() noexcept {
  std::memcpy(state_.data(), kIv, sizeof kIv);
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha1::compress(const std::uint8_t* blocks, std::size_t nblocks) noexcept {
  CostMeter::add_sha1_blocks(nblocks);
  CostMeter::add_sha1_physical(nblocks);
  sha1_compress(state_.data(), blocks, nblocks);
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();

  if (buffer_len_ > 0 && n > 0) {
    const std::size_t take = std::min(n, kBlockSize - buffer_len_);
    // An empty span has a null data(); memcpy's pointer args must be
    // non-null even for size 0, so the n > 0 guard above is load-bearing.
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == kBlockSize) {
      compress(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (n >= kBlockSize) {
    const std::size_t whole = n / kBlockSize;
    compress(p, whole);
    p += whole * kBlockSize;
    n -= whole * kBlockSize;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffer_len_ = n;
  }
}

Sha1::Digest Sha1::finalize() noexcept {
  compress(buffer_.data(),
           detail::sha1_pad_tail(buffer_.data(), buffer_len_, total_len_));
  Digest out;
  for (int i = 0; i < 5; ++i) store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

Sha1::Digest Sha1::hash(std::span<const std::uint8_t> data) noexcept {
  Sha1 h;
  h.update(data);
  return h.finalize();
}

Sha1::Digest Sha1::hash(std::string_view data) noexcept {
  Sha1 h;
  h.update(data);
  return h.finalize();
}

void sha1_iterate(Sha1::Digest& digest, std::span<const std::uint8_t> suffix,
                  std::uint16_t iterations) noexcept {
  if (iterations == 0) return;
  const std::size_t len = Sha1::kDigestSize + suffix.size();
  const std::size_t nblocks = Sha1::blocks_for(len);
  // NSEC3 salts are at most 255 bytes, so five blocks hold every real
  // message; a longer suffix spills to the heap.
  std::uint8_t fixed[5 * Sha1::kBlockSize];
  std::vector<std::uint8_t> spill;
  std::uint8_t* message = fixed;
  if (nblocks > 5) {
    spill.resize(nblocks * Sha1::kBlockSize);
    message = spill.data();
  }
  std::memcpy(message, digest.data(), Sha1::kDigestSize);
  if (!suffix.empty())
    std::memcpy(message + Sha1::kDigestSize, suffix.data(), suffix.size());
  const std::size_t whole = len / Sha1::kBlockSize * Sha1::kBlockSize;
  detail::sha1_pad_tail(message + whole, len - whole, len);

  for (std::uint16_t i = 0; i < iterations; ++i) {
    std::uint32_t state[5];
    std::memcpy(state, kIv, sizeof kIv);
    sha1_compress(state, message, nblocks);
    for (int word = 0; word < 5; ++word)
      store_be32(message + 4 * word, state[word]);
  }
  std::memcpy(digest.data(), message, Sha1::kDigestSize);

  const std::uint64_t blocks = std::uint64_t{iterations} * nblocks;
  CostMeter::add_sha1_blocks(blocks);
  CostMeter::add_sha1_physical(blocks);
}

}  // namespace zh::crypto
