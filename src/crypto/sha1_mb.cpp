#include "crypto/sha1_mb.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "crypto/cost_meter.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define ZH_SHA1_X86 1
#endif

namespace zh::crypto {
namespace {

constexpr std::uint32_t kIv[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                  0x10325476u, 0xC3D2E1F0u};

bool cpu_has(Sha1Impl impl) noexcept {
#if defined(ZH_SHA1_X86)
  switch (impl) {
    case Sha1Impl::kScalar:
      return true;
    case Sha1Impl::kSsse3:
      return __builtin_cpu_supports("ssse3");
    case Sha1Impl::kAvx2:
      return __builtin_cpu_supports("avx2");
  }
#endif
  return impl == Sha1Impl::kScalar;
}

bool compiled_in(Sha1Impl impl) noexcept {
  switch (impl) {
    case Sha1Impl::kScalar:
      return true;
    case Sha1Impl::kSsse3:
#if defined(ZH_HAVE_SHA1_SSSE3)
      return true;
#else
      return false;
#endif
    case Sha1Impl::kAvx2:
#if defined(ZH_HAVE_SHA1_AVX2)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Sha1Impl impl_from_env() noexcept {
  const Sha1Impl best = sha1_best_impl();
  const char* env = std::getenv("ZH_SHA1_IMPL");
  if (env == nullptr || *env == '\0') return best;
  const auto parsed = parse_sha1_impl(env);
  if (!parsed) {
    std::fprintf(stderr,
                 "# ZH_SHA1_IMPL='%s' is not one of scalar|ssse3|avx2; "
                 "using %s\n",
                 env, sha1_impl_name(best));
    return best;
  }
  if (!sha1_impl_supported(*parsed)) {
    std::fprintf(stderr,
                 "# ZH_SHA1_IMPL=%s is not supported by this host/build; "
                 "using %s\n",
                 env, sha1_impl_name(best));
    return best;
  }
  return *parsed;
}

std::atomic<std::uint8_t>& active_impl() noexcept {
  static std::atomic<std::uint8_t> impl{
      static_cast<std::uint8_t>(impl_from_env())};
  return impl;
}

/// One message being fed through a lane: full 64-byte blocks come straight
/// from the caller's buffer; the final (padded) 1–2 blocks from `tail`.
struct LaneFeed {
  const std::uint8_t* data = nullptr;
  std::size_t direct_blocks = 0;  // whole blocks readable from `data`
  std::size_t total_blocks = 0;   // direct + padded tail blocks
  std::size_t block = 0;          // cursor
  std::size_t out_index = 0;      // digest slot
  std::uint8_t tail[2 * Sha1::kBlockSize];

  void load(std::span<const std::uint8_t> message, std::size_t index) {
    data = message.data();
    out_index = index;
    block = 0;
    const std::size_t len = message.size();
    direct_blocks = len / Sha1::kBlockSize;
    const std::size_t rem = len % Sha1::kBlockSize;
    if (rem > 0)
      std::memcpy(tail, data + direct_blocks * Sha1::kBlockSize, rem);
    total_blocks = direct_blocks + detail::sha1_pad_tail(tail, rem, len);
  }

  const std::uint8_t* next_block() const noexcept {
    return block < direct_blocks
               ? data + block * Sha1::kBlockSize
               : tail + (block - direct_blocks) * Sha1::kBlockSize;
  }

  bool done() const noexcept { return block == total_blocks; }
};

void store_digest(const detail::LaneState state, std::size_t lane,
                  Sha1::Digest& out) noexcept {
  for (int word = 0; word < 5; ++word) {
    const std::uint32_t v = state[word][lane];
    out[4 * word + 0] = static_cast<std::uint8_t>(v >> 24);
    out[4 * word + 1] = static_cast<std::uint8_t>(v >> 16);
    out[4 * word + 2] = static_cast<std::uint8_t>(v >> 8);
    out[4 * word + 3] = static_cast<std::uint8_t>(v);
  }
}

void reset_lane(detail::LaneState state, std::size_t lane) noexcept {
  for (int word = 0; word < 5; ++word) state[word][lane] = kIv[word];
}

/// Advances every active lane by one block with the selected kernel.
/// Inactive lanes chew a dummy block whose result is discarded.
void compress_step(Sha1Impl impl, detail::LaneState state,
                   const std::uint8_t* const blocks[detail::kMaxLanes],
                   std::size_t lanes, const bool active[detail::kMaxLanes]) {
  switch (impl) {
#if defined(ZH_HAVE_SHA1_AVX2)
    case Sha1Impl::kAvx2:
      detail::sha1_compress_x8_avx2(state, blocks);
      return;
#endif
#if defined(ZH_HAVE_SHA1_SSSE3)
    case Sha1Impl::kSsse3:
      detail::sha1_compress_x4_ssse3(state, blocks);
      return;
#endif
    default:
      for (std::size_t lane = 0; lane < lanes; ++lane)
        if (active[lane])
          detail::sha1_compress_lane_scalar(state, blocks[lane], lane);
      return;
  }
}

}  // namespace

const char* sha1_impl_name(Sha1Impl impl) noexcept {
  switch (impl) {
    case Sha1Impl::kScalar:
      return "scalar";
    case Sha1Impl::kSsse3:
      return "ssse3";
    case Sha1Impl::kAvx2:
      return "avx2";
  }
  return "scalar";
}

std::optional<Sha1Impl> parse_sha1_impl(std::string_view name) noexcept {
  if (name == "scalar") return Sha1Impl::kScalar;
  if (name == "ssse3") return Sha1Impl::kSsse3;
  if (name == "avx2") return Sha1Impl::kAvx2;
  return std::nullopt;
}

bool sha1_impl_supported(Sha1Impl impl) noexcept {
  return compiled_in(impl) && cpu_has(impl);
}

Sha1Impl sha1_best_impl() noexcept {
  if (sha1_impl_supported(Sha1Impl::kAvx2)) return Sha1Impl::kAvx2;
  if (sha1_impl_supported(Sha1Impl::kSsse3)) return Sha1Impl::kSsse3;
  return Sha1Impl::kScalar;
}

std::size_t sha1_impl_lanes(Sha1Impl impl) noexcept {
  switch (impl) {
    case Sha1Impl::kScalar:
      return 1;
    case Sha1Impl::kSsse3:
      return 4;
    case Sha1Impl::kAvx2:
      return 8;
  }
  return 1;
}

Sha1Impl sha1_impl() noexcept {
  return static_cast<Sha1Impl>(active_impl().load(std::memory_order_relaxed));
}

Sha1Impl set_sha1_impl(Sha1Impl impl) noexcept {
  if (!sha1_impl_supported(impl)) impl = sha1_best_impl();
  active_impl().store(static_cast<std::uint8_t>(impl),
                      std::memory_order_relaxed);
  return impl;
}

namespace detail {

void sha1_compress_lane_scalar(LaneState state, const std::uint8_t* block,
                               std::size_t lane) noexcept {
  std::uint32_t h[5];
  for (int word = 0; word < 5; ++word) h[word] = state[word][lane];
  sha1_compress_scalar(h, block);
  for (int word = 0; word < 5; ++word) state[word][lane] = h[word];
}

}  // namespace detail

void sha1_multi_hash(std::span<const std::span<const std::uint8_t>> messages,
                     Sha1::Digest* out) {
  const std::size_t count = messages.size();
  if (count == 0) return;
  Sha1BatchMeter::add_batch(count);

  const Sha1Impl impl = sha1_impl();
  const std::size_t lanes = sha1_impl_lanes(impl);

  static constexpr std::uint8_t kDummyBlock[Sha1::kBlockSize] = {};
  detail::LaneState state;
  LaneFeed feeds[detail::kMaxLanes];
  bool active[detail::kMaxLanes] = {};
  const std::uint8_t* blocks[detail::kMaxLanes];
  for (std::size_t lane = 0; lane < detail::kMaxLanes; ++lane)
    blocks[lane] = kDummyBlock;

  std::uint64_t logical_blocks = 0;
  std::size_t next = 0;  // next message to feed into a freed lane
  std::size_t live = 0;

  const auto refill = [&](std::size_t lane) {
    if (next < count) {
      feeds[lane].load(messages[next], next);
      logical_blocks += feeds[lane].total_blocks;
      reset_lane(state, lane);
      active[lane] = true;
      ++next;
      ++live;
    } else {
      active[lane] = false;
      blocks[lane] = kDummyBlock;
    }
  };

  for (std::size_t lane = 0; lane < lanes; ++lane) refill(lane);

  std::uint64_t physical_blocks = 0;
  while (live > 0) {
    for (std::size_t lane = 0; lane < lanes; ++lane)
      if (active[lane]) blocks[lane] = feeds[lane].next_block();
    compress_step(impl, state, blocks, lanes, active);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (!active[lane]) continue;
      ++physical_blocks;
      ++feeds[lane].block;
      if (feeds[lane].done()) {
        store_digest(state, lane, out[feeds[lane].out_index]);
        --live;
        refill(lane);
      }
    }
  }

  // Logical accounting is what a scalar message-at-a-time run would tick;
  // because every lane-block above belonged to a real message, physical
  // equals logical here (memoisation, not batching, is what divides them).
  CostMeter::add_sha1_blocks(logical_blocks);
  CostMeter::add_sha1_physical(physical_blocks);
}

void sha1_multi_iterate(std::span<Sha1::Digest> digests,
                        std::span<const std::uint8_t> suffix,
                        std::uint16_t iterations) {
  const std::size_t count = digests.size();
  if (count == 0 || iterations == 0) return;

  const std::size_t msg_len = Sha1::kDigestSize + suffix.size();
  // One padded message per lane. NSEC3 salts are at most 255 bytes, so five
  // blocks always suffice; anything longer takes the single-stream loop.
  constexpr std::size_t kMaxBuf = 5 * Sha1::kBlockSize;
  const std::size_t nblocks = Sha1::blocks_for(msg_len);
  if (nblocks * Sha1::kBlockSize > kMaxBuf) {
    for (Sha1::Digest& digest : digests)
      sha1_iterate(digest, suffix, iterations);
    return;
  }

  const Sha1Impl impl = sha1_impl();
  const std::size_t lanes = sha1_impl_lanes(impl);

  // Constant part of every lane's message: suffix, padding, bit length.
  std::uint8_t buffers[detail::kMaxLanes][kMaxBuf];
  const std::size_t whole = msg_len / Sha1::kBlockSize * Sha1::kBlockSize;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    std::uint8_t* buf = buffers[lane];
    std::memset(buf, 0, Sha1::kDigestSize);  // idle lanes hash this slot
    if (!suffix.empty())
      std::memcpy(buf + Sha1::kDigestSize, suffix.data(), suffix.size());
    detail::sha1_pad_tail(buf + whole, msg_len - whole, msg_len);
  }

  detail::LaneState state;
  bool active[detail::kMaxLanes] = {};
  const std::uint8_t* blocks[detail::kMaxLanes];
  for (std::size_t lane = 0; lane < detail::kMaxLanes; ++lane)
    blocks[lane] = buffers[0];

  std::uint64_t processed = 0;
  for (std::size_t group = 0; group < count; group += lanes) {
    const std::size_t nlanes = std::min(lanes, count - group);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      active[lane] = lane < nlanes;
      // Seed the message buffer with the incoming digest (idle lanes chew
      // whatever their buffer holds; their state is never read).
      if (active[lane])
        std::memcpy(buffers[lane], digests[group + lane].data(),
                    Sha1::kDigestSize);
    }
    for (std::uint16_t it = 0; it < iterations; ++it) {
      for (std::size_t lane = 0; lane < nlanes; ++lane)
        reset_lane(state, lane);
      for (std::size_t block = 0; block < nblocks; ++block) {
        for (std::size_t lane = 0; lane < lanes; ++lane)
          blocks[lane] = buffers[lane] + block * Sha1::kBlockSize;
        compress_step(impl, state, blocks, lanes, active);
      }
      // Feed the fresh digest into the next round's message.
      for (std::size_t lane = 0; lane < nlanes; ++lane) {
        Sha1::Digest digest;
        store_digest(state, lane, digest);
        std::memcpy(buffers[lane], digest.data(), Sha1::kDigestSize);
      }
      processed += nlanes * nblocks;
    }
    for (std::size_t lane = 0; lane < nlanes; ++lane)
      std::memcpy(digests[group + lane].data(), buffers[lane],
                  Sha1::kDigestSize);
  }

  CostMeter::add_sha1_blocks(processed);
  CostMeter::add_sha1_physical(processed);
}

}  // namespace zh::crypto
