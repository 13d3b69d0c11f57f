// SHA-1 (FIPS 180-4), implemented from scratch.
//
// SHA-1 is cryptographically broken for collision resistance but is the only
// hash algorithm ever assigned for NSEC3 (RFC 5155 §11: algorithm 1), so a
// faithful NSEC3 reproduction requires it. Do not use it for anything else.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace zh::crypto {

/// One unmetered compression round: folds the 64-byte `block` into `state`.
/// Shared by the single-stream path below and the multi-buffer kernels'
/// scalar lane (sha1_mb.hpp) so there is exactly one portable round.
void sha1_compress_scalar(std::uint32_t state[5],
                          const std::uint8_t* block) noexcept;

/// Single-stream compress: folds `nblocks` consecutive 64-byte blocks into
/// `state`, unmetered. Every one-message-at-a-time hash goes through here.
/// It runs the SHA-NI kernel when the build and the CPU have it, unless the
/// SHA-1 implementation setting (sha1_impl(), sha1_mb.hpp) is kScalar, which
/// forces the portable round; the setting is read on every call.
void sha1_compress(std::uint32_t state[5], const std::uint8_t* blocks,
                   std::size_t nblocks) noexcept;

/// True if the SHA-NI single-stream kernel was compiled in AND the CPU
/// advertises the SHA extensions.
bool sha1_shani_supported() noexcept;

/// Incremental SHA-1 hasher.
///
/// Usage: construct, call update() any number of times, then finalize()
/// exactly once. Reuse after finalize() requires reset().
class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  /// Compression blocks of a `len`-byte message, padding included.
  static constexpr std::size_t blocks_for(std::size_t len) noexcept {
    return (len + 8) / kBlockSize + 1;
  }

  Sha1() noexcept { reset(); }

  void reset() noexcept;
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  }
  /// Completes the hash. The object must be reset() before reuse.
  Digest finalize() noexcept;

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data) noexcept;
  static Digest hash(std::string_view data) noexcept;

 private:
  void compress(const std::uint8_t* blocks, std::size_t nblocks) noexcept;

  std::array<std::uint32_t, 5> state_{};
  // Two blocks, so finalize() can pad in place.
  std::array<std::uint8_t, 2 * kBlockSize> buffer_{};
  std::uint64_t total_len_ = 0;  // bytes fed so far
  std::size_t buffer_len_ = 0;
};

/// Applies `digest = SHA-1(digest || suffix)` `iterations` times on one
/// stream: the RFC 5155 §5 re-hash. The fixed-length message is padded once;
/// each iteration is then a state reset, its compresses and a 20-byte store.
/// Ticks CostMeter `iterations × Sha1::blocks_for(20 + suffix.size())`
/// logical and physical blocks, what the streaming hasher would tick.
void sha1_iterate(Sha1::Digest& digest, std::span<const std::uint8_t> suffix,
                  std::uint16_t iterations) noexcept;

namespace detail {

/// Writes SHA-1's final padding after the `rem` (< 64) message bytes already
/// at `tail`: 0x80, zeros, then the big-endian bit length of the whole
/// `total_len`-byte message. Returns how many 64-byte blocks (1 or 2) the
/// padded tail spans; `tail` must have room for two blocks.
std::size_t sha1_pad_tail(std::uint8_t* tail, std::size_t rem,
                          std::uint64_t total_len) noexcept;

#if defined(ZH_HAVE_SHA1_SHANI)
/// The SHA-NI kernel behind sha1_compress (sha1_shani.cpp).
void sha1_compress_shani(std::uint32_t state[5], const std::uint8_t* blocks,
                         std::size_t nblocks) noexcept;
#endif

}  // namespace detail

}  // namespace zh::crypto
