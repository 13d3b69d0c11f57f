#include "crypto/nsec3_hash.hpp"

#include <vector>

#include "crypto/cost_meter.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha1_mb.hpp"

namespace zh::crypto {

Nsec3Digest nsec3_hash(std::span<const std::uint8_t> owner_wire,
                       std::span<const std::uint8_t> salt,
                       std::uint16_t iterations) noexcept {
  CostMeter::add_nsec3_hash();

  Sha1 h;
  h.update(owner_wire);
  h.update(salt);
  Nsec3Digest digest = h.finalize();
  sha1_iterate(digest, salt, iterations);
  return digest;
}

void nsec3_hash_batch(std::span<const std::span<const std::uint8_t>> owners,
                      std::span<const std::uint8_t> salt,
                      std::uint16_t iterations, Nsec3Digest* out) {
  const std::size_t count = owners.size();
  if (count == 0) return;
  CostMeter::add_nsec3_hashes(count);

  // Stage 1 — H(owner || salt), ragged lengths. The messages live in one
  // arena so lane refills touch contiguous memory.
  std::size_t arena_size = 0;
  for (const auto& owner : owners) arena_size += owner.size() + salt.size();
  std::vector<std::uint8_t> arena;
  arena.reserve(arena_size);
  std::vector<std::span<const std::uint8_t>> messages;
  messages.reserve(count);
  for (const auto& owner : owners) {
    const std::size_t offset = arena.size();
    arena.insert(arena.end(), owner.begin(), owner.end());
    arena.insert(arena.end(), salt.begin(), salt.end());
    messages.emplace_back(arena.data() + offset, owner.size() + salt.size());
  }
  sha1_multi_hash(
      std::span<const std::span<const std::uint8_t>>(messages.data(),
                                                     messages.size()),
      out);

  // Stage 2 — the iterated re-hash IH(salt, x, k): fixed-length messages,
  // all lanes in lockstep.
  sha1_multi_iterate(std::span<Sha1::Digest>(out, count), salt, iterations);
}

}  // namespace zh::crypto
