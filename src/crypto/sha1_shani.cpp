// Single-stream SHA-1 compression on the x86 SHA extensions (SHA-NI):
// sha1rnds4 runs four rounds per instruction and sha1msg1/sha1msg2 extend
// the message schedule, so a block is twenty round instructions. Compiled
// with -msha -msse4.1 (see src/crypto/CMakeLists.txt); sha1_compress() in
// sha1.cpp only calls in here after a CPUID check.
#include "crypto/sha1.hpp"

#if defined(ZH_HAVE_SHA1_SHANI)

#include <immintrin.h>

#include <utility>

namespace zh::crypto::detail {
namespace {

/// Rounds 4G..4G+3. `m[G % 4]` holds schedule words 4G..4G+3 (word 4G in
/// the top lane). The two E registers alternate: `e[G % 2]` brings E (the
/// previous group's A rotated, folded in by sha1nexte) into the rounds,
/// while the other saves ABCD for the next group. Schedule words 4G+4.. are
/// built in flight: sha1msg1 three groups ahead, the xor two ahead, and
/// sha1msg2 one ahead.
template <int G>
inline void four_rounds(__m128i& abcd, __m128i e[2], __m128i m[4]) noexcept {
  const __m128i w = m[G % 4];
  if constexpr (G == 0)
    e[0] = _mm_add_epi32(e[0], w);
  else
    e[G % 2] = _mm_sha1nexte_epu32(e[G % 2], w);
  e[1 - G % 2] = abcd;
  if constexpr (G >= 3 && G <= 18)
    m[(G + 1) % 4] = _mm_sha1msg2_epu32(m[(G + 1) % 4], w);
  abcd = _mm_sha1rnds4_epu32(abcd, e[G % 2], G / 5);
  if constexpr (G >= 1 && G <= 16)
    m[(G + 3) % 4] = _mm_sha1msg1_epu32(m[(G + 3) % 4], w);
  if constexpr (G >= 2 && G <= 17)
    m[(G + 2) % 4] = _mm_xor_si128(m[(G + 2) % 4], w);
}

template <int... G>
inline void eighty_rounds(__m128i& abcd, __m128i e[2], __m128i m[4],
                          std::integer_sequence<int, G...>) noexcept {
  (four_rounds<G>(abcd, e, m), ...);
}

}  // namespace

void sha1_compress_shani(std::uint32_t state[5], const std::uint8_t* blocks,
                         std::size_t nblocks) noexcept {
  // Reverses all 16 bytes of a load: four big-endian words, word 0 on top.
  const __m128i bswap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  // A in the top lane of ABCD, E in the top lane of its own register.
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abcd_in = abcd;
    const __m128i e_in = e0;
    __m128i m[4];
    for (int i = 0; i < 4; ++i)
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          bswap);
    __m128i e[2] = {e0, e0};
    eighty_rounds(abcd, e, m, std::make_integer_sequence<int, 20>{});
    e0 = _mm_sha1nexte_epu32(e[0], e_in);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }

  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

}  // namespace zh::crypto::detail

#endif  // ZH_HAVE_SHA1_SHANI
