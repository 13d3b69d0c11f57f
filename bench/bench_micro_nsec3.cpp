// Micro-benchmarks (google-benchmark): NSEC3 hashing — the primitive whose
// cost RFC 9276 regulates — across iteration counts and salt lengths, plus
// the signing/validation hot paths.
#include <benchmark/benchmark.h>

#include "crypto/nsec3_hash.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha1_mb.hpp"
#include "crypto/sha2.hpp"
#include "dns/dnssec.hpp"
#include "zone/chain_memo.hpp"
#include "zone/signer.hpp"
#include "zone/zone.hpp"

namespace {

using zh::dns::Name;

/// Pins the NSEC3 chain memo capacity for one benchmark's scope.
class ScopedChainMemo {
 public:
  explicit ScopedChainMemo(std::size_t capacity)
      : previous_(zh::zone::Nsec3ChainMemo::instance().capacity()) {
    zh::zone::Nsec3ChainMemo::instance().clear();
    zh::zone::Nsec3ChainMemo::instance().set_capacity(capacity);
  }
  ~ScopedChainMemo() {
    zh::zone::Nsec3ChainMemo::instance().clear();
    zh::zone::Nsec3ChainMemo::instance().set_capacity(previous_);
  }

 private:
  std::size_t previous_;
};

void BM_Sha1Block(benchmark::State& state) {
  const std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)),
                                       0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        zh::crypto::Sha1::hash(std::span<const std::uint8_t>(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1Block)->Arg(20)->Arg(64)->Arg(256)->Arg(1024);

/// One 64-byte block through a single-stream compress kernel: the portable
/// round, or SHA-NI through the dispatch (skipped where the host or build
/// lacks it). The per-block cost behind every query-time NSEC3 hash.
void BM_Sha1Compress(benchmark::State& state, bool shani) {
  if (shani && (!zh::crypto::sha1_shani_supported() ||
                zh::crypto::sha1_best_impl() == zh::crypto::Sha1Impl::kScalar)) {
    state.SkipWithError("kernel not supported on this host/build");
    return;
  }
  const zh::crypto::Sha1Impl previous = zh::crypto::sha1_impl();
  zh::crypto::set_sha1_impl(zh::crypto::sha1_best_impl());
  std::uint8_t block[zh::crypto::Sha1::kBlockSize];
  for (std::size_t i = 0; i < sizeof block; ++i)
    block[i] = static_cast<std::uint8_t>(i * 37);
  std::uint32_t digest[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                             0x10325476u, 0xC3D2E1F0u};
  for (auto _ : state) {
    if (shani)
      zh::crypto::sha1_compress(digest, block, 1);
    else
      zh::crypto::sha1_compress_scalar(digest, block);
    benchmark::DoNotOptimize(digest);
  }
  zh::crypto::set_sha1_impl(previous);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sizeof block));
}
BENCHMARK_CAPTURE(BM_Sha1Compress, scalar, false);
BENCHMARK_CAPTURE(BM_Sha1Compress, shani, true);

void BM_Sha256Block(benchmark::State& state) {
  const std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)),
                                       0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        zh::crypto::Sha256::hash(std::span<const std::uint8_t>(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256Block)->Arg(64)->Arg(1024);

/// The headline micro: one NSEC3 hash at N additional iterations.
void BM_Nsec3Hash_Iterations(benchmark::State& state) {
  const auto owner = Name::must_parse("www.example.com").to_canonical_wire();
  const std::uint16_t iterations =
      static_cast<std::uint16_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(zh::crypto::nsec3_hash(
        std::span<const std::uint8_t>(owner.data(), owner.size()), {},
        iterations));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Nsec3Hash_Iterations)
    ->Arg(0)
    ->Arg(1)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Arg(150)
    ->Arg(500)
    ->Arg(2500);

void BM_Nsec3Hash_SaltLength(benchmark::State& state) {
  const auto owner = Name::must_parse("www.example.com").to_canonical_wire();
  const std::vector<std::uint8_t> salt(
      static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zh::crypto::nsec3_hash(
        std::span<const std::uint8_t>(owner.data(), owner.size()),
        std::span<const std::uint8_t>(salt.data(), salt.size()), 10));
  }
}
BENCHMARK(BM_Nsec3Hash_SaltLength)->Arg(0)->Arg(8)->Arg(40)->Arg(160);

/// The tentpole micro: batch NSEC3 hashing through each SHA-1 kernel.
/// range(0) selects the implementation (0 scalar / 1 ssse3 / 2 avx2),
/// range(1) the batch size, range(2) the iteration count. Unsupported
/// kernels are skipped, so the full grid is safe on any host. The SIMD ÷
/// scalar items-per-second ratio at equal (batch, iterations) is the
/// speedup figure quoted in docs/PERFORMANCE.md.
void BM_Nsec3BatchHash(benchmark::State& state) {
  const auto impl = static_cast<zh::crypto::Sha1Impl>(state.range(0));
  if (!zh::crypto::sha1_impl_supported(impl)) {
    state.SkipWithError("kernel not supported on this host/build");
    return;
  }
  const std::size_t batch = static_cast<std::size_t>(state.range(1));
  const auto iterations = static_cast<std::uint16_t>(state.range(2));

  std::vector<std::vector<std::uint8_t>> owners;
  owners.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i)
    owners.push_back(Name::must_parse("host" + std::to_string(i) +
                                      ".example.com")
                         .to_canonical_wire());
  std::vector<std::span<const std::uint8_t>> spans;
  spans.reserve(batch);
  for (const auto& owner : owners) spans.emplace_back(owner.data(),
                                                      owner.size());
  std::vector<zh::crypto::Nsec3Digest> digests(batch);

  const zh::crypto::Sha1Impl previous = zh::crypto::sha1_impl();
  zh::crypto::set_sha1_impl(impl);
  for (auto _ : state) {
    zh::crypto::nsec3_hash_batch(
        std::span<const std::span<const std::uint8_t>>(spans.data(),
                                                       spans.size()),
        {}, iterations, digests.data());
    benchmark::DoNotOptimize(digests.data());
  }
  zh::crypto::set_sha1_impl(previous);

  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  state.SetLabel(zh::crypto::sha1_impl_name(impl));
}
BENCHMARK(BM_Nsec3BatchHash)
    ->ArgsProduct({{0, 1, 2}, {64, 1024}, {0, 10, 150}});

/// A 20-host zone, the shared workload of the signing benches below.
zh::zone::Zone make_bench_zone(std::uint16_t iterations,
                               zh::zone::SignerConfig* config) {
  zh::zone::Zone zone(Name::must_parse("example.com"));
  zone.add(zh::dns::make_soa(zone.apex(), 3600,
                             Name::must_parse("ns1.example.com"), 1));
  zone.add(zh::dns::make_ns(zone.apex(), 3600,
                            Name::must_parse("ns1.example.com")));
  for (int i = 0; i < 20; ++i) {
    zone.add(zh::dns::make_a(
        *zone.apex().prepended("host" + std::to_string(i)), 300, 192, 0, 2,
        static_cast<std::uint8_t>(i)));
  }
  config->nsec3.iterations = iterations;
  return zone;
}

/// Zone signing cost by iteration count (authoritative-side view of Item 2).
/// The chain memo is disabled here so every iteration pays the full hash +
/// sign cost — the from-scratch baseline for BM_SignZone_MemoHit.
void BM_SignZone(benchmark::State& state) {
  ScopedChainMemo memo_off(0);
  for (auto _ : state) {
    state.PauseTiming();
    zh::zone::SignerConfig config;
    zh::zone::Zone zone = make_bench_zone(
        static_cast<std::uint16_t>(state.range(0)), &config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(zh::zone::sign_zone(zone, config));
  }
}
BENCHMARK(BM_SignZone)->Arg(0)->Arg(1)->Arg(100)->Arg(500);

/// Re-signing an already-seen zone through the chain memo — the lazy-LRU
/// re-materialisation path. The gap to BM_SignZone at the same iteration
/// count is what memoisation saves an operator under eviction pressure.
void BM_SignZone_MemoHit(benchmark::State& state) {
  ScopedChainMemo memo_on(16);
  {
    // Warm the memo with the chain every timed iteration will replay.
    zh::zone::SignerConfig config;
    zh::zone::Zone zone = make_bench_zone(
        static_cast<std::uint16_t>(state.range(0)), &config);
    zh::zone::sign_zone(zone, config);
  }
  for (auto _ : state) {
    state.PauseTiming();
    zh::zone::SignerConfig config;
    zh::zone::Zone zone = make_bench_zone(
        static_cast<std::uint16_t>(state.range(0)), &config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(zh::zone::sign_zone(zone, config));
  }
}
BENCHMARK(BM_SignZone_MemoHit)->Arg(0)->Arg(1)->Arg(100)->Arg(500);

}  // namespace

BENCHMARK_MAIN();
