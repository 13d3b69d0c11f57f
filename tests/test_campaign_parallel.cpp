// Tests for the sharded parallel campaign engine (scanner/parallel.hpp):
// the engine's central promise is that §5.1/§5.2 aggregates are
// bit-identical for every --jobs value, and that per-shard statistics
// merged in any order reproduce the unsharded campaign. The strongest
// oracle is the canonical shard codec (scanner/serialize.hpp): two runs
// agree iff their encoded artefacts are the same bytes, which covers
// stats, ECDF histograms, per-domain records and query counts at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "analysis/serialize.hpp"
#include "scanner/parallel.hpp"
#include "scanner/process.hpp"
#include "scanner/serialize.hpp"
#include "workload/install.hpp"
#include "workload/resolver_population.hpp"

namespace zh::scanner {
namespace {

/// The transport-independent aggregates: everything that must survive
/// loss + retransmission unchanged (the latency/timeout fields are checked
/// separately — they legitimately differ between a lossy and a clean run).
void expect_same_classification(const DomainCampaignStats& a,
                                const DomainCampaignStats& b) {
  EXPECT_EQ(a.scanned, b.scanned);
  EXPECT_EQ(a.dnssec, b.dnssec);
  EXPECT_EQ(a.nsec3, b.nsec3);
  EXPECT_EQ(a.excluded, b.excluded);
  EXPECT_EQ(a.iterations.histogram(), b.iterations.histogram());
  EXPECT_EQ(a.salt_len.histogram(), b.salt_len.histogram());
  EXPECT_EQ(a.zero_iterations, b.zero_iterations);
  EXPECT_EQ(a.no_salt, b.no_salt);
  EXPECT_EQ(a.fully_compliant, b.fully_compliant);
  EXPECT_EQ(a.opt_out, b.opt_out);
  EXPECT_EQ(a.over_150_iterations, b.over_150_iterations);
  EXPECT_EQ(a.at_500_iterations, b.at_500_iterations);
  EXPECT_EQ(a.salt_over_10, b.salt_over_10);
  EXPECT_EQ(a.salt_over_45, b.salt_over_45);
  EXPECT_EQ(a.salt_at_160, b.salt_at_160);
  EXPECT_EQ(a.operators.raw(), b.operators.raw());
  ASSERT_EQ(a.operator_params.size(), b.operator_params.size());
  for (const auto& [op, params] : a.operator_params) {
    const auto it = b.operator_params.find(op);
    ASSERT_NE(it, b.operator_params.end()) << op;
    EXPECT_EQ(params.raw(), it->second.raw()) << op;
  }
}

void expect_same_stats(const DomainCampaignStats& a,
                       const DomainCampaignStats& b) {
  expect_same_classification(a, b);
  EXPECT_EQ(a.scan_latency_us.histogram(), b.scan_latency_us.histogram());
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.queue_delay_us.histogram(), b.queue_delay_us.histogram());
  EXPECT_EQ(a.queue_drops, b.queue_drops);
}

void expect_same_sweep(const ResolverSweepStats& a,
                       const ResolverSweepStats& b) {
  EXPECT_EQ(a.probed, b.probed);
  EXPECT_EQ(a.validators, b.validators);
  ASSERT_EQ(a.by_iteration.size(), b.by_iteration.size());
  for (const auto& [iterations, shares] : a.by_iteration) {
    const auto it = b.by_iteration.find(iterations);
    ASSERT_NE(it, b.by_iteration.end()) << iterations;
    EXPECT_EQ(shares.nxdomain, it->second.nxdomain) << iterations;
    EXPECT_EQ(shares.nxdomain_ad, it->second.nxdomain_ad) << iterations;
    EXPECT_EQ(shares.servfail, it->second.servfail) << iterations;
    EXPECT_EQ(shares.timeouts, it->second.timeouts) << iterations;
    EXPECT_EQ(shares.total, it->second.total) << iterations;
  }
  EXPECT_EQ(a.item6, b.item6);
  EXPECT_EQ(a.item8, b.item8);
  EXPECT_EQ(a.item7_violations, b.item7_violations);
  EXPECT_EQ(a.item12_gaps, b.item12_gaps);
  EXPECT_EQ(a.ede_on_limit, b.ede_on_limit);
  EXPECT_EQ(a.insecure_limits, b.insecure_limits);
  EXPECT_EQ(a.servfail_limits, b.servfail_limits);
  EXPECT_EQ(a.probe_latency_us.histogram(), b.probe_latency_us.histogram());
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.stop_answering, b.stop_answering);
  EXPECT_EQ(a.queue_delay_us.histogram(), b.queue_delay_us.histogram());
  EXPECT_EQ(a.queue_drops, b.queue_drops);
}

/// Canonical bytes of a campaign result under a fixed envelope, so results
/// from any sharding compare payload-for-payload. The hash-work tally is
/// included only on request: every worker signs its own world, so cost
/// scales with the worker count by design.
DomainShardArtefact canonical_artefact(const ParallelCampaignResult& result,
                                       bool with_cost = false) {
  DomainShardArtefact artefact;
  artefact.tag = "canon";
  artefact.shard = 0;
  artefact.of = 1;
  artefact.jobs = 1;  // deliberately NOT result.jobs: jobs must not matter
  artefact.stats = result.stats;
  artefact.records = result.records;
  artefact.queries_issued = result.queries_issued;
  if (with_cost) artefact.cost = result.cost;
  return artefact;
}

std::vector<std::uint8_t> campaign_bytes(const ParallelCampaignResult& result,
                                         bool with_cost = false) {
  return encode_artefact(canonical_artefact(result, with_cost));
}

std::vector<std::uint8_t> sweep_bytes(const ParallelSweepResult& result) {
  SweepShardArtefact artefact;
  artefact.tag = "canon";
  artefact.shard = 0;
  artefact.of = 1;
  artefact.jobs = 1;
  artefact.stats = result.stats;
  artefact.queries_issued = result.queries_issued;
  artefact.population = result.population;
  return encode_artefact(artefact);
}

// ISSUE acceptance: --jobs 1 and --jobs 8 produce identical
// DomainCampaignStats on a 1:10000-scale population.
TEST(ParallelCampaign, JobsOneAndEightBitIdentical) {
  const workload::EcosystemSpec spec({.scale = 0.0001, .seed = 42});
  const auto factory = default_world_factory(spec);

  const ParallelCampaignResult serial = run_domain_campaign_parallel(
      spec, factory, {.jobs = 1, .base_seed = 42});
  const ParallelCampaignResult sharded = run_domain_campaign_parallel(
      spec, factory, {.jobs = 8, .base_seed = 42});

  EXPECT_EQ(serial.jobs, 1u);
  EXPECT_EQ(sharded.jobs, 8u);
  EXPECT_GT(serial.stats.scanned, 0u);
  expect_same_stats(serial.stats, sharded.stats);
  EXPECT_EQ(serial.queries_issued, sharded.queries_issued);

  // Per-domain records must agree too, not just the aggregates.
  ASSERT_EQ(serial.records.size(), sharded.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    const auto& r1 = serial.records[i];
    const auto& r8 = sharded.records[i];
    EXPECT_EQ(r1.index, r8.index);
    EXPECT_EQ(r1.classification, r8.classification) << r1.index;
    EXPECT_EQ(r1.iterations, r8.iterations) << r1.index;
    EXPECT_EQ(r1.salt_len, r8.salt_len) << r1.index;
    EXPECT_EQ(r1.opt_out, r8.opt_out) << r1.index;
  }

  // The cost tally is credited back to the calling thread's meter, but it
  // is NOT jobs-invariant: every worker builds (and signs) its own private
  // world, so construction hashing scales with the worker count while the
  // scan-side work stays the same. Pin the direction, not equality.
  EXPECT_GT(serial.cost.sha1_blocks, 0u);
  EXPECT_GE(sharded.cost.sha1_blocks, serial.cost.sha1_blocks);
  EXPECT_GE(sharded.cost.nsec3_hashes, serial.cost.nsec3_hashes);
}

// jobs values that do not divide the population exercise the ragged tail.
TEST(ParallelCampaign, RaggedShardCountsStayIdentical) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  const auto factory = default_world_factory(spec);

  const ParallelCampaignResult baseline = run_domain_campaign_parallel(
      spec, factory, {.jobs = 1, .base_seed = 42});
  for (const unsigned jobs : {2u, 3u, 7u}) {
    const ParallelCampaignResult run = run_domain_campaign_parallel(
        spec, factory, {.jobs = jobs, .base_seed = 42});
    SCOPED_TRACE(jobs);
    expect_same_stats(baseline.stats, run.stats);
    EXPECT_EQ(baseline.queries_issued, run.queries_issued);
    EXPECT_EQ(baseline.records.size(), run.records.size());
  }
}

// limit/stride shard exactly like the serial driver honours them.
TEST(ParallelCampaign, LimitAndStrideAreShardInvariant) {
  const workload::EcosystemSpec spec({.scale = 0.0001, .seed = 42});
  const auto factory = default_world_factory(spec);
  const ParallelOptions serial = {
      .jobs = 1, .limit = 120, .stride = 3, .base_seed = 42};
  ParallelOptions sharded = serial;
  sharded.jobs = 5;

  const auto a = run_domain_campaign_parallel(spec, factory, serial);
  const auto b = run_domain_campaign_parallel(spec, factory, sharded);
  // `limit` bounds the index range, `stride` subsamples it: 120 / 3 scans.
  EXPECT_EQ(a.stats.scanned, 40u);
  expect_same_stats(a.stats, b.stats);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i)
    EXPECT_EQ(a.records[i].index, b.records[i].index);
}

// Merging per-shard statistics in ANY permutation reproduces the unsharded
// campaign — the algebraic property the engine's merge step relies on.
TEST(ParallelCampaign, ShardMergeIsPermutationInvariant) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  testbed::Internet internet;
  testbed::add_probe_infrastructure(internet);
  workload::install_ecosystem(internet, spec);
  internet.build();
  const auto resolver = internet.make_resolver(
      resolver::ResolverProfile::cloudflare(), simnet::IpAddress::v4(1, 1, 1, 1));

  DomainCampaign whole(internet, spec, resolver->address());
  whole.run();

  constexpr std::size_t kShards = 6;
  std::vector<DomainCampaignStats> shard_stats;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    DomainCampaign piece(
        internet, spec, resolver->address(),
        simnet::IpAddress::v4(203, 0, 113,
                              static_cast<std::uint8_t>(10 + shard)));
    piece.run_shard(shard, kShards);
    shard_stats.push_back(piece.stats());
  }

  std::vector<std::size_t> order(kShards);
  for (std::size_t i = 0; i < kShards; ++i) order[i] = i;
  std::mt19937_64 rng(99);  // seeded shuffle: the property test is repeatable
  for (int round = 0; round < 10; ++round) {
    std::shuffle(order.begin(), order.end(), rng);
    DomainCampaignStats merged;
    for (const auto i : order) merged.merge(shard_stats[i]);
    expect_same_stats(whole.stats(), merged);
  }
}

// The §4.2 resolver sweep engine: a small mixed panel probed with different
// jobs values yields identical ResolverSweepStats.
TEST(ParallelSweep, JobsInvariantOnMixedPanel) {
  using resolver::ResolverProfile;
  workload::PanelSpec panel;
  panel.panel = workload::Panel::kOpenV4;
  panel.validator_count = 18;
  panel.non_validator_count = 4;
  panel.entries = {
      {ResolverProfile::bind9_2021(), 0.4, ""},
      {ResolverProfile::google_public_dns(), 0.25, ""},
      {ResolverProfile::cloudflare(), 0.2, ""},
      {ResolverProfile::strict_zero(), 0.1, ""},
      {ResolverProfile::item12_gap(), 0.05, ""},
  };

  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  const auto factory = default_world_factory(spec, /*with_domains=*/false);

  const ParallelSweepResult serial = run_resolver_sweep_parallel(
      panel, factory, "tpar-", 1u << 21, {.jobs = 1, .base_seed = 42});
  EXPECT_EQ(serial.stats.probed, 22u);
  EXPECT_EQ(serial.stats.validators, 18u);

  for (const unsigned jobs : {3u, 8u}) {
    const ParallelSweepResult sharded = run_resolver_sweep_parallel(
        panel, factory, "tpar-", 1u << 21, {.jobs = jobs, .base_seed = 42});
    SCOPED_TRACE(jobs);
    expect_same_sweep(serial.stats, sharded.stats);
    EXPECT_EQ(serial.queries_issued, sharded.queries_issued);
    EXPECT_EQ(serial.population, sharded.population);
  }
}

/// The virtual-time options the time-shaped invariance tests share: loss,
/// jitter and service cost all active, so the clock genuinely moves.
ParallelOptions time_shaped_options(unsigned jobs) {
  ParallelOptions options{.jobs = jobs, .base_seed = 42};
  options.loss_probability = 0.1;
  options.retry.attempts = 6;  // absorbs 10 % loss: P(miss) = 1e-6
  options.latency = simtime::LatencyModel(simtime::Duration::from_ms(20),
                                          simtime::Duration::from_ms(5),
                                          /*seed=*/42);
  options.service = {.per_sha1_block = simtime::Duration::from_us(1)};
  return options;
}

// ISSUE acceptance: latency ECDFs and timeout counts — not just the
// classification aggregates — are bit-identical across --jobs 1/4/16 when
// loss, jitter and service time are all switched on.
TEST(ParallelCampaign, TimeShapedCampaignIsJobsInvariant) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  const auto factory = default_world_factory(spec);

  ParallelOptions serial = time_shaped_options(1);
  serial.limit = 400;
  const ParallelCampaignResult baseline =
      run_domain_campaign_parallel(spec, factory, serial);
  EXPECT_GT(baseline.stats.scan_latency_us.total(), 0u);
  EXPECT_GT(baseline.stats.scan_latency_us.max(), 0);
  EXPECT_GT(baseline.stats.stage_resolve_us.total(), 0u);

  // Traced runs too: enabling the tracer must not move a single byte of the
  // artefact, whatever the sharding. Only the raw event streams, which are
  // per-shard, may differ.
  for (const bool traced : {false, true}) {
    for (const unsigned jobs : {4u, 16u}) {
      ParallelOptions sharded = time_shaped_options(jobs);
      sharded.limit = 400;
      sharded.trace.enabled = traced;
      const ParallelCampaignResult run =
          run_domain_campaign_parallel(spec, factory, sharded);
      SCOPED_TRACE(::testing::Message() << "jobs " << jobs << " traced "
                                        << traced);
      EXPECT_EQ(run.trace.events_emitted() > 0, traced);
      expect_same_stats(baseline.stats, run.stats);
      EXPECT_EQ(baseline.queries_issued, run.queries_issued);
      EXPECT_EQ(campaign_bytes(baseline), campaign_bytes(run));
    }
  }
}

// Queueing on top of the full time-shaped stack must not break jobs-
// invariance: queue epochs are flow-scoped (Network::set_flow starts a
// fresh epoch), so per-item waits are a pure function of the item and the
// queue statistics merge like every other aggregate.
TEST(ParallelCampaign, QueueEnabledCampaignIsJobsInvariant) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  const auto factory = default_world_factory(spec);

  const auto queued_options = [](unsigned jobs) {
    ParallelOptions options = time_shaped_options(jobs);
    options.limit = 400;
    options.queue = {.workers = 2,
                     .backlog = 8,
                     .shed = simtime::QueueModel::Shed::kServfail};
    return options;
  };
  const ParallelCampaignResult baseline =
      run_domain_campaign_parallel(spec, factory, queued_options(1));
  EXPECT_GT(baseline.stats.scan_latency_us.total(), 0u);
  EXPECT_GT(baseline.stats.queue_delay_us.total(), 0u);

  for (const unsigned jobs : {4u, 16u}) {
    const ParallelCampaignResult run =
        run_domain_campaign_parallel(spec, factory, queued_options(jobs));
    SCOPED_TRACE(jobs);
    expect_same_stats(baseline.stats, run.stats);
    EXPECT_EQ(baseline.queries_issued, run.queries_issued);
    EXPECT_EQ(campaign_bytes(baseline), campaign_bytes(run));
  }
}

// Process-level sub-sharding composed with a time-shaped transport: two
// sub-shard runs (--procs 2, one thread each), serialised through real
// artefact files and merged by merge_domain_shards, reproduce the
// in-process --jobs 2 campaign byte-for-byte. Both sides build two worlds,
// so the hash-work tally must match too: a FULL artefact byte-compare.
TEST(ParallelCampaign, TimeShapedSubShardArtefactsMergeToInProcessBytes) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  const auto factory = default_world_factory(spec);

  ParallelOptions baseline_options = time_shaped_options(2);
  baseline_options.limit = 300;
  const ParallelCampaignResult baseline =
      run_domain_campaign_parallel(spec, factory, baseline_options);
  EXPECT_GT(baseline.stats.scanned, 0u);

  std::string error;
  const std::string dir = make_shard_dir(error);
  ASSERT_FALSE(dir.empty()) << error;

  std::vector<std::string> paths;
  for (unsigned shard = 0; shard < 2; ++shard) {
    ParallelOptions options = time_shaped_options(1);
    options.limit = 300;
    options.shard_index = shard;
    options.shard_count = 2;
    const ParallelCampaignResult piece =
        run_domain_campaign_parallel(spec, factory, options);

    DomainShardArtefact artefact =
        canonical_artefact(piece, /*with_cost=*/true);
    artefact.shard = shard;
    artefact.of = 2;
    const std::string path = dir + "/shard-" + std::to_string(shard) + ".zhsa";
    ASSERT_TRUE(analysis::write_bytes_file(path, encode_artefact(artefact)))
        << path;
    paths.push_back(path);
  }

  ParallelCampaignResult merged;
  ASSERT_TRUE(merge_domain_shards(paths, "canon", merged, error)) << error;
  for (const auto& path : paths) std::remove(path.c_str());
  std::remove(dir.c_str());
  EXPECT_EQ(merged.jobs, 2u);
  expect_same_stats(baseline.stats, merged.stats);
  EXPECT_EQ(baseline.queries_issued, merged.queries_issued);
  EXPECT_EQ(campaign_bytes(baseline, /*with_cost=*/true),
            campaign_bytes(merged, /*with_cost=*/true));
}

// The resolver sweep's latency/timeout aggregates are jobs-invariant too —
// including the drop-above-limit cohort, whose probes time out by design.
TEST(ParallelSweep, TimeShapedSweepIsJobsInvariant) {
  using resolver::ResolverProfile;
  workload::PanelSpec panel;
  panel.panel = workload::Panel::kOpenV4;
  panel.validator_count = 12;
  panel.non_validator_count = 2;
  panel.entries = {
      {ResolverProfile::bind9_2021(), 0.4, ""},
      {ResolverProfile::cloudflare(), 0.3, ""},
      {ResolverProfile::limit_dropper(), 0.3, ""},
  };

  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  const auto factory = default_world_factory(spec, /*with_domains=*/false);

  const ParallelSweepResult baseline = run_resolver_sweep_parallel(
      panel, factory, "ttime-", 1u << 22, time_shaped_options(1));
  EXPECT_EQ(baseline.stats.validators, 12u);
  // The dropper cohort must actually exercise the timeout path.
  EXPECT_GT(baseline.stats.stop_answering, 0u);
  EXPECT_GT(baseline.stats.timeouts, 0u);
  EXPECT_GT(baseline.stats.probe_latency_us.max(), 0);

  for (const unsigned jobs : {4u, 16u}) {
    const ParallelSweepResult run = run_resolver_sweep_parallel(
        panel, factory, "ttime-", 1u << 22, time_shaped_options(jobs));
    SCOPED_TRACE(jobs);
    expect_same_sweep(baseline.stats, run.stats);
    EXPECT_EQ(baseline.queries_issued, run.queries_issued);
    EXPECT_EQ(sweep_bytes(baseline), sweep_bytes(run));
  }
}

// ISSUE regression for the silent-loss bug: with retransmission in place,
// moderate loss must not change a single campaign statistic — before the
// fix, one dropped UDP query marked a domain permanently unresponsive.
TEST(ParallelCampaign, ModerateLossLeavesStatisticsInvariant) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  const auto factory = default_world_factory(spec);

  ParallelOptions clean{.jobs = 2, .limit = 300, .base_seed = 42};
  const ParallelCampaignResult baseline =
      run_domain_campaign_parallel(spec, factory, clean);

  for (const double loss : {0.05, 0.2}) {
    ParallelOptions lossy = clean;
    lossy.loss_probability = loss;
    lossy.retry.attempts = 8;  // 0.2^8 ≈ 2.6e-6 per exchange: never exhausts
    const ParallelCampaignResult run =
        run_domain_campaign_parallel(spec, factory, lossy);
    SCOPED_TRACE(loss);
    expect_same_classification(baseline.stats, run.stats);
    EXPECT_EQ(run.stats.timeouts, 0u);
    // Retransmissions are real queries: the lossy run must issue more.
    EXPECT_GT(run.queries_issued, baseline.queries_issued);
  }
}

}  // namespace
}  // namespace zh::scanner
