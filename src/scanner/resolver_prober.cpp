#include "scanner/resolver_prober.hpp"

#include <algorithm>

#include "simnet/exchange.hpp"

namespace zh::scanner {
namespace {

using dns::Rcode;

ZoneObservation to_observation(const simnet::ExchangeOutcome& outcome) {
  ZoneObservation observation;
  observation.attempts = outcome.attempts;
  observation.latency = outcome.elapsed;
  observation.timed_out = outcome.timed_out;
  const auto& response = outcome.response;
  if (!response) return observation;
  observation.responsive = true;
  observation.rcode = response->header.rcode;
  observation.ad = response->header.ad;
  observation.ra = response->header.ra;
  if (response->edns) {
    if (const auto ede = response->edns->ede()) {
      observation.ede = ede->info_code;
      observation.ede_text = ede->extra_text;
    }
  }
  return observation;
}

void record_sweep(std::uint16_t iterations, const ZoneObservation& observation,
                  ResolverProbeResult& result) {
  result.sweep.emplace(iterations, observation);

  if (!observation.responsive) {
    // No answer is not an RCODE: record the "stop answering" onset
    // instead of letting the default SERVFAIL pollute the inference.
    if (observation.timed_out && !result.first_timeout)
      result.first_timeout = iterations;
    return;
  }
  if (observation.rcode == Rcode::kServFail) {
    if (!result.first_servfail) {
      result.first_servfail = iterations;
      if (observation.ede) result.limit_ede = observation.ede;
    }
  } else if (observation.rcode == Rcode::kNxDomain) {
    if (observation.ad) {
      result.last_secure = iterations;
    } else if (!result.first_insecure) {
      result.first_insecure = iterations;
      if (observation.ede && !result.limit_ede)
        result.limit_ede = observation.ede;
    }
  }
}

void infer_limits(ResolverProbeResult& result) {
  // The probed grid is dense enough (§4.2) that the value just below the
  // onset is the enforced limit.
  const auto probed_below = [&](std::uint16_t onset) -> std::uint16_t {
    std::uint16_t below = 0;
    for (const auto& [n, obs] : result.sweep) {
      if (n < onset) below = n;
    }
    return below;
  };
  if (result.first_servfail) {
    result.implements_item8 = true;
    result.servfail_limit = probed_below(*result.first_servfail);
  }
  if (result.first_insecure &&
      (!result.first_servfail ||
       *result.first_insecure < *result.first_servfail)) {
    result.implements_item6 = true;
    result.insecure_limit = probed_below(*result.first_insecure);
  }
  result.item12_gap = result.implements_item6 && result.implements_item8 &&
                      *result.first_insecure < *result.first_servfail;
}

}  // namespace

ResolverProber::ResolverProber(simnet::Network& network,
                               simnet::IpAddress source,
                               std::vector<testbed::ProbeZone> specs,
                               simtime::RetryPolicy retry)
    : network_(network), source_(source), retry_(retry) {
  for (auto& spec : specs) {
    if (spec.label == "valid") valid_ = std::move(spec);
    else if (spec.label == "expired") expired_ = std::move(spec);
    else if (spec.label == "it-2501-expired") item7_ = std::move(spec);
    else sweep_.push_back(std::move(spec));
  }
  std::sort(sweep_.begin(), sweep_.end(),
            [](const testbed::ProbeZone& a, const testbed::ProbeZone& b) {
              return a.iterations < b.iterations;
            });
}

ResolverProbeResult ResolverProber::probe(const simnet::IpAddress& resolver,
                                          const std::string& token) {
  // Flow-key the probe on its (unique) token, so this resolver's loss and
  // jitter draws are independent of the rest of the population sweep.
  network_.set_flow(simtime::fnv1a(token));
  const simtime::Duration start = network_.clock().now();
  const simtime::QueueCounters queue_before = network_.queue_counters();
  ResolverProbeResult result;
  run_pipeline(resolver, token, result);
  result.elapsed = network_.clock().now() - start;
  const simtime::QueueCounters& queue_after = network_.queue_counters();
  result.queue_wait = simtime::Duration::from_ns(
      static_cast<std::int64_t>(queue_after.wait_ns - queue_before.wait_ns));
  result.queue_drops = queue_after.dropped - queue_before.dropped;
  return result;
}

void ResolverProber::run_pipeline(const simnet::IpAddress& resolver,
                                  const std::string& token,
                                  ResolverProbeResult& result) {
  // <token>.wc.<zone> hits the wildcard (NOERROR path);
  // <token>.nx.<zone> elicits NXDOMAIN (DESIGN.md §4).
  const auto observe = [&](const testbed::ProbeZone& zone, bool wildcard) {
    const dns::Name qname =
        *zone.apex.prepended(wildcard ? "wc" : "nx")->prepended(token);
    const simnet::ExchangeOutcome outcome = simnet::execute_logical_query(
        network_, source_, resolver, qname, dns::RrType::kA, /*cd=*/false,
        retry_, next_id_, queries_);
    if (outcome.timed_out) ++result.timeouts;
    return to_observation(outcome);
  };

  // 1. Validator detection: NOERROR+AD for valid, SERVFAIL for expired.
  if (valid_) result.valid_zone = observe(*valid_, true);
  if (expired_) result.expired_zone = observe(*expired_, true);
  result.responsive = result.valid_zone.responsive;
  result.timed_out = result.valid_zone.timed_out;
  result.validator = result.valid_zone.responsive &&
                     result.valid_zone.rcode == Rcode::kNoError &&
                     result.valid_zone.ad &&
                     result.expired_zone.rcode == Rcode::kServFail;
  if (!result.validator) return;

  // 2. The it-N sweep, then limit inference.
  for (const testbed::ProbeZone& zone : sweep_)
    record_sweep(zone.iterations, observe(zone, false), result);
  infer_limits(result);

  // 3. Item 7: a validator that returns insecure responses above a limit
  //    must still SERVFAIL it-2501-expired (expired NSEC3 signatures).
  if (result.implements_item6 && item7_) {
    result.item7_zone = observe(*item7_, false);
    result.item7_violation = result.item7_zone.rcode == Rcode::kNxDomain;
  }
}

}  // namespace zh::scanner
