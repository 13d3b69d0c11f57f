#include "scanner/domain_scanner.hpp"

#include <cstdio>

#include "simnet/exchange.hpp"

namespace zh::scanner {

using dns::RrType;

DomainScanner::DomainScanner(simnet::Network& network,
                             simnet::IpAddress source,
                             simnet::IpAddress resolver,
                             simtime::RetryPolicy retry)
    : network_(network),
      source_(source),
      resolver_(resolver),
      retry_(retry) {}

DomainScanResult DomainScanner::scan(const dns::Name& apex) {
  // Flow-key the scan on the apex, so this domain's loss/jitter draws do
  // not depend on how many queries earlier scans issued — the property
  // that keeps sharded campaigns identical for any worker count.
  network_.set_flow(simtime::fnv1a(apex.canonical().to_string()));
  const simtime::Duration start = network_.clock().now();
  DomainScanResult result;
  result.apex = apex;
  run_pipeline(apex, result);
  result.elapsed = network_.clock().now() - start;
  return result;
}

void DomainScanner::run_pipeline(const dns::Name& apex,
                                 DomainScanResult& result) {
  const auto ask = [&](const dns::Name& qname, RrType type) {
    simnet::ExchangeOutcome outcome = simnet::execute_logical_query(
        network_, source_, resolver_, qname, type, /*cd=*/true, retry_,
        next_id_, queries_);
    if (outcome.timed_out) ++result.timeouts;
    return outcome;
  };

  // 1. DNSKEY.
  const simnet::ExchangeOutcome dnskey = ask(apex, RrType::kDnskey);
  if (!dnskey.response) {
    result.timed_out = dnskey.timed_out;
    return;  // kUnresponsive
  }
  result.dnskey = !dnskey.response->answers_with(RrType::kDnskey).empty();
  if (!result.dnskey) {
    result.classification = DomainScanResult::Class::kNoDnssec;
    return;
  }

  // 2. NSEC3PARAM + NS.
  const simnet::ExchangeOutcome param = ask(apex, RrType::kNsec3Param);
  if (param.response) {
    const auto params = param.response->answers_with(RrType::kNsec3Param);
    result.nsec3param_count = params.size();
    if (result.nsec3param_count == 1)
      result.nsec3param = params.front().as<dns::Nsec3ParamRdata>();
  }
  const simnet::ExchangeOutcome ns = ask(apex, RrType::kNs);
  if (ns.response) {
    for (const auto& rr : ns.response->answers_with(RrType::kNs)) {
      if (const auto rdata = rr.as<dns::NsRdata>())
        result.ns_names.push_back(rdata->nsdname);
    }
  }

  // 3. Negative probe: a random subdomain triggers either an NXDOMAIN or a
  //    wildcard expansion — both carry NSEC3 records when the zone has
  //    them. Fixed-width token: NSEC3 hashing cost depends on the name's
  //    length, so a padded counter keeps per-scan service time independent
  //    of how many scans ran before (a worker-count invariance requirement).
  char token[24];
  std::snprintf(token, sizeof token, "zz-scan-%08llu",
                static_cast<unsigned long long>(probe_token_++));
  const simnet::ExchangeOutcome probe = ask(*apex.prepended(token), RrType::kA);
  if (probe.response) {
    const dns::Message& negative = *probe.response;
    Nsec3Observation observation;
    bool first = true;
    std::size_t nsec3_records = 0;
    for (const auto& section : {negative.authorities, negative.answers}) {
      for (const auto& rr : section) {
        if (rr.type == RrType::kNsec) result.nsec_seen = true;
        if (rr.type != RrType::kNsec3) continue;
        const auto rdata = rr.as<dns::Nsec3Rdata>();
        if (!rdata) continue;
        ++nsec3_records;
        if (first) {
          observation.iterations = rdata->iterations;
          observation.salt = rdata->salt;
          first = false;
        } else if (rdata->iterations != observation.iterations ||
                   rdata->salt != observation.salt) {
          observation.records_consistent = false;  // RFC 5155 violation
        }
        if (rdata->opt_out()) observation.opt_out = true;
      }
    }
    if (nsec3_records > 0) {
      if (result.nsec3param) {
        observation.matches_nsec3param =
            result.nsec3param->iterations == observation.iterations &&
            result.nsec3param->salt == observation.salt;
      }
      result.nsec3 = std::move(observation);
    }
  }

  // 4. Classification per §4.1.
  if (result.nsec3param_count > 1) {
    result.classification = DomainScanResult::Class::kExcluded;
  } else if (result.nsec3param_count == 1 && result.nsec3 &&
             result.nsec3->records_consistent &&
             result.nsec3->matches_nsec3param) {
    result.classification = DomainScanResult::Class::kNsec3Enabled;
  } else if (result.nsec3param_count == 1 || result.nsec3) {
    // NSEC3 machinery present but inconsistent / half-visible.
    result.classification = DomainScanResult::Class::kExcluded;
  } else {
    result.classification = DomainScanResult::Class::kDnssecNoNsec3;
  }
}

}  // namespace zh::scanner
