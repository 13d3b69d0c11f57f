// zh_perfbench — wall-clock workloads of the NSEC3 reproduction.
//
//   zh_perfbench --workload scan-domains|probe-resolvers|serve-wire
//                --seed N [--trace] [--smoke] [--ladder]
//
// One process builds one world and runs the fixed-size workload on it once,
// printing `#` lines for people plus, as its last line, one JSON object.
// perfbench/run.py starts processes until the run's seconds are used and
// reports the median over them: on a shared host the speed of a process
// varies by +-10 % with where it lands, while rounds within one process
// agree to a few percent. The workload is a pure function of the seed, so
// the artefact hash is an oracle.
//
// --smoke shrinks every workload and also checks that the per-item loops of
// scan-domains and probe-resolvers produce the same artefacts as
// run_domain_campaign_parallel and run_resolver_sweep_parallel.
// --ladder adds serve-wire's climb to serve_max_qps.
//
// --trace selects the traced run: the benchmark re-attaches simnet nodes
// with timing shims around the public handlers (resolvers'
// handle_or_drop, operator servers' handle, and bench-owned
// AuthoritativeServers re-hosting the root, TLD, shared-host and probe-host
// zones) and reports per-layer self times, crypto and allocation counts.
// Nothing under src/ changes; the traced artefact hash must equal the
// untraced one, which shows the shims change nothing.
#include "bench/bench_alloc.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crypto/cost_meter.hpp"
#include "crypto/nsec3_hash.hpp"
#include "crypto/sha1_mb.hpp"
#include "dns/arena.hpp"
#include "dns/message.hpp"
#include "dns/wire_view.hpp"
#include "net/event_loop.hpp"
#include "net/frontend.hpp"
#include "scanner/campaign.hpp"
#include "scanner/parallel.hpp"
#include "scanner/resolver_prober.hpp"
#include "scanner/serialize.hpp"
#include "server/auth_server.hpp"
#include "testbed/internet.hpp"
#include "workload/install.hpp"
#include "workload/resolver_population.hpp"
#include "workload/spec.hpp"
#include "zone/chain_memo.hpp"

namespace {

using namespace zh;
using Clock = std::chrono::steady_clock;

// --- Pinned workload sizes ---------------------------------------------
// Chosen so one process takes two to four seconds on a 2 GHz core: a run of
// 30 seconds then holds eight or more processes, and run.py reports their
// median. --smoke shrinks every size for a quick end-to-end check.
constexpr double kScanScale = 0.0001;        // about 30,400 domains
constexpr double kSmokeScanScale = 0.000005;
constexpr double kProbeScale = 0.001;        // 115 open-IPv4 panel members
constexpr double kSmokeProbeScale = 0.0002;
// Domain-less worlds still take a spec; its scale only sizes the TLD list.
constexpr double kProbeWorldScale = 0.00002;
constexpr std::uint32_t kPanelAddressBase = 1u << 20;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(p * values.size() + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

/// A /proc/self/status field in MB (VmHWM, VmRSS).
double status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':')
      return std::atof(line.c_str() + len + 1) / 1024.0;
  }
  return 0.0;
}

/// FNV-1a 64 over bytes, as 16 hex digits (the artefact oracle).
std::string fnv_hex(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::string hash;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool invariants_ok = true;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail_invariant(std::string what) {
    invariants_ok = false;
    notes.push_back("invariant failed: " + what);
  }
};

// --- Crypto cost snapshots ------------------------------------------------

struct Cost {
  std::uint64_t sha1 = 0, physical = 0, nsec3 = 0;

  static Cost now() {
    return {crypto::CostMeter::sha1_blocks(),
            crypto::CostMeter::sha1_physical_blocks(),
            crypto::CostMeter::nsec3_hashes()};
  }
  Cost operator-(const Cost& o) const {
    return {sha1 - o.sha1, physical - o.physical, nsec3 - o.nsec3};
  }
  Cost& operator+=(const Cost& o) {
    sha1 += o.sha1;
    physical += o.physical;
    nsec3 += o.nsec3;
    return *this;
  }
};

// --- Layer spans (traced runs only) --------------------------------------

enum Layer { kScanner, kNet, kResolver, kServer, kZone, kLayerCount };
constexpr const char* kLayerNames[kLayerCount] = {"scanner", "net", "resolver",
                                                  "server", "zone"};

/// Span stack over the shims. A layer's self time (and self crypto work)
/// is its spans' duration minus the part covered by child spans. The
/// caller brackets the measured work with begin_root()/end_root(), whose
/// self share is the root layer's (the scanner, or net for each event-loop
/// poll of serve-wire).
class LayerTrace {
 public:
  struct Frame {
    Clock::time_point start;
    Cost cost_start;
    double child_s = 0.0;
    Cost child_cost;
  };

  void begin_root(Layer root) {
    root_ = root;
    stack_.clear();
    push();
  }
  /// Closes the root span; returns its inclusive seconds.
  double end_root() { return pop(root_); }
  /// Drops a root span that closed no child span (an idle poll).
  void abandon_root() { stack_.clear(); }

  void push() {
    stack_.push_back(Frame{Clock::now(), Cost::now(), 0.0, {}});
  }

  /// Closes the innermost span as `layer`; returns its inclusive seconds.
  double pop(Layer layer) {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const double inclusive = seconds_since(frame.start);
    const Cost cost = Cost::now() - frame.cost_start;
    self_s[layer] += inclusive - frame.child_s;
    self_cost[layer] += cost - frame.child_cost;
    ++calls[layer];
    if (!stack_.empty()) {
      stack_.back().child_s += inclusive;
      stack_.back().child_cost += cost;
    }
    return inclusive;
  }

  /// Wraps a resolver node handler.
  simnet::MessageHandler resolver(resolver::RecursiveResolver* r) {
    return [this, r](const dns::Message& query, const simnet::IpAddress& src) {
      const bool top = stack_.size() == 1;
      push();
      auto response = r->handle_or_drop(query, src);
      resolver_call_us.push_back(pop(kResolver) * 1e6);
      if (top && response && sampled_responses.size() < 256 &&
          (resolver_top_calls++ % 16) == 0)
        sampled_responses.push_back(*response);
      return response;
    };
  }

  /// Wraps an authoritative server: calls that materialised a lazy zone
  /// count as zone work, the rest as answers.
  simnet::MessageHandler server(const server::AuthoritativeServer* srv) {
    return [this, srv](const dns::Message& query,
                       const simnet::IpAddress& src) {
      const std::uint64_t before = srv->lazy_materialisations();
      push();
      std::optional<dns::Message> response(srv->handle(query, src));
      pop(srv->lazy_materialisations() > before ? kZone : kServer);
      return response;
    };
  }

  double self_s[kLayerCount] = {};
  std::uint64_t calls[kLayerCount] = {};
  Cost self_cost[kLayerCount] = {};
  std::vector<double> resolver_call_us;
  std::uint64_t resolver_top_calls = 0;
  std::vector<dns::Message> sampled_responses;

 private:
  Layer root_ = kScanner;
  std::vector<Frame> stack_;
};

/// Servers the traced run re-hosts: the Internet attaches root, TLD,
/// shared-host and probe-host servers through private lambdas, so the
/// bench serves the same zone objects from its own AuthoritativeServers.
struct Rehosted {
  std::vector<std::unique_ptr<server::AuthoritativeServer>> servers;
  std::vector<std::string> unhosted;
};

/// The IPv4 glue of ns1.<tld> in the root zone — where Internet::build
/// attached that TLD's server.
std::optional<simnet::IpAddress> tld_address(const zone::Zone& root,
                                             const dns::Name& tld) {
  const auto ns = tld.prepended("ns1");
  if (!ns) return std::nullopt;
  const dns::RrSet* glue = root.find(*ns, dns::RrType::kA);
  if (!glue || glue->empty()) return std::nullopt;
  const auto a = dns::ARdata::decode(glue->rdatas.front());
  if (!a) return std::nullopt;
  const auto& b = a->address;
  return simnet::IpAddress::v4(b[0], b[1], b[2], b[3]);
}

Rehosted install_shims(testbed::Internet& internet,
                       const workload::EcosystemSpec& spec,
                       const std::vector<testbed::ProbeZone>& probe_zones,
                       const std::vector<resolver::RecursiveResolver*>& resolvers,
                       LayerTrace& trace) {
  simnet::Network& network = internet.network();
  Rehosted out;
  const auto host = [&](const std::string& name,
                        const std::vector<dns::Name>& apexes,
                        const std::vector<simnet::IpAddress>& addresses) {
    auto srv = std::make_unique<server::AuthoritativeServer>(name);
    for (const dns::Name& apex : apexes) srv->add_zone(internet.zone(apex));
    srv->set_tracer(&network.tracer());
    for (const simnet::IpAddress& address : addresses)
      network.attach(address, trace.server(srv.get()));
    out.servers.push_back(std::move(srv));
  };

  const auto root = internet.zone(dns::Name::root());
  host("root", {dns::Name::root()}, internet.root_servers());
  std::set<std::string> labels{"com"};
  for (const auto& tld : spec.tlds()) labels.insert(tld.label);
  for (const std::string& label : labels) {
    const dns::Name apex = dns::Name::must_parse(label);
    if (!internet.zone(apex)) continue;
    if (const auto address = tld_address(*root, apex)) {
      host("tld-" + label, {apex}, {*address});
    } else {
      out.unhosted.push_back("tld-" + label);
    }
  }
  // The shared host's IPv6 address has no accessor; only IPv4 glue points
  // at it, so its IPv6 handler stays unshimmed and is never reached.
  host("shared-host", {dns::Name::must_parse("rfc9276-in-the-wild.com")},
       {internet.shared_host_v4()});
  std::vector<dns::Name> probe_apexes;
  for (const auto& zone : probe_zones) probe_apexes.push_back(zone.apex);
  host("host-192.0.2.3", probe_apexes, {simnet::IpAddress::v4(192, 0, 2, 3)});

  for (std::size_t i = 0; i < internet.operator_count(); ++i) {
    const testbed::OperatorHandle& op = internet.hosting_operator(i);
    network.attach(op.address_v4, trace.server(op.server));
    network.attach(op.address_v6, trace.server(op.server));
  }
  for (resolver::RecursiveResolver* r : resolvers)
    network.attach(r->address(), trace.resolver(r));
  return out;
}

// --- World set-up ---------------------------------------------------------

struct SetupTimes {
  double spec_s = 0, install_s = 0, build_s = 0, total_s = 0, rss_mb = 0;
};

struct BuiltWorld {
  std::unique_ptr<workload::EcosystemSpec> spec;
  scanner::ShardWorld world;
  SetupTimes times;
};

/// The scanner::default_world_factory world, timed phase by phase.
BuiltWorld build_world(double scale, std::uint64_t seed, bool with_domains) {
  BuiltWorld built;
  const auto start = Clock::now();
  built.spec = std::make_unique<workload::EcosystemSpec>(
      workload::EcosystemSpec::Options{.scale = scale, .seed = seed});
  built.times.spec_s = seconds_since(start);
  const auto install_start = Clock::now();
  built.world.internet = std::make_unique<testbed::Internet>();
  built.world.probe_zones =
      testbed::add_probe_infrastructure(*built.world.internet);
  if (with_domains)
    workload::install_ecosystem(*built.world.internet, *built.spec);
  built.times.install_s = seconds_since(install_start);
  const auto build_start = Clock::now();
  built.world.internet->build();
  built.world.scan_resolver = built.world.internet->make_resolver(
      resolver::ResolverProfile::cloudflare(),
      simnet::IpAddress::v4(1, 1, 1, 1));
  built.times.build_s = seconds_since(build_start);
  built.times.total_s = seconds_since(start);
  built.times.rss_mb = status_mb("VmRSS");
  return built;
}

/// Builds and drops worlds until the builds add up to a quarter of a
/// second, at least one. Each workload calls it before it builds the world
/// it runs on, so a process times set-up at least twice, and worlds that
/// build in milliseconds are timed often enough that their median is not
/// one scheduler tick. run.py takes the median over the processes of a run.
void top_up_setup(std::vector<SetupTimes>& samples, double scale,
                  std::uint64_t seed, bool with_domains) {
  double total = 0;
  for (const SetupTimes& t : samples) total += t.total_s;
  while (total < 0.25 && samples.size() < 500) {
    samples.push_back(build_world(scale, seed, with_domains).times);
    // The next build must sign as a fresh process's would, not replay the
    // NSEC3 chains this build left in the thread's memo.
    zone::Nsec3ChainMemo::instance().clear();
    total += samples.back().total_s;
  }
}

/// Set-up times are medians over `samples`. The resident set is the first
/// sample's: later builds run on a heap that keeps what earlier worlds
/// freed.
void report_setup(Report& report, const std::vector<SetupTimes>& samples,
                  bool traced) {
  std::vector<double> total, spec, install, build;
  for (const SetupTimes& t : samples) {
    total.push_back(t.total_s);
    spec.push_back(t.spec_s);
    install.push_back(t.install_s);
    build.push_back(t.build_s);
  }
  std::printf("# setup: %zu builds,", samples.size());
  for (std::size_t i = 0; i < total.size() && i < 8; ++i)
    std::printf(" %.4fs", total[i]);
  std::printf("%s\n", total.size() > 8 ? " ..." : "");
  report.add("setup_s", median(total), "s");
  if (!traced) return;
  report.add("workload.spec_s", median(spec), "s");
  report.add("workload.install_s", median(install), "s");
  report.add("testbed.build_s", median(build), "s");
  report.add("mem.setup_rss_mb", samples.front().rss_mb, "MB");
}

// --- Per-layer report -----------------------------------------------------

struct LayerInputs {
  double wall_s = 0;            // the measured work the spans cover
  std::uint64_t items = 0;      // domains / resolvers / queries
  std::uint64_t net_queries = 0;
  std::uint64_t tcp_queries = 0;
  std::uint64_t truncations = 0;
  std::uint64_t allocations = 0;
  std::uint64_t cache_hits = 0, cache_lookups = 0;
  std::uint64_t lazy_hits = 0, lazy_materialisations = 0, lazy_resigns = 0;
  std::vector<std::pair<std::uint16_t, std::size_t>> nsec3_mix;  // iter, salt
};

/// Times nsec3_hash and nsec3_hash_batch over the workload's own
/// (iterations, salt length) mix; returns {scalar, batch} ns per block.
std::pair<double, double> time_nsec3(
    const std::vector<std::pair<std::uint16_t, std::size_t>>& mix) {
  static const std::uint8_t owner_wire[] = {
      3, 'w', 'w', 'w', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0};
  constexpr std::size_t kLanes = 8;
  std::vector<std::uint8_t> owners[kLanes];
  std::vector<std::span<const std::uint8_t>> spans;
  for (std::size_t i = 0; i < kLanes; ++i) {
    owners[i].assign(owner_wire, owner_wire + sizeof owner_wire);
    owners[i][1] = static_cast<std::uint8_t>('a' + i);
  }
  for (auto& owner : owners) spans.emplace_back(owner);
  crypto::Nsec3Digest digests[kLanes];
  const auto measure = [&](bool batch) {
    const Cost before = Cost::now();
    const auto start = Clock::now();
    std::uint64_t sink = 0;
    do {
      for (const auto& [iterations, salt_len] : mix) {
        const std::vector<std::uint8_t> salt(salt_len, 0xab);
        if (batch) {
          crypto::nsec3_hash_batch(spans, salt, iterations, digests);
          sink += digests[kLanes - 1][0];
        } else {
          for (const auto& owner : spans)
            sink += crypto::nsec3_hash(owner, salt, iterations)[0];
        }
      }
    } while (seconds_since(start) < 0.05);
    const double elapsed = seconds_since(start);
    const std::uint64_t blocks = (Cost::now() - before).sha1;
    if (sink == 1) std::fprintf(stderr, "#\n");  // keeps the work observable
    return blocks ? elapsed * 1e9 / static_cast<double>(blocks) : 0.0;
  };
  return {measure(false), measure(true)};
}

/// Codec cost per message over real responses: {decode, view parse,
/// encode, wire_size} in ns.
std::vector<double> time_codec(const std::vector<dns::Message>& messages) {
  std::vector<std::vector<std::uint8_t>> wires;
  for (const auto& m : messages) wires.push_back(m.to_wire());
  std::vector<double> out;
  dns::MonotonicArena arena;
  std::uint64_t sink = 0;
  for (int op = 0; op < 4; ++op) {
    std::uint64_t done = 0;
    const auto start = Clock::now();
    do {
      for (std::size_t i = 0; i < wires.size(); ++i) {
        switch (op) {
          case 0:
            sink += dns::Message::decode(wires[i]).message.has_value();
            break;
          case 1:
            arena.reset();
            sink += dns::MessageView::parse(wires[i], arena).view.has_value();
            break;
          case 2:
            sink += messages[i].to_wire().size();
            break;
          default:
            sink += messages[i].wire_size();
        }
      }
      done += wires.size();
    } while (seconds_since(start) < 0.05);
    out.push_back(done ? seconds_since(start) * 1e9 / static_cast<double>(done)
                       : 0.0);
  }
  if (sink == 1) std::fprintf(stderr, "#\n");
  return out;
}

void report_layers(Report& report, const LayerTrace& trace,
                   const LayerInputs& in, const Rehosted& rehosted) {
  for (const std::string& node : rehosted.unhosted)
    report.notes.push_back(node + " is not re-hosted: its time stays in its "
                           "caller's self time");
  report.notes.push_back("the shared host's IPv6 handler is not re-hosted; no "
                         "glue points at it, so it receives no queries");
  const double items = in.items ? static_cast<double>(in.items) : 1.0;
  double accounted = 0;
  for (int l = 0; l < kLayerCount; ++l) accounted += trace.self_s[l];
  report.add("trace.wall_s", in.wall_s, "s");
  report.add("trace.residual_s", in.wall_s - accounted, "s");
  report.add("scanner.self_s", trace.self_s[kScanner], "s");
  report.add("net.self_s", trace.self_s[kNet], "s");
  std::vector<double> call_us = trace.resolver_call_us;
  report.add("resolver.calls", static_cast<double>(trace.calls[kResolver]),
             "count");
  report.add("resolver.self_s", trace.self_s[kResolver], "s");
  report.add("resolver.call_us.n", static_cast<double>(call_us.size()),
             "count");
  report.add("resolver.call_us.p50", percentile(call_us, 0.5), "us");
  report.add("resolver.call_us.p99", percentile(call_us, 0.99), "us");
  report.add("resolver.cache_hit_ratio",
             in.cache_lookups ? static_cast<double>(in.cache_hits) /
                                    static_cast<double>(in.cache_lookups)
                              : 0.0,
             "ratio");
  report.add("server.answer_s", trace.self_s[kServer], "s");
  report.add("server.answer_calls", static_cast<double>(trace.calls[kServer]),
             "count");
  report.add("zone.materialise_s", trace.self_s[kZone], "s");
  report.add("zone.materialise_calls", static_cast<double>(trace.calls[kZone]),
             "count");
  report.add("server.lazy_resigns", static_cast<double>(in.lazy_resigns),
             "count");
  const std::uint64_t lazy_lookups = in.lazy_hits + in.lazy_materialisations;
  report.add("server.lazy_hit_ratio",
             lazy_lookups ? static_cast<double>(in.lazy_hits) /
                                static_cast<double>(lazy_lookups)
                          : 0.0,
             "ratio");
  for (int l = 0; l < kLayerCount; ++l) {
    if (l == kNet) continue;  // the frontend itself hashes nothing
    const char* layer = kLayerNames[l];
    const Cost& c = trace.self_cost[l];
    report.add(std::string("crypto.sha1_blocks.") + layer, c.sha1 / items,
               "blocks/item");
    report.add(std::string("crypto.sha1_physical_blocks.") + layer,
               c.physical / items, "blocks/item");
    report.add(std::string("crypto.nsec3_hashes.") + layer, c.nsec3 / items,
               "hashes/item");
  }
  const auto [scalar_ns, batch_ns] = time_nsec3(in.nsec3_mix);
  report.add("crypto.nsec3_ns_per_block", scalar_ns, "ns");
  report.add("crypto.batch_ns_per_block", batch_ns, "ns");
  report.add("simnet.queries_per_item", in.net_queries / items, "count");
  report.add("simnet.tcp_queries", static_cast<double>(in.tcp_queries),
             "count");
  report.add("simnet.truncations", static_cast<double>(in.truncations),
             "count");
  report.add("alloc.per_query",
             in.net_queries ? static_cast<double>(in.allocations) /
                                  static_cast<double>(in.net_queries)
                            : 0.0,
             "count");
  const std::vector<double> codec = time_codec(trace.sampled_responses);
  report.add("dns.decode_ns", codec[0], "ns");
  report.add("dns.view_parse_ns", codec[1], "ns");
  report.add("dns.encode_ns", codec[2], "ns");
  report.add("dns.wire_size_ns", codec[3], "ns");
}

/// Adds the net.* metrics a workload without a frontend reports: zero.
void report_no_net(Report& report) {
  for (const char* name : {"net.dispatch_us.n", "net.shed", "net.truncated",
                           "net.malformed"})
    report.add(name, 0.0, "count");
  for (const char* name : {"net.dispatch_us.p50", "net.dispatch_us.p99",
                           "net.generator_late_us.p99"})
    report.add(name, 0.0, "us");
}

std::uint64_t allocations_now() {
#ifdef ZH_BENCH_COUNT_ALLOCS
  return bench::alloc_stats().allocations;
#else
  return 0;
#endif
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  bool traced = false;
  bool ladder = false;
  bool smoke = false;
};

/// Throughput and per-item wall latency of the process's one round;
/// `rate_name` repeats the throughput under the workload's own name.
void report_items(Report& report, const char* rate_name, double items,
                  double seconds, std::vector<double>& latency_us) {
  report.add("items_per_s", items / seconds, "1/s");
  report.add(rate_name, items / seconds, "1/s");
  report.add("item_p50_us", percentile(latency_us, 0.5), "us");
  report.add("item_p90_us", percentile(latency_us, 0.9), "us");
  report.add("item_p99_us", percentile(latency_us, 0.99), "us");
}

// --- scan-domains -----------------------------------------------------------

std::string campaign_hash(const scanner::DomainCampaignStats& stats,
                          const std::vector<scanner::CompactDomainRecord>& records,
                          std::uint64_t queries) {
  analysis::Encoder enc;
  scanner::encode(enc, stats);
  scanner::encode(enc, records);
  enc.u64(queries);
  return fnv_hex(enc.data());
}

void run_scan(const Options& opt, Report& report) {
  const double scale = opt.smoke ? kSmokeScanScale : kScanScale;
  std::vector<SetupTimes> setup;
  top_up_setup(setup, scale, opt.seed, /*with_domains=*/true);
  BuiltWorld built = build_world(scale, opt.seed, /*with_domains=*/true);
  setup.push_back(built.times);
  testbed::Internet& internet = *built.world.internet;
  simnet::Network& network = internet.network();
  LayerTrace trace;
  Rehosted rehosted;
  if (opt.traced)
    rehosted = install_shims(internet, *built.spec, built.world.probe_zones,
                             {built.world.scan_resolver.get()}, trace);
  // The blocking engine of run_domain_campaign_parallel at --jobs 1,
  // driven one domain at a time so each domain's wall time is seen.
  // run_shard(j, count) visits exactly domain j, in serial order, so the
  // artefact equals run_shard(0, 1)'s (--smoke checks this).
  scanner::DomainCampaign campaign(internet, *built.spec,
                                   built.world.scan_resolver->address(),
                                   simnet::IpAddress::v4(198, 18, 0, 0));
  const std::size_t count = built.spec->domain_count();
  std::vector<double> latency_us;
  latency_us.reserve(count);
  const std::uint64_t allocs_before = allocations_now();
  const auto start = Clock::now();
  if (opt.traced) trace.begin_root(kScanner);
  for (std::size_t j = 0; j < count; ++j) {
    const auto t0 = Clock::now();
    campaign.run_shard(j, count);
    latency_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  if (opt.traced) trace.end_root();
  const double wall = seconds_since(start);
  report.hash = campaign_hash(campaign.stats(), campaign.records(),
                              campaign.queries_issued());
  report.attempted = count;
  if (campaign.stats().scanned != count || campaign.records().size() != count)
    report.fail_invariant("domains scanned != requested count");
  std::printf("# %zu domains in %.3fs (%.0f domains/s), %llu queries, "
              "setup %.3fs, artefact %s\n",
              count, wall, count / wall,
              static_cast<unsigned long long>(campaign.queries_issued()),
              built.times.total_s, report.hash.c_str());
  if (opt.smoke) {
    scanner::ParallelOptions options{.base_seed = opt.seed};
    const auto parallel = scanner::run_domain_campaign_parallel(
        *built.spec, scanner::default_world_factory(*built.spec), options);
    const bool same = campaign_hash(parallel.stats, parallel.records,
                                    parallel.queries_issued) == report.hash;
    std::printf("# smoke: run_domain_campaign_parallel %s\n",
                same ? "matches" : "DIFFERS");
    if (!same) report.fail_invariant("per-domain loop differs from the engine");
  }
  report_setup(report, setup, opt.traced);
  report_items(report, "domains_per_s", static_cast<double>(count), wall,
               latency_us);
  if (!opt.traced) return;
  LayerInputs in;
  in.wall_s = wall;
  in.items = count;
  in.net_queries = network.queries_sent();
  in.tcp_queries = network.tcp_queries();
  in.truncations = network.truncations();
  in.allocations = allocations_now() - allocs_before;
  const auto& rs = built.world.scan_resolver->stats();
  in.cache_hits = rs.cache_hits;
  in.cache_lookups = rs.queries_handled;
  for (std::size_t i = 0; i < internet.operator_count(); ++i) {
    const auto* srv = internet.hosting_operator(i).server;
    in.lazy_hits += srv->lazy_hits();
    in.lazy_materialisations += srv->lazy_materialisations();
    in.lazy_resigns += srv->lazy_resigns();
  }
  for (const auto& record : campaign.records())
    if (record.classification ==
            scanner::DomainScanResult::Class::kNsec3Enabled &&
        in.nsec3_mix.size() < 512)
      in.nsec3_mix.emplace_back(record.iterations, record.salt_len);
  report_layers(report, trace, in, rehosted);
  report_no_net(report);
}

// --- probe-resolvers --------------------------------------------------------

std::string sweep_hash(const scanner::ResolverSweepStats& stats,
                       std::uint64_t queries, std::uint64_t population) {
  analysis::Encoder enc;
  scanner::encode(enc, stats);
  enc.u64(queries);
  enc.u64(population);
  return fnv_hex(enc.data());
}

void run_probe(const Options& opt, Report& report) {
  const double rscale = opt.smoke ? kSmokeProbeScale : kProbeScale;
  const workload::PanelSpec panel =
      workload::figure3_panel(workload::Panel::kOpenV4, rscale);
  const std::string token_prefix = "pb-";
  std::vector<SetupTimes> setup;
  top_up_setup(setup, kProbeWorldScale, opt.seed, /*with_domains=*/false);
  BuiltWorld built =
      build_world(kProbeWorldScale, opt.seed, /*with_domains=*/false);
  setup.push_back(built.times);
  testbed::Internet& internet = *built.world.internet;
  simnet::Network& network = internet.network();
  // The blocking branch of run_resolver_sweep_parallel at --jobs 1.
  const auto start = Clock::now();
  workload::BuiltPopulation population = workload::instantiate_panel(
      internet, panel, kPanelAddressBase, opt.seed);
  const double instantiate_s = seconds_since(start);
  std::vector<resolver::RecursiveResolver*> resolvers;
  for (const auto& r : population.resolvers) resolvers.push_back(r.get());
  LayerTrace trace;
  Rehosted rehosted;
  if (opt.traced)
    rehosted = install_shims(internet, *built.spec, built.world.probe_zones,
                             resolvers, trace);
  const std::uint64_t allocs_before = allocations_now();
  const std::uint64_t queries_before = network.queries_sent();
  const auto probe_start = Clock::now();
  if (opt.traced) trace.begin_root(kScanner);
  scanner::ResolverSweepStats stats;
  scanner::ResolverProber prober(network, simnet::IpAddress::v4(198, 18, 0, 0),
                                 built.world.probe_zones);
  trace::Tracer& tracer = network.tracer();
  trace::Metrics& metrics = tracer.metrics();
  const std::uint64_t synth_before = metrics.value("resolver.neg_synth_hit");
  const std::uint64_t failure_before =
      metrics.value("resolver.failure_cache_hit");
  std::vector<double> latency_us;
  for (std::size_t j = 0; j < population.members.size(); ++j) {
    const auto t0 = Clock::now();
    const trace::StageTotals stages_before = tracer.stages();
    stats.add(prober.probe(population.members[j].address,
                           token_prefix + std::to_string(j)));
    stats.add_stages(trace::stage_delta(tracer.stages(), stages_before));
    latency_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  stats.neg_synth_hits += metrics.value("resolver.neg_synth_hit") - synth_before;
  stats.failure_cache_hits +=
      metrics.value("resolver.failure_cache_hit") - failure_before;
  if (opt.traced) trace.end_root();
  const double probe_wall = seconds_since(probe_start);
  const std::size_t members = population.members.size();
  report.hash = sweep_hash(stats, prober.queries_issued(), members);
  report.attempted = members;
  if (stats.probed != members)
    report.fail_invariant("not every panel member was probed");
  const double wall = instantiate_s + probe_wall;
  std::printf("# %zu resolvers in %.3fs (%.1f resolvers/s, panel %.3fs), "
              "%llu queries, setup %.3fs, artefact %s\n",
              members, wall, members / wall, instantiate_s,
              static_cast<unsigned long long>(prober.queries_issued()),
              built.times.total_s, report.hash.c_str());
  if (opt.smoke) {
    scanner::ParallelOptions options{.base_seed = opt.seed,
                                     .population_seed = opt.seed};
    const auto parallel = scanner::run_resolver_sweep_parallel(
        panel,
        scanner::default_world_factory(*built.spec, /*with_domains=*/false),
        token_prefix, kPanelAddressBase, options);
    const bool same = sweep_hash(parallel.stats, parallel.queries_issued,
                                 parallel.population) == report.hash;
    std::printf("# smoke: run_resolver_sweep_parallel %s\n",
                same ? "matches" : "DIFFERS");
    if (!same) report.fail_invariant("per-member loop differs from the engine");
  }
  report_setup(report, setup, opt.traced);
  report_items(report, "resolvers_per_s", static_cast<double>(members), wall,
               latency_us);
  if (!opt.traced) return;
  LayerInputs in;
  in.wall_s = probe_wall;
  in.items = members;
  in.net_queries = network.queries_sent() - queries_before;
  in.tcp_queries = network.tcp_queries();
  in.truncations = network.truncations();
  in.allocations = allocations_now() - allocs_before;
  for (const auto* r : resolvers) {
    in.cache_hits += r->stats().cache_hits;
    in.cache_lookups += r->stats().queries_handled;
  }
  for (const auto& zone : built.world.probe_zones)
    in.nsec3_mix.emplace_back(zone.iterations, 0);
  report_layers(report, trace, in, rehosted);
  report_no_net(report);
}

// --- serve-wire --------------------------------------------------------------

constexpr double kLatencyLimitUs = 1000.0;
constexpr double kReferenceQps = 10000.0;
// The ladder climbs from kLadderStartQps in steps of kLadderRatio.
constexpr double kLadderStartQps = 10000.0;
constexpr double kLadderRatio = 1.15;
constexpr double kLadderMaxQps = 400000.0;
// Latency percentiles are taken per window of consecutive queries and the
// median over windows is reported, so one scheduler stall on a shared host
// spoils one window rather than the whole step.
constexpr std::size_t kWindows = 8;
constexpr std::size_t kSaturationWindow = 32;
constexpr int kSaturationSlices = 8;

/// serve-wire keeps one CPU per thread busy: the event loop polls without
/// blocking and the client's receiver never sleeps, each pinned to its own
/// CPU. The latency measured is then the frontend's path (recvfrom, decode,
/// dispatch into the simulated resolver, encode, sendto, loopback) and not
/// the host's thread wake-up latency, which on a shared VM moved the median
/// between 40 and 80 us from run to run. Hosts with fewer CPUs block.
bool serve_spins() { return std::thread::hardware_concurrency() >= 4; }

/// Pins the calling thread to `cpu` when serve_spins().
void pin_to_cpu(int cpu) {
  if (!serve_spins()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Seconds spent in each serve-wire phase.
struct ServePhases {
  double warm, reference, slice, step;
};
constexpr ServePhases kServePhases{0.5, 1.0, 0.125, 0.3};
constexpr ServePhases kSmokeServePhases{0.1, 0.3, 0.03, 0.05};

/// One open-loop step: `rate` queries/s for `seconds`, from one UDP socket
/// with a sender and a receiver thread. Latency counts from each query's
/// due time, so a stalled sender shows up in the latency of later queries.
struct StepResult {
  double rate = 0;
  std::uint64_t sent = 0, answered = 0, failed = 0;
  double achieved_qps = 0;
  std::vector<double> latency_us;  // per answered query
  std::vector<double> late_us;     // sender lateness per query
  std::vector<double> window_p50, window_p90, window_p99;
  bool backlog_grew = false;

  double p50() const { return median(window_p50); }
  double p90() const { return median(window_p90); }
  double p99() const { return median(window_p99); }
};

class WireLoad {
 public:
  WireLoad(std::uint16_t port, std::vector<std::vector<std::uint8_t>> queries,
           std::vector<std::vector<std::uint8_t>> expected, std::uint64_t seed)
      : port_(port), queries_(std::move(queries)),
        expected_(std::move(expected)), seed_(seed) {}

  StepResult run(double rate, double seconds) {
    StepResult out;
    out.rate = rate;
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(rate * seconds));
    const int fd = open_socket(20000);
    if (fd < 0) {
      out.failed = n;
      return out;
    }
    std::vector<std::int64_t> due_ns(n), sent_ns(n, -1), recv_ns(n, -1);
    std::vector<std::uint8_t> kind(n), bad(n, 0);
    for (std::size_t i = 0; i < n; ++i)
      kind[i] = static_cast<std::uint8_t>(
          simtime::mix64(seed_ + i) % queries_.size());
    std::atomic<std::size_t> sent_count{0};
    const auto epoch = Clock::now() + std::chrono::milliseconds(5);
    const double interval_ns = 1e9 / rate;
    for (std::size_t i = 0; i < n; ++i)
      due_ns[i] = static_cast<std::int64_t>(i * interval_ns);
    const auto ns_since_epoch = [&] {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - epoch)
          .count();
    };

    std::thread receiver([&] {
      pin_to_cpu(3);
      const int flags = serve_spins() ? MSG_DONTWAIT : 0;
      std::uint8_t packet[4096];
      std::size_t received = 0;
      const std::int64_t deadline_after_last =
          static_cast<std::int64_t>(kLatencyLimitUs * 1000) * 50;
      while (received < n) {
        const ssize_t got = ::recv(fd, packet, sizeof packet, flags);
        const std::int64_t now = ns_since_epoch();
        if (got < 0) {
          if (sent_count.load(std::memory_order_acquire) == n &&
              now > due_ns[n - 1] + deadline_after_last)
            break;
          continue;
        }
        if (got < 2) continue;
        const std::uint16_t id =
            static_cast<std::uint16_t>(packet[0] << 8 | packet[1]);
        // The newest sent query carrying this ID: anything older would be
        // more than 65,536 queries late, far past the latency limit.
        const std::size_t sent = sent_count.load(std::memory_order_acquire);
        if (sent == 0) continue;
        std::size_t i = (sent - 1) - ((sent - 1 - id) & 0xffff);
        if (i >= n || ((i & 0xffff) != id) || recv_ns[i] >= 0) continue;
        recv_ns[i] = now;
        ++received;
        if (!matches(packet, got, kind[i])) bad[i] = 1;
      }
    });

    std::vector<std::uint8_t> wire = send_buffer();
    for (std::size_t i = 0; i < n; ++i) {
      while (ns_since_epoch() < due_ns[i]) {
      }
      wire = queries_[kind[i]];
      wire[0] = static_cast<std::uint8_t>((i >> 8) & 0xff);
      wire[1] = static_cast<std::uint8_t>(i & 0xff);
      sent_ns[i] = ns_since_epoch();
      sent_count.store(i + 1, std::memory_order_release);
      (void)::send(fd, wire.data(), wire.size(), 0);
    }
    receiver.join();
    ::close(fd);

    out.sent = n;
    std::int64_t last_recv = 0;
    std::vector<double> first, last, window;
    for (std::size_t i = 0; i < n; ++i) {
      out.late_us.push_back((sent_ns[i] - due_ns[i]) / 1000.0);
      if (recv_ns[i] < 0 || bad[i]) {
        ++out.failed;
      } else {
        ++out.answered;
        last_recv = std::max(last_recv, recv_ns[i]);
        const double us = (recv_ns[i] - due_ns[i]) / 1000.0;
        out.latency_us.push_back(us);
        window.push_back(us);
        if (i < n / 5) first.push_back(us);
        if (i >= n - n / 5) last.push_back(us);
      }
      if ((i + 1) * kWindows / n != i * kWindows / n || i + 1 == n) {
        if (!window.empty()) {
          out.window_p50.push_back(percentile(window, 0.5));
          out.window_p90.push_back(percentile(window, 0.9));
          out.window_p99.push_back(percentile(window, 0.99));
        }
        window.clear();
      }
    }
    out.achieved_qps = last_recv > 0 ? out.answered * 1e9 / last_recv : 0.0;
    // A growing backlog shows as the last fifth waiting longer than the
    // first fifth did.
    if (!first.empty() && !last.empty())
      out.backlog_grew = median(last) > 2.0 * median(first) + 50.0;
    return out;
  }

  /// Closed loop: keeps `window` queries in flight for `seconds` from one
  /// thread and returns {answered per second, failed}. The server is then
  /// never idle, so the rate is its capacity on this host.
  std::pair<double, std::uint64_t> saturate(std::size_t window,
                                            double seconds) {
    const int fd = open_socket(200000);
    if (fd < 0) return {0.0, 1};
    std::vector<std::uint8_t> kind_of(65536, 0);
    std::uint16_t next_id = 0;
    std::uint64_t answered = 0, failed = 0, issued = 0;
    std::vector<std::uint8_t> wire = send_buffer();
    const auto send_one = [&] {
      const std::uint8_t kind = static_cast<std::uint8_t>(
          simtime::mix64(seed_ + issued++) % queries_.size());
      kind_of[next_id] = kind;
      wire = queries_[kind];
      wire[0] = static_cast<std::uint8_t>(next_id >> 8);
      wire[1] = static_cast<std::uint8_t>(next_id & 0xff);
      ++next_id;
      (void)::send(fd, wire.data(), wire.size(), 0);
    };
    for (std::size_t i = 0; i < window; ++i) send_one();
    std::uint8_t packet[4096];
    const auto start = Clock::now();
    std::size_t in_flight = window;
    while (in_flight > 0) {
      const ssize_t got = ::recv(fd, packet, sizeof packet, 0);
      if (got < 0) {  // a lost query: count it and refill the window
        failed += in_flight;
        break;
      }
      if (got < 2) continue;
      const std::uint16_t id =
          static_cast<std::uint16_t>(packet[0] << 8 | packet[1]);
      if (matches(packet, got, kind_of[id]))
        ++answered;
      else
        ++failed;
      if (seconds_since(start) < seconds)
        send_one();
      else
        --in_flight;
    }
    const double elapsed = seconds_since(start);
    ::close(fd);
    return {answered / elapsed, failed};
  }

 private:
  /// An empty buffer no query outgrows, so the client allocates nothing
  /// while its queries are in flight.
  std::vector<std::uint8_t> send_buffer() const {
    std::size_t size = 0;
    for (const auto& query : queries_) size = std::max(size, query.size());
    std::vector<std::uint8_t> wire;
    wire.reserve(size);
    return wire;
  }

  /// The response oracle: the expected answer's bytes after the ID, so
  /// RCODE, the TC bit and every section must match.
  bool matches(const std::uint8_t* packet, ssize_t got,
               std::uint8_t kind) const {
    const std::vector<std::uint8_t>& want = expected_[kind];
    return static_cast<std::size_t>(got) == want.size() && got > 2 &&
           (packet[2] & 0x02) == 0 &&
           std::memcmp(packet + 2, want.data() + 2, want.size() - 2) == 0;
  }

  /// A UDP socket connected to the frontend whose recv() gives up after
  /// `timeout_us`; -1 on failure.
  int open_socket(int timeout_us) const {
    const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    int buf = 4 << 20;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
    timeval tv{0, timeout_us};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  std::uint16_t port_;
  std::vector<std::vector<std::uint8_t>> queries_;
  std::vector<std::vector<std::uint8_t>> expected_;
  std::uint64_t seed_;
};

/// Gives the frontend's UDP socket a 4 MB receive buffer (the kernel
/// default holds about 300 queries). The frontend leaves the kernel
/// default in place; on a shared host a scheduler stall of a few tens of
/// milliseconds would then drop queries, and the benchmark would measure
/// the host instead of the server. The socket is found by its bound port.
void widen_udp_buffer(std::uint16_t port) {
  for (int fd = 0; fd < 1024; ++fd) {
    int type = 0;
    socklen_t len = sizeof type;
    if (::getsockopt(fd, SOL_SOCKET, SO_TYPE, &type, &len) != 0 ||
        type != SOCK_DGRAM)
      continue;
    sockaddr_in addr{};
    socklen_t addr_len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0 ||
        addr.sin_family != AF_INET || ntohs(addr.sin_port) != port)
      continue;
    int bytes = 4 << 20;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes);
  }
}

void run_serve(const Options& opt, Report& report) {
  std::vector<SetupTimes> setup;
  top_up_setup(setup, kProbeWorldScale, opt.seed, /*with_domains=*/false);
  BuiltWorld built =
      build_world(kProbeWorldScale, opt.seed, /*with_domains=*/false);
  setup.push_back(built.times);
  testbed::Internet& internet = *built.world.internet;
  simnet::Network& network = internet.network();
  const simnet::IpAddress wire_client = simnet::IpAddress::v4(203, 0, 113, 53);
  const simnet::IpAddress endpoint = simnet::IpAddress::v4(1, 1, 1, 1);

  // The query mix: the apex A answers (~170 B) and NXDOMAIN-with-NSEC3
  // answers (~780 B) of eight probe zones the seed picks among valid and
  // it-1..it-25, all cached before the clock starts.
  std::vector<testbed::ProbeZone> zones;
  for (const auto& zone : built.world.probe_zones)
    if (!zone.expired && !zone.nsec3_expired && zone.iterations <= 25)
      zones.push_back(zone);
  std::vector<dns::Message> queries;
  for (int k = 0; k < 8; ++k) {
    const auto& zone = zones[simtime::mix64(opt.seed * 31 + k) % zones.size()];
    queries.push_back(dns::Message::make_query(0, zone.apex, dns::RrType::kA));
    char label[32];
    std::snprintf(label, sizeof label, "nx%d-%llx", k,
                  static_cast<unsigned long long>(opt.seed));
    queries.push_back(dns::Message::make_query(0, *zone.apex.prepended(label),
                                               dns::RrType::kA));
  }
  std::vector<std::vector<std::uint8_t>> query_wires, expected;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    const dns::Message& query = queries[k];
    (void)network.send_tcp(wire_client, endpoint, query);  // warm the cache
    const auto response = network.send_tcp(wire_client, endpoint, query);
    query_wires.push_back(query.to_wire());
    expected.push_back(response ? response->to_wire()
                                : std::vector<std::uint8_t>{});
    // Odd entries are the NXDOMAIN names: they must carry an NSEC3 proof;
    // even entries must carry the answer.
    const bool nx = k % 2 == 1;
    const bool ok =
        response && !response->header.tc &&
        (response->header.rcode == dns::Rcode::kNxDomain) == nx &&
        (nx ? !response->authorities_of_type(dns::RrType::kNsec3).empty()
            : !response->answers_of_type(dns::RrType::kA).empty());
    if (!ok)
      report.fail_invariant("unexpected in-sim answer for " +
                            query.questions.front().name.to_string());
  }
  std::printf("# serve-wire mix: %zu names, answers %zu B (positive) and "
              "%zu B (NXDOMAIN with NSEC3 proof)\n",
              queries.size(), expected[0].size(), expected[1].size());

  LayerTrace trace;
  std::vector<double> dispatch_us;
  std::vector<resolver::RecursiveResolver*> resolvers{
      built.world.scan_resolver.get()};
  Rehosted rehosted;
  if (opt.traced) {
    rehosted = install_shims(internet, *built.spec, built.world.probe_zones,
                             resolvers, trace);
    dispatch_us.reserve(1 << 20);
  }
  const std::uint64_t queries_before = network.queries_sent();

  // The zh_serve wiring, with the loop on a worker thread so this process
  // can also be the client.
  network.rebind_owner_thread();
  net::EventLoop loop;
  net::Frontend frontend(
      [&](const dns::Message& query) -> std::optional<dns::Message> {
        if (!opt.traced) return network.send_tcp(wire_client, endpoint, query);
        trace.push();
        auto response = network.send_tcp(wire_client, endpoint, query);
        dispatch_us.push_back(trace.pop(kNet) * 1e6);
        return response;
      },
      net::FrontendConfig{}, &network.tracer());
  if (!loop.valid() || !frontend.start(loop)) {
    std::fprintf(stderr, "frontend start failed: %s\n",
                 frontend.error().c_str());
    std::exit(1);
  }
  widen_udp_buffer(frontend.port());
  // A traced process makes every event-loop poll that served something a
  // net root span, with Dispatch as its child, so net.self_s holds the
  // frontend's own path (recvfrom, decode, encode, sendto) and the span
  // times add up to the polls' wall time. Allocations are counted inside
  // those polls only, which keeps the client's threads out of the count.
  // Idle polls are dropped. A span must not hold a blocking wait, so
  // traced processes poll without blocking on every host.
  double busy_s = 0;
  std::uint64_t busy_allocations = 0;
  std::atomic<bool> serving{true};
  std::thread server([&] {
    pin_to_cpu(1);
    if (opt.traced) {
      while (serving.load(std::memory_order_relaxed)) {
        const std::uint64_t allocs = allocations_now();
        const auto start = Clock::now();
        trace.begin_root(kNet);
        if (loop.poll(0) == 0) {
          trace.abandon_root();
          continue;
        }
        trace.end_root();
        busy_s += seconds_since(start);
        busy_allocations += allocations_now() - allocs;
      }
      return;
    }
    if (!serve_spins()) return loop.run();
    while (serving.load(std::memory_order_relaxed)) loop.poll(0);
  });
  pin_to_cpu(2);
  WireLoad load(frontend.port(), query_wires, expected, opt.seed);

  const ServePhases& phases = opt.smoke ? kSmokeServePhases : kServePhases;
  // Warm-up: the first traffic grows socket buffers and the frontend's
  // heap; it is not measured.
  std::uint64_t saturate_failed =
      load.saturate(kSaturationWindow, phases.warm).second;
  // Fixed reference rate: latency below capacity.
  const double reference_s = phases.reference;
  StepResult reference = load.run(kReferenceQps, reference_s);
  // Capacity: a closed loop that never lets the server idle, measured in
  // slices whose median is reported.
  std::vector<double> saturated;
  const double slice_s = phases.slice;
  for (int i = 0; i < kSaturationSlices; ++i) {
    const auto [qps, failed] = load.saturate(kSaturationWindow, slice_s);
    saturated.push_back(qps);
    saturate_failed += failed;
  }
  const double saturated_qps = median(saturated);
  const double saturate_s = slice_s * saturated.size();
  std::printf("# saturated: %.1f qps with %zu queries in flight (median of "
              "%zu slices), %llu failed\n",
              saturated_qps, kSaturationWindow, saturated.size(),
              static_cast<unsigned long long>(saturate_failed));
  // Ladder: the highest offered rate with p99 within the limit, no failed
  // query and no growing backlog. The first failing step ends the climb;
  // its queries are the capacity probe, not failures of the workload.
  const double step_s = phases.step;
  double max_qps = 0;
  std::uint64_t ladder_attempted = 0;
  if (opt.ladder && !opt.traced) {
    for (double rate = kLadderStartQps; rate <= kLadderMaxQps;
         rate *= kLadderRatio) {
      StepResult step = load.run(rate, step_s);
      const double p99 = step.p99();
      const bool pass =
          step.failed == 0 && p99 <= kLatencyLimitUs && !step.backlog_grew;
      std::printf("# ladder %6.0f qps: achieved %8.1f, p99 %7.1fus, "
                  "failed %llu, backlog %s -> %s\n",
                  rate, step.achieved_qps, p99,
                  static_cast<unsigned long long>(step.failed),
                  step.backlog_grew ? "grew" : "flat", pass ? "pass" : "FAIL");
      if (!pass) break;
      ladder_attempted += step.sent;
      max_qps = step.achieved_qps;
    }
  }
  serving = false;
  loop.stop();
  server.join();
  const net::FrontendCounters& counters = frontend.counters();

  report.attempted = reference.sent + ladder_attempted;
  report.attempted += static_cast<std::uint64_t>(saturated_qps * saturate_s);
  report.failed = reference.failed + saturate_failed;
  if (counters.truncated != 0)
    report.fail_invariant("a serve-wire response was truncated");
  report.hash = fnv_hex([&] {
    std::vector<std::uint8_t> all;
    for (const auto& w : expected) all.insert(all.end(), w.begin(), w.end());
    return all;
  }());
  std::printf("# reference %.0f qps for %.2fs: %llu queries, p50 %.1fus, "
              "p90 %.1fus, p99 %.1fus (medians over %zu windows), %llu failed; "
              "serve_max_qps %.1f\n",
              kReferenceQps, reference_s,
              static_cast<unsigned long long>(reference.sent),
              reference.p50(), reference.p90(), reference.p99(),
              reference.window_p99.size(),
              static_cast<unsigned long long>(reference.failed), max_qps);

  report_setup(report, setup, opt.traced);
  report.add("items_per_s", saturated_qps, "1/s");
  report.add("item_p50_us", reference.p50(), "us");
  report.add("item_p90_us", reference.p90(), "us");
  report.add("item_p99_us", reference.p99(), "us");
  report.add("serve_p50_us", reference.p50(), "us");
  report.add("serve_p99_us", reference.p99(), "us");
  report.add("serve_latency_samples",
             static_cast<double>(reference.latency_us.size()), "count");
  if (opt.ladder) report.add("serve_max_qps", max_qps, "1/s");
  if (opt.traced) {
    LayerInputs in;
    in.items = counters.udp_queries + counters.tcp_queries;
    in.wall_s = busy_s;
    in.net_queries = network.queries_sent() - queries_before;
    in.tcp_queries = network.tcp_queries();
    in.truncations = network.truncations();
    in.allocations = busy_allocations;
    in.cache_hits = built.world.scan_resolver->stats().cache_hits;
    in.cache_lookups = built.world.scan_resolver->stats().queries_handled;
    for (const auto& zone : built.world.probe_zones)
      if (zone.iterations <= 25) in.nsec3_mix.emplace_back(zone.iterations, 0);
    trace.sampled_responses.clear();
    for (const auto& wire : expected) {
      if (auto decoded = dns::Message::decode(wire).message)
        trace.sampled_responses.push_back(std::move(*decoded));
    }
    std::vector<double> spans = dispatch_us;
    report_layers(report, trace, in, rehosted);
    report.add("net.dispatch_us.n", static_cast<double>(spans.size()), "count");
    report.add("net.dispatch_us.p50", percentile(spans, 0.5), "us");
    report.add("net.dispatch_us.p99", percentile(spans, 0.99), "us");
    report.add("net.shed", static_cast<double>(counters.shed), "count");
    report.add("net.truncated", static_cast<double>(counters.truncated),
               "count");
    report.add("net.malformed", static_cast<double>(counters.malformed),
               "count");
    report.add("net.generator_late_us.p99",
               percentile(reference.late_us, 0.99), "us");
  }
}

// --- Host facts and output ------------------------------------------------

void print_json(const Options& opt, const Report& report) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, "
              "\"hash\": \"%s\", \"attempted\": %llu, \"failed\": %llu, "
              "\"invariants_ok\": %s, \"facts\": {\"nproc\": %u, "
              "\"sha1_impl\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"serve_threads\": \"%s\"}, "
              "\"notes\": [",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.traced ? "true" : "false", report.hash.c_str(),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.invariants_ok ? "true" : "false",
              std::thread::hardware_concurrency(),
              crypto::sha1_impl_name(crypto::sha1_impl()), "gcc " __VERSION__,
              ZH_PERFBENCH_BUILD_TYPE,
              serve_spins() ? "pinned-spinning" : "blocking");
  for (std::size_t i = 0; i < report.notes.size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "", report.notes[i].c_str());
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: zh_perfbench --workload scan-domains|probe-resolvers|"
               "serve-wire --seed N [--trace] [--smoke] [--ladder]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--ladder") {
      opt.ladder = true;
    } else if (arg == "--trace") {
      opt.traced = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      return usage();
    }
  }
#ifndef ZH_BENCH_COUNT_ALLOCS
  if (opt.traced) {
    std::fprintf(stderr, "--trace needs the zh_perfbench_traced binary\n");
    return 2;
  }
#endif
  std::printf("# host: nproc=%u sha1_impl=%s compiler=gcc %s build=%s "
              "serve_threads=%s\n",
              std::thread::hardware_concurrency(),
              crypto::sha1_impl_name(crypto::sha1_impl()), __VERSION__,
              ZH_PERFBENCH_BUILD_TYPE, serve_spins() ? "pinned-spinning" : "blocking");
  Report report;
  if (opt.workload == "scan-domains") {
    run_scan(opt, report);
  } else if (opt.workload == "probe-resolvers") {
    run_probe(opt, report);
  } else if (opt.workload == "serve-wire") {
    run_serve(opt, report);
  } else {
    return usage();
  }
  report.add("peak_rss_mb", status_mb("VmHWM"), "MB");
  std::fflush(stdout);
  print_json(opt, report);
  return 0;
}
