// net_churn: the distributed library (paper §4) — a heartbeat failure
// detector on a 100k-node random-regular network under message loss and
// churn, with the health observatory attached.
#include <cstdint>
#include <optional>
#include <string>

#include "distributed/algorithms.hpp"
#include "distributed/inproc_transport.hpp"
#include "distributed/network.hpp"
#include "distributed/parallel_transport.hpp"
#include "telemetry/health.hpp"
#include "telemetry/profile.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

namespace dist = cgp::distributed;
namespace profile = cgp::telemetry::profile;
using cgp::telemetry::health::observatory;

constexpr std::size_t kNodes = 100'000;
constexpr std::size_t kRounds = 12;
constexpr std::size_t kTimeoutRounds = 3;

dist::net_options options_for(std::uint64_t seed) {
  return {.nodes = kNodes,
          .topo = dist::topology::random_regular,
          .seed = static_cast<std::uint32_t>(seed),
          .workers = kWorkers,
          .faults = {.drop = 0.01, .churn_crash = 0.002, .churn_recover = 0.25}};
}

// Digest of everything the run decided and counted; equal digests on two
// backends mean equal statistics and equal decisions.
std::uint64_t digest(const dist::net_base& net) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  const auto mix_text = [&](const std::string& s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
  };
  const dist::run_stats& s = net.stats();
  mix(s.messages_total);
  mix(s.messages_dropped);
  mix(s.messages_duplicated);
  mix(s.rounds);
  mix(s.local_steps);
  for (const auto& [tag, count] : s.messages_by_tag) {
    mix_text(tag);
    mix(count);
  }
  for (const auto& [key, value] : net.all_decisions()) {
    mix(static_cast<std::uint64_t>(key.first));
    mix_text(key.second);
    mix(static_cast<std::uint64_t>(value));
  }
  return h;
}

struct net_pass {
  double build_s = 0;
  double spawn_s = 0;
  double run_s = 0;
  std::size_t messages = 0;
  std::size_t dropped = 0;
  std::size_t rounds = 0;
  std::uint64_t digest = 0;
};

struct pass_spans {
  std::uint32_t build = spans::name_id("distributed.transport.construct");
  std::uint32_t spawn = spans::name_id("distributed.spawn");
  std::uint32_t run = spans::name_id("distributed.run");
};

// Transport construction (the CSR build) and spawn are the set-up; the
// run is the request.
template <class Transport>
net_pass run_network(const dist::net_options& opts, const pass_spans& n) {
  net_pass p;
  auto t0 = clock_type::now();
  std::optional<Transport> net;
  {
    spans::scope s(n.build);
    net.emplace(opts);
  }
  p.build_s = seconds_since(t0);
  t0 = clock_type::now();
  {
    spans::scope s(n.spawn);
    net->spawn(dist::heartbeat_detector(kTimeoutRounds));
  }
  p.spawn_s = seconds_since(t0);
  t0 = clock_type::now();
  {
    spans::scope s(n.run);
    (void)net->run(kRounds);
  }
  p.run_s = seconds_since(t0);
  p.messages = net->stats().messages_total;
  p.dropped = net->stats().messages_dropped;
  p.rounds = net->stats().rounds;
  p.digest = digest(*net);
  return p;
}

// Inclusive time of every profiler node called `name`, in seconds.
double frame_seconds(const std::vector<profile::profile_node>& nodes,
                     const std::string& name) {
  double total = 0;
  for (const profile::profile_node& n : nodes) {
    if (n.name == name) total += static_cast<double>(n.incl) * 1e-9;
    total += frame_seconds(n.children, name);
  }
  return total;
}

}  // namespace

outcome run_net_churn(const run_config& cfg) {
  const dist::net_options opts = options_for(cfg.seed);
  const pass_spans names;
  observatory::global().enable();
  // The known answer: the sequential simulator on the same seed, computed
  // once, untimed.
  std::uint64_t expected = run_network<dist::sim_transport>(opts, names).digest;
  if (cfg.plant_wrong_answer) expected ^= 1;

  outcome out;
  const auto check = [&](const net_pass& p) {
    out.attempted += p.messages;
    if (p.digest != expected) out.failed += p.messages;
  };
  const auto warm_t0 = clock_type::now();
  (void)run_network<dist::parallel_transport>(opts, names);
  const double warmup_s = seconds_since(warm_t0);

  std::vector<double> rates, runs, setups, builds, spawns, peaks;
  std::size_t messages = 0, dropped = 0, rounds = 0;
  const auto measure = [&] {
    reset_peak_rss();
    const net_pass p = run_network<dist::parallel_transport>(opts, names);
    peaks.push_back(peak_rss_mb());
    check(p);
    rates.push_back(static_cast<double>(p.messages) / p.run_s);
    runs.push_back(p.run_s);
    setups.push_back(p.build_s + p.spawn_s);
    builds.push_back(p.build_s);
    spawns.push_back(p.spawn_s);
    messages = p.messages;
    dropped = p.dropped;
    rounds = p.rounds;
  };
  if (!cfg.trace) {
    repeat_for(cfg.seconds, 3, measure);
    std::vector<double> latencies_ms;
    for (const double r : runs) latencies_ms.push_back(r * 1e3);
    fill_end_to_end(out, rates, latencies_ms, setups, peaks);
    return out;
  }

  const double phase_s = traced_phase_seconds(cfg);
  repeat_for(phase_s, 2, measure);
  const double base_rate = median(rates);

  alloc_counter::enable(true);
  const std::uint64_t allocs_before = alloc_counter::count();
  const net_pass counted = run_network<dist::parallel_transport>(opts, names);
  const double allocs =
      static_cast<double>(alloc_counter::count() - allocs_before);
  alloc_counter::enable(false);
  check(counted);

  // The same inputs on every backend, and with the observatory off.
  const auto rate_of = [&](const net_pass& p) {
    check(p);
    return static_cast<double>(p.messages) / p.run_s;
  };
  const double sim_rate =
      rate_of(run_network<dist::sim_transport>(opts, names));
  const double inproc_rate =
      rate_of(run_network<dist::inproc_transport>(opts, names));
  // Observatory off against on, alternating so that drift in the machine's
  // speed falls on both sides alike.
  std::vector<double> health_off, health_on;
  for (int i = 0; i < 3; ++i) {
    observatory::global().disable();
    health_off.push_back(
        rate_of(run_network<dist::parallel_transport>(opts, names)));
    observatory::global().enable();
    health_on.push_back(
        rate_of(run_network<dist::parallel_transport>(opts, names)));
  }

  // Traced passes: the benchmark's spans around construct/spawn/run, and
  // the library's existing profiler frames inside the run.
  auto& prof = profile::profiler::global();
  prof.reset();
  prof.enable();
  spans::enable(true);
  std::vector<std::int64_t> roots;
  std::vector<double> traced_rates;
  double traced_run_s = 0;
  const std::uint32_t pass_name = spans::name_id("net_churn.pass");
  repeat_for(0, 2, [&] {
    spans::scope pass(pass_name);
    roots.push_back(pass.id());
    const net_pass p = run_network<dist::parallel_transport>(opts, names);
    traced_rates.push_back(rate_of(p));
    traced_run_s += p.run_s;
  });
  spans::enable(false);
  prof.disable();
  const profile::profile_snapshot snap = prof.snapshot();

  const spans::split sp = spans::account(spans::collect(), roots, 1);
  check_split(out, sp, "net_churn traced passes (main thread)");
  const double route = frame_seconds(snap.roots, "distributed.parallel.route");
  const double superstep =
      frame_seconds(snap.roots, "distributed.parallel.superstep");
  const double deliver =
      frame_seconds(snap.roots, "distributed.parallel.deliver");
  if (!(route > 0 && superstep > 0 && deliver > 0 && deliver <= superstep &&
        route <= traced_run_s && superstep <= kWorkers * traced_run_s)) {
    out.trace_valid = false;
    out.notes.push_back(
        "INVALID trace (net_churn): profiler frames do not fit inside the "
        "traced runs");
  }
  auto& m = out.metrics;
  m["distributed.build_s"] = median(builds);
  m["distributed.spawn_s"] = median(spawns);
  m["distributed.round_ms"] = median(runs) / static_cast<double>(rounds) * 1e3;
  m["distributed.route_share"] = share(route, traced_run_s);
  m["distributed.deliver_share"] = share(deliver, superstep);
  m["distributed.drop_ratio"] =
      share(static_cast<double>(dropped), static_cast<double>(messages));
  m["distributed.backend.sim.items_per_s"] = sim_rate;
  m["distributed.backend.parallel.items_per_s"] = base_rate;
  m["distributed.backend.inproc.items_per_s"] = inproc_rate;
  m["health.overhead_ratio"] = share(median(health_off), median(health_on));
  m["parallel.idle_share"] =
      1.0 - share(superstep, kWorkers * traced_run_s);
  m["allocs_per_item"] = share(allocs, static_cast<double>(counted.messages));
  m["warmup_s"] = warmup_s;
  m["trace.overhead_ratio"] = share(base_rate, median(traced_rates));
  return out;
}

}  // namespace e2e
