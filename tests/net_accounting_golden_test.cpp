// Golden message accounting of the synchronous engine: the safety net under
// refactors of how a send is counted.
//
// A heartbeat detector runs on a 2,000-node random-regular graph under
// message drops, duplicates and churn, on every backend (sim, parallel and
// inproc with 3 workers), with the health observatory off and on (manual
// clock).  The test pins:
//   * the `run_stats` scalars, `messages_by_tag` and a hash of the three
//     per-node arrays — identical on every backend and with the
//     observatory on or off;
//   * the registry growth of the engine's six message counters over one
//     run on a fresh transport;
//   * with the observatory on, the `cgp.health.v1` export bytes and the
//     `distributed.health.*` counters and histograms one fixed `tick`
//     mirrors into the registry.
// The recorded values are never edited to make a change pass; a
// deliberate change of what the engine counts is the only reason to
// re-record them, and must say so.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "distributed/algorithms.hpp"
#include "distributed/inproc_transport.hpp"
#include "distributed/network.hpp"
#include "distributed/parallel_transport.hpp"
#include "telemetry/health.hpp"
#include "telemetry/telemetry.hpp"

namespace cgp {
namespace {

namespace dist = distributed;
namespace health = telemetry::health;

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a(std::string_view s) {
  return fnv1a(kFnvBasis, s.data(), s.size());
}

const dist::net_options kOptions{
    .nodes = 2'000,
    .topo = dist::topology::random_regular,
    .seed = 23,
    .workers = 3,
    .faults = {.drop = 0.02,
               .duplicate = 0.03,
               .churn_crash = 0.004,
               .churn_recover = 0.3}};
constexpr std::size_t kRounds = 10;

std::unique_ptr<dist::net_base> make_transport(std::string_view backend) {
  if (backend == "parallel")
    return std::make_unique<dist::parallel_transport>(kOptions);
  if (backend == "inproc")
    return std::make_unique<dist::inproc_transport>(kOptions);
  return std::make_unique<dist::sim_transport>(kOptions);
}

// The engine counters whose growth over one run is pinned.
constexpr std::array<const char*, 6> kEngineCounters = {
    "distributed.network.messages_total",
    "distributed.network.messages_dropped",
    "distributed.network.messages_duplicated",
    "distributed.network.local_steps",
    "distributed.network.live_messages_routed",
    "distributed.network.live_faults"};

std::array<std::uint64_t, 6> engine_counter_values() {
  std::array<std::uint64_t, 6> out{};
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = telemetry::registry::global().get_counter(kEngineCounters[i])
                 .value();
  return out;
}

struct accounting {
  std::size_t total = 0, dropped = 0, duplicated = 0, rounds = 0, steps = 0;
  std::string by_tag;
  std::uint64_t per_node = 0;  ///< hash of the three per-node arrays
  std::array<std::uint64_t, 6> growth{};  ///< kEngineCounters, this run
};

/// One run on a fresh transport.
accounting run_once(std::string_view backend) {
  const auto before = engine_counter_values();
  const auto net = make_transport(backend);
  net->spawn(dist::heartbeat_detector(3));
  (void)net->run(kRounds);
  const auto after = engine_counter_values();
  const dist::run_stats& s = net->stats();
  accounting out{s.messages_total, s.messages_dropped, s.messages_duplicated,
                 s.rounds,         s.local_steps};
  for (const auto& [tag, count] : s.messages_by_tag)
    out.by_tag += tag + "=" + std::to_string(count) + ";";
  std::uint64_t h = kFnvBasis;
  for (const auto span : {s.local_steps_span(), s.sent_span(),
                          s.received_span()})
    h = fnv1a(h, span.data(), span.size_bytes());
  out.per_node = h;
  for (std::size_t i = 0; i < out.growth.size(); ++i)
    out.growth[i] = after[i] - before[i];
  return out;
}

void expect_recorded(const accounting& a, const std::string& who) {
  EXPECT_EQ(a.total, 79'280u) << who;
  EXPECT_EQ(a.dropped, 1'614u) << who;
  EXPECT_EQ(a.duplicated, 2'283u) << who;
  EXPECT_EQ(a.rounds, 11u) << who;
  EXPECT_EQ(a.steps, 73'288u) << who;
  EXPECT_EQ(a.by_tag, "beat=79280;") << who;
  EXPECT_EQ(a.per_node, 0xc9ec5fe7486320f9ull)
      << who << ": recorded 0x" << std::hex << a.per_node;
  const std::array<std::uint64_t, 6> growth = {79'280, 1'614, 2'283,
                                               73'288, 79'949, 3'897};
  for (std::size_t i = 0; i < growth.size(); ++i)
    EXPECT_EQ(a.growth[i], growth[i]) << who << ": " << kEngineCounters[i];
}

class observatory_session {
 public:
  observatory_session() {
    health::observatory::global().enable(
        {.shards = 16, .reservoir_k = 4, .seed = 5, .manual_clock = true});
  }
  ~observatory_session() {
    health::observatory::global().disable();
    health::observatory::global().reset();
  }
};

void check_backend(std::string_view backend) {
  const std::string name(backend);
  health::observatory::global().disable();
  expect_recorded(run_once(backend), name + ", observatory off");
  const observatory_session session;
  expect_recorded(run_once(backend), name + ", observatory on");
}

TEST(NetAccountingGolden, SimRunStatsAndRegistryGrowth) {
  check_backend("sim");
}

TEST(NetAccountingGolden, ParallelRunStatsAndRegistryGrowth) {
  check_backend("parallel");
}

TEST(NetAccountingGolden, InprocRunStatsAndRegistryGrowth) {
  check_backend("inproc");
}

// --- the health observatory's view of the same run --------------------------

struct health_capture {
  std::size_t bytes = 0;
  std::uint64_t export_hash = 0;
  std::array<std::uint64_t, 4> backend{};  ///< routed/delivered/dropped/dup
  std::uint64_t shard_hash = 0;            ///< every per-shard counter
  std::uint64_t latency_samples = 0, depth_samples = 0;
};

health_capture capture_health(std::string_view backend) {
  const observatory_session session;
  auto& obs = health::observatory::global();
  {
    const auto net = make_transport(backend);
    net->spawn(dist::heartbeat_detector(3));
    (void)net->run(kRounds);
  }
  // The mirror pushes growth since its last baseline, and the session
  // started from none: the registry grows by the absolute roll-ups.
  auto& reg = telemetry::registry::global();
  const std::string base = "distributed.health." + std::string(backend);
  const char* kFields[] = {"routed", "delivered", "dropped", "duplicated"};
  std::vector<std::string> names;
  for (std::size_t s = 0; s < 16; ++s)
    for (const char* f : kFields)
      names.push_back(base + ".shard" + std::to_string(s) + "." + f);
  for (const char* f : kFields) names.push_back(base + "." + f);
  std::vector<std::uint64_t> before;
  for (const std::string& n : names)
    before.push_back(reg.get_counter(n).value());
  const std::uint64_t latency0 =
      reg.get_histogram(base + ".superstep_latency").count();
  const std::uint64_t depth0 = reg.get_histogram(base + ".inbox_depth").count();
  (void)obs.tick(1'000);
  health_capture out;
  const std::string doc = obs.export_json();
  out.bytes = doc.size();
  out.export_hash = fnv1a(doc);
  std::uint64_t h = kFnvBasis;
  const std::size_t shard_names = names.size() - 4;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::uint64_t grew = reg.get_counter(names[i]).value() - before[i];
    if (i < shard_names)
      h = fnv1a(h, &grew, sizeof grew);
    else
      out.backend[i - shard_names] = grew;
  }
  out.shard_hash = h;
  out.latency_samples =
      reg.get_histogram(base + ".superstep_latency").count() - latency0;
  out.depth_samples =
      reg.get_histogram(base + ".inbox_depth").count() - depth0;
  return out;
}

void expect_health_recorded(const health_capture& c, std::size_t bytes,
                            std::uint64_t export_hash,
                            const std::string& who) {
  EXPECT_EQ(c.bytes, bytes) << who;
  EXPECT_EQ(c.export_hash, export_hash)
      << who << ": recorded 0x" << std::hex << c.export_hash;
  // The per-shard and backend counters are the same on every backend.
  const std::array<std::uint64_t, 4> backend = {79'280, 79'949, 1'614,
                                                2'283};
  EXPECT_EQ(c.backend, backend) << who;
  EXPECT_EQ(c.shard_hash, 0x003931f5b22800f9ull)
      << who << ": recorded 0x" << std::hex << c.shard_hash;
  EXPECT_EQ(c.latency_samples, 160u) << who;
  EXPECT_EQ(c.depth_samples, 176u) << who;
}

TEST(NetAccountingGolden, SimHealthExportAndMirror) {
  expect_health_recorded(capture_health("sim"), 9'583,
                         0xdad2d3f1ddd71604ull, "sim");
}

TEST(NetAccountingGolden, ParallelHealthExportAndMirror) {
  expect_health_recorded(capture_health("parallel"), 9'588,
                         0x5c104180f72c2208ull, "parallel");
}

TEST(NetAccountingGolden, InprocHealthExportAndMirror) {
  expect_health_recorded(capture_health("inproc"), 9'586,
                         0x45ce1596c8b51234ull, "inproc");
}

}  // namespace
}  // namespace cgp
