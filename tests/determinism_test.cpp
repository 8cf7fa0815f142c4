// The determinism auditor's own test: the engine promise (engine.h) that a
// given (programs, cost model, scenario) triple always yields identical
// RunStats, certified via RunStats::event_checksum.
//
// Replays run back-to-back serially and fanned out under soc::parallel_for
// (the bench sweeps' execution mode), and the checksums must be
// bit-identical in every case.  Also covers the parallel_for edge cases
// the sweeps rely on: count = 0, threads > count, and the documented
// rethrow-after-join path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "net/network.h"
#include "obs/observers.h"
#include "prof/profile.h"
#include "systems/machines.h"
#include "workloads/scenario.h"
#include "workloads/workload.h"

namespace soc {
namespace {

// Representative slice of the registry: GPU stencil, GPU dense linear
// algebra, a DNN, and two NPB communication patterns (all-to-all FT,
// sparse CG).
const char* const kAuditWorkloads[] = {"jacobi", "hpl", "alexnet", "ft", "cg"};

cluster::Cluster make_cluster(const workloads::Workload& w, int nodes) {
  const auto node = systems::jetson_tx1(net::NicKind::kTenGigabit);
  const int ranks = w.gpu_accelerated() ? nodes : 2 * nodes;
  return cluster::Cluster(cluster::ClusterConfig{node, nodes, ranks});
}

cluster::RunOptions quick() {
  cluster::RunOptions options;
  options.size_scale = 0.05;
  return options;
}

TEST(Determinism, ChecksumIsPopulated) {
  const auto w = workloads::make_workload("jacobi");
  const auto r = make_cluster(*w, 4).run(*w, quick());
  EXPECT_NE(r.stats.event_checksum, 0u);
  EXPECT_NE(r.stats.event_checksum, Fnv1a::kOffsetBasis);
  EXPECT_GT(r.stats.events_committed, 0u);
}

TEST(Determinism, SerialReplaysAreBitIdentical) {
  for (const char* name : kAuditWorkloads) {
    const auto w = workloads::make_workload(name);
    const auto cl = make_cluster(*w, 4);
    const auto a = cl.run(*w, quick());
    const auto b = cl.run(*w, quick());
    EXPECT_EQ(a.stats.event_checksum, b.stats.event_checksum) << name;
    EXPECT_EQ(a.stats.events_committed, b.stats.events_committed) << name;
    EXPECT_EQ(a.stats.makespan, b.stats.makespan) << name;
    EXPECT_EQ(a.stats.total_net_bytes, b.stats.total_net_bytes) << name;
  }
}

TEST(Determinism, ParallelForReplaysMatchSerial) {
  for (const char* name : kAuditWorkloads) {
    const auto w = workloads::make_workload(name);
    const auto cl = make_cluster(*w, 4);
    const auto serial = cl.run(*w, quick());

    constexpr std::size_t kReplicas = 8;
    std::vector<std::uint64_t> checksums(kReplicas, 0);
    std::vector<SimTime> makespans(kReplicas, 0);
    parallel_for(kReplicas, [&](std::size_t i) {
      const auto w2 = workloads::make_workload(name);
      const auto r = make_cluster(*w2, 4).run(*w2, quick());
      checksums[i] = r.stats.event_checksum;
      makespans[i] = r.stats.makespan;
    });
    for (std::size_t i = 0; i < kReplicas; ++i) {
      EXPECT_EQ(checksums[i], serial.stats.event_checksum)
          << name << " replica " << i;
      EXPECT_EQ(makespans[i], serial.stats.makespan)
          << name << " replica " << i;
    }
  }
}

// queue_reserve is a pure capacity hint: whatever the starting geometry
// of the event queue and pending tables (tiny → repeated growth, huge →
// never grows), the committed event stream must be bit-identical.
TEST(Determinism, QueueReserveDoesNotAffectChecksum) {
  for (const char* name : kAuditWorkloads) {
    const auto w = workloads::make_workload(name);
    const auto cl = make_cluster(*w, 4);
    const auto baseline = cl.run(*w, quick());
    for (const int reserve : {1, 4096}) {
      auto options = quick();
      options.engine.queue_reserve = reserve;
      const auto r = cl.run(*w, options);
      EXPECT_EQ(r.stats.event_checksum, baseline.stats.event_checksum)
          << name << " reserve=" << reserve;
      EXPECT_EQ(r.stats.events_committed, baseline.stats.events_committed)
          << name << " reserve=" << reserve;
      EXPECT_EQ(r.stats.makespan, baseline.stats.makespan)
          << name << " reserve=" << reserve;
    }
  }
}

// The metrics registry derives everything from the committed event stream,
// so it must inherit the engine's replay promise: registries from serial
// and parallel_for replays of one configuration compare equal, member by
// member, and render byte-identical JSON.
TEST(Determinism, MetricsRegistryIdenticalAcrossReplays) {
  auto run_with_metrics = [](const workloads::Workload& w) {
    obs::MetricsObserver observer;
    auto options = quick();
    options.observer = &observer;
    make_cluster(w, 4).run(w, options);
    return observer.registry();
  };

  const auto w = workloads::make_workload("jacobi");
  const obs::MetricsRegistry serial_a = run_with_metrics(*w);
  const obs::MetricsRegistry serial_b = run_with_metrics(*w);
  EXPECT_FALSE(serial_a.empty());
  EXPECT_GT(serial_a.counter("msg.eager") + serial_a.counter("msg.rendezvous"),
            0);
  EXPECT_TRUE(serial_a == serial_b);
  EXPECT_EQ(serial_a.json(), serial_b.json());

  constexpr std::size_t kReplicas = 4;
  std::vector<obs::MetricsRegistry> replicas(kReplicas);
  parallel_for(kReplicas, [&](std::size_t i) {
    const auto w2 = workloads::make_workload("jacobi");
    replicas[i] = run_with_metrics(*w2);
  });
  for (std::size_t i = 0; i < kReplicas; ++i) {
    EXPECT_TRUE(replicas[i] == serial_a) << "replica " << i;
  }
}

TEST(Determinism, ChecksumDistinguishesWorkloadsAndScenarios) {
  // Not a cryptographic claim — just that the digest actually depends on
  // the schedule: distinct workloads and scenario knobs produce distinct
  // streams on this fixed configuration.
  std::set<std::uint64_t> seen;
  for (const char* name : kAuditWorkloads) {
    const auto w = workloads::make_workload(name);
    seen.insert(make_cluster(*w, 4).run(*w, quick()).stats.event_checksum);
  }
  EXPECT_EQ(seen.size(), std::size(kAuditWorkloads));

  const auto w = workloads::make_workload("jacobi");
  auto scaled = quick();
  scaled.size_scale = 0.1;
  EXPECT_NE(make_cluster(*w, 4).run(*w, quick()).stats.event_checksum,
            make_cluster(*w, 4).run(*w, scaled).stats.event_checksum);
}

TEST(Determinism, ChecksumStableAcrossThreadCounts) {
  // The digest must not depend on how the host fans replicas out.
  const auto w = workloads::make_workload("ft");
  const auto serial = make_cluster(*w, 2).run(*w, quick());
  for (unsigned threads : {1u, 2u, 5u}) {
    std::vector<std::uint64_t> checksums(4, 0);
    parallel_for(
        checksums.size(),
        [&](std::size_t i) {
          const auto w2 = workloads::make_workload("ft");
          checksums[i] =
              make_cluster(*w2, 2).run(*w2, quick()).stats.event_checksum;
        },
        threads);
    for (std::uint64_t c : checksums) {
      EXPECT_EQ(c, serial.stats.event_checksum) << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Golden checksums: the committed event stream of every registered
// workload under every scenario family, pinned as literals.  Any change to
// the engine, the workloads, the scenario decorators or the cost model
// that moves one committed event fails here.  Regenerate only for an
// intended change of simulated behaviour: the failure message prints the
// replacement row.
// ---------------------------------------------------------------------------

struct GoldenRow {
  const char* workload;
  const char* scenario;
  std::uint64_t checksum;
  std::uint64_t events;
};

// 4 nodes, size_scale 0.05, 10GbE TX1 (one rank per node for GPU
// workloads, two otherwise).
constexpr GoldenRow kGolden[] = {
    {"hpl", "none", 0x0836be82b2ab38c7ULL, 688ULL},
    {"hpl", "fault", 0xdba14e40e3e1fc84ULL, 689ULL},
    {"hpl", "noise", 0xdaada527be5318eeULL, 1350ULL},
    {"hpl", "checkpoint", 0x97e1a7ca1d878088ULL, 768ULL},
    {"jacobi", "none", 0x31f713be717e461dULL, 39244ULL},
    {"jacobi", "fault", 0x539d1088573bb302ULL, 39245ULL},
    {"jacobi", "noise", 0xe8e8b372ba8b74c3ULL, 48958ULL},
    {"jacobi", "checkpoint", 0x6ebf36e06d75dea9ULL, 39268ULL},
    {"cloverleaf", "none", 0x4e94c096e30c16d4ULL, 56204ULL},
    {"cloverleaf", "fault", 0xc67a25f2b3700c6fULL, 56205ULL},
    {"cloverleaf", "noise", 0x812fde4ca95b1c4bULL, 83516ULL},
    {"cloverleaf", "checkpoint", 0x63a1a5fe8b863ee7ULL, 56300ULL},
    {"tealeaf2d", "none", 0xe4e2ac6b188b9dcaULL, 153844ULL},
    {"tealeaf2d", "fault", 0x4afee82c368f140eULL, 153846ULL},
    {"tealeaf2d", "noise", 0xd445ddb851ff1a40ULL, 175551ULL},
    {"tealeaf2d", "checkpoint", 0x4cc253a30e9527d9ULL, 153884ULL},
    {"tealeaf3d", "none", 0x82afa2a9f8139ffeULL, 153844ULL},
    {"tealeaf3d", "fault", 0xf0c1bd94f80f51dfULL, 153846ULL},
    {"tealeaf3d", "noise", 0xce943771559e4fcdULL, 182439ULL},
    {"tealeaf3d", "checkpoint", 0xee62cbad0a9e8cc4ULL, 153900ULL},
    {"alexnet", "none", 0xb7a34e53ebf3fbc9ULL, 384ULL},
    {"alexnet", "fault", 0xa712ecd84cd418aeULL, 385ULL},
    {"alexnet", "noise", 0x5c6bf81edb1a6571ULL, 772ULL},
    {"alexnet", "checkpoint", 0x951c06dd3f8b84d5ULL, 388ULL},
    {"googlenet", "none", 0x17f3c98b6d8da061ULL, 1184ULL},
    {"googlenet", "fault", 0x4e59f3f515b58090ULL, 1185ULL},
    {"googlenet", "noise", 0x869f532dae8a6d7bULL, 1819ULL},
    {"googlenet", "checkpoint", 0x74fa67dd05d06ebdULL, 1188ULL},
    {"bt", "none", 0x320fb4269f011ea8ULL, 11416ULL},
    {"bt", "fault", 0x7e1523a306f61ca3ULL, 11418ULL},
    {"bt", "noise", 0xe66c5926c065b9b3ULL, 15402ULL},
    {"bt", "checkpoint", 0x519ce2e59d482b60ULL, 11512ULL},
    {"cg", "none", 0xfb7f319413a1574cULL, 286560ULL},
    {"cg", "fault", 0x8c9589c1b4555630ULL, 286563ULL},
    {"cg", "noise", 0xccc5c3022314faedULL, 323348ULL},
    {"cg", "checkpoint", 0x25d060ca8e1ad4dcULL, 286648ULL},
    {"ep", "none", 0x8a327551969be9ccULL, 200ULL},
    {"ep", "fault", 0x3967f5d0066a9513ULL, 202ULL},
    {"ep", "noise", 0xbadfc2cd5c0fbedbULL, 370ULL},
    {"ep", "checkpoint", 0xa65da805ba3ee344ULL, 328ULL},
    {"ft", "none", 0x39f06e0231363960ULL, 2472ULL},
    {"ft", "fault", 0x3f5ee32935627ea6ULL, 2474ULL},
    {"ft", "noise", 0xbe69f3927932f762ULL, 5079ULL},
    {"ft", "checkpoint", 0xb6d46244ad2a360bULL, 2616ULL},
    {"is", "none", 0xcf5f72181d7b8b0fULL, 1264ULL},
    {"is", "fault", 0x86efd6cd3586f7e4ULL, 1266ULL},
    {"is", "noise", 0x738955ddabd04f2dULL, 2296ULL},
    {"is", "checkpoint", 0x00c817d92698fe76ULL, 1296ULL},
    {"lu", "none", 0x7abb49f965cae62bULL, 15256ULL},
    {"lu", "fault", 0x64ddee382177958dULL, 15258ULL},
    {"lu", "noise", 0x23b72eaebf30066dULL, 28034ULL},
    {"lu", "checkpoint", 0x5d5ffc231e3176eeULL, 15448ULL},
    {"mg", "none", 0xeb6523a0c7e747f1ULL, 11144ULL},
    {"mg", "fault", 0x5399e3aeed88e5a4ULL, 11146ULL},
    {"mg", "noise", 0x7bcf593028d7951dULL, 13009ULL},
    {"mg", "checkpoint", 0x9bcb53ff90887199ULL, 11200ULL},
    {"sp", "none", 0x578e34f61cb72edbULL, 22776ULL},
    {"sp", "fault", 0xafa3c2df52ef5f1cULL, 22778ULL},
    {"sp", "noise", 0x5cce8f72034734fcULL, 29686ULL},
    {"sp", "checkpoint", 0x219eb1fc093bd0d0ULL, 22880ULL},
};

workloads::ScenarioConfig golden_scenario(const std::string& name) {
  if (name == "fault") {
    return workloads::parse_scenario(
        "straggler:rank=1,slowdown=2.5;node-crash:node=2,t=0.002,down=0.003;"
        "link-flap:node=3,t0=0.001,t1=0.004",
        "", "");
  }
  if (name == "noise") {
    return workloads::parse_scenario(
        "", "interval=0.003,duration=0.0005,seed=7,jitter=0.25", "");
  }
  if (name == "checkpoint") {
    return workloads::parse_scenario("", "", "daly:size=1e8,bw=5e9,mtti=30");
  }
  return {};
}

const char* const kGoldenScenarios[] = {"none", "fault", "noise",
                                        "checkpoint"};

// One golden configuration: 4 nodes of the kGolden table's cluster.
cluster::RunRequest golden_request(const workloads::Workload& w,
                                   const char* scenario) {
  constexpr int kNodes = 4;
  cluster::RunRequest request;
  request.workload = w.name();
  request.workload_ref = &w;
  request.config = cluster::ClusterConfig{
      systems::jetson_tx1(net::NicKind::kTenGigabit), kNodes,
      w.gpu_accelerated() ? kNodes : 2 * kNodes};
  request.options = quick();
  request.scenario = golden_scenario(scenario);
  return request;
}

TEST(Determinism, GoldenChecksumsAllWorkloadsAndScenarios) {
  std::size_t row = 0;
  for (const std::string& name : workloads::list()) {
    for (const char* scenario : kGoldenScenarios) {
      const auto w = workloads::make_workload(name);
      const auto r = cluster::run(golden_request(*w, scenario));
      char expected[160];
      std::snprintf(expected, sizeof expected,
                    "{\"%s\", \"%s\", 0x%016llxULL, %lluULL},",
                    name.c_str(), scenario,
                    static_cast<unsigned long long>(r.stats.event_checksum),
                    static_cast<unsigned long long>(r.stats.events_committed));
      ASSERT_LT(row, std::size(kGolden)) << "missing row " << expected;
      const GoldenRow& g = kGolden[row++];
      EXPECT_EQ(name, g.workload) << expected;
      EXPECT_STREQ(scenario, g.scenario) << expected;
      EXPECT_EQ(r.stats.event_checksum, g.checksum) << expected;
      EXPECT_EQ(r.stats.events_committed, g.events) << expected;
    }
  }
  EXPECT_EQ(row, std::size(kGolden));
}

struct UncontendedRow {
  const char* workload;
  const char* scenario;
  SimTime makespan;
};

// prof::Profile::uncontended on every golden configuration, in the
// kGolden order.  Unlike the ideals, the uncontended lanes have no replay
// twin, so its makespans (GPU, copy, NIC and switch-port queueing
// removed) are pinned as literals.
constexpr UncontendedRow kUncontended[] = {
    {"hpl", "none", 26110702537LL},
    {"hpl", "fault", 58784162306LL},
    {"hpl", "noise", 26209702537LL},
    {"hpl", "checkpoint", 26530702537LL},
    {"jacobi", "none", 7088463337LL},
    {"jacobi", "fault", 16560113969LL},
    {"jacobi", "noise", 8934735350LL},
    {"jacobi", "checkpoint", 7208463337LL},
    {"cloverleaf", "none", 26610468179LL},
    {"cloverleaf", "fault", 65633350519LL},
    {"cloverleaf", "noise", 30709397579LL},
    {"cloverleaf", "checkpoint", 27110449141LL},
    {"tealeaf2d", "none", 11843769600LL},
    {"tealeaf2d", "fault", 25864636619LL},
    {"tealeaf2d", "noise", 16865840409LL},
    {"tealeaf2d", "checkpoint", 12043769600LL},
    {"tealeaf3d", "none", 15183336291LL},
    {"tealeaf3d", "fault", 29426443019LL},
    {"tealeaf3d", "noise", 21894202882LL},
    {"tealeaf3d", "checkpoint", 15463336291LL},
    {"alexnet", "none", 1675835250LL},
    {"alexnet", "fault", 4189588135LL},
    {"alexnet", "noise", 1726335250LL},
    {"alexnet", "checkpoint", 1695835250LL},
    {"googlenet", "none", 2144933223LL},
    {"googlenet", "fault", 5362333122LL},
    {"googlenet", "noise", 2226433223LL},
    {"googlenet", "checkpoint", 2164933223LL},
    {"bt", "none", 13200872398LL},
    {"bt", "fault", 30991552798LL},
    {"bt", "noise", 13675499893LL},
    {"bt", "checkpoint", 13440872398LL},
    {"cg", "none", 12489697587LL},
    {"cg", "fault", 22287497549LL},
    {"cg", "noise", 17865996927LL},
    {"cg", "checkpoint", 12828241207LL},
    {"ep", "none", 32466475017LL},
    {"ep", "fault", 79627571235LL},
    {"ep", "noise", 32478475017LL},
    {"ep", "checkpoint", 32786475017LL},
    {"ft", "none", 18908119978LL},
    {"ft", "fault", 43608562558LL},
    {"ft", "noise", 19105560762LL},
    {"ft", "checkpoint", 19288119978LL},
    {"is", "none", 4315436868LL},
    {"is", "fault", 9399895008LL},
    {"is", "noise", 4398881674LL},
    {"is", "checkpoint", 4448623650LL},
    {"lu", "none", 24873437548LL},
    {"lu", "fault", 34906568421LL},
    {"lu", "noise", 29205382354LL},
    {"lu", "checkpoint", 26753437548LL},
    {"mg", "none", 8146191456LL},
    {"mg", "fault", 19974743399LL},
    {"mg", "noise", 8407076903LL},
    {"mg", "checkpoint", 8326191456LL},
    {"sp", "none", 14558323702LL},
    {"sp", "fault", 34549909998LL},
    {"sp", "noise", 15240797483LL},
    {"sp", "checkpoint", 14878268658LL},
};

// The single-pass what-ifs re-run the engine on the recorded trace; on
// every golden configuration they must land exactly on the makespans of
// the replay-based scenarios (stream form: the ideals replay the op
// sequence the measured run committed, scenario stalls included).
TEST(Determinism, WhatIfReRunsMatchReplaysOnGoldenSet) {
  std::size_t row = 0;
  for (const std::string& name : workloads::list()) {
    for (const char* scenario : kGoldenScenarios) {
      const std::string what = name + "/" + scenario;
      const auto w = workloads::make_workload(name);
      cluster::RunRequest request = golden_request(*w, scenario);
      const trace::ScenarioRuns runs = cluster::replay_scenarios(request);
      prof::Profile profile;
      request.profile = &profile;
      const auto r = cluster::run(request);
      ASSERT_EQ(r.stats.event_checksum, runs.measured.event_checksum) << what;
      // The profile carries prof::evaluate() under the measured,
      // ideal-network and ideal-balance scenarios.
      EXPECT_EQ(profile.measured_eval, r.stats.makespan) << what;
      EXPECT_EQ(profile.ideal_network, runs.ideal_network.makespan) << what;
      EXPECT_EQ(profile.ideal_balance, runs.ideal_balance.makespan) << what;
      ASSERT_LT(row, std::size(kUncontended)) << "missing row " << what;
      const UncontendedRow& u = kUncontended[row++];
      EXPECT_EQ(name, u.workload) << what;
      EXPECT_STREQ(scenario, u.scenario) << what;
      EXPECT_EQ(profile.uncontended, u.makespan) << what;
    }
  }
  EXPECT_EQ(row, std::size(kUncontended));
}

// ---------------------------------------------------------------------------
// soc::parallel_for edge cases (the sweeps' fan-out primitive).
// ---------------------------------------------------------------------------

TEST(ParallelFor, CountZeroNeverInvokesBody) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, MoreThreadsThanTasksCoversEveryIndexOnce) {
  constexpr std::size_t kCount = 3;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, [&](std::size_t i) { ++hits[i]; }, /*threads=*/16);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, ThrowingTaskRethrownAfterJoin) {
  std::atomic<int> completed{0};
  try {
    parallel_for(
        16,
        [&](std::size_t i) {
          if (i == 5) throw Error("task 5 failed");
          ++completed;
        },
        /*threads=*/4);
    FAIL() << "expected soc::Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "task 5 failed");
  }
  // Every non-throwing task still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 15);
}

TEST(ParallelFor, NullBodyRejected) {
  EXPECT_THROW(parallel_for(4, std::function<void(std::size_t)>{}), Error);
}

TEST(Fnv1a, OrderSensitiveAndStable) {
  Fnv1a ab;
  ab.mix_u64(1).mix_u64(2);
  Fnv1a ba;
  ba.mix_u64(2).mix_u64(1);
  EXPECT_NE(ab.value(), ba.value());

  // Golden value: FNV-1a of eight zero bytes must never drift, or recorded
  // checksums from earlier runs become incomparable.
  Fnv1a zero;
  zero.mix_u64(0);
  EXPECT_EQ(zero.value(), 0xA8C7F832281A39C5ull);
  Fnv1a empty;
  EXPECT_EQ(empty.value(), Fnv1a::kOffsetBasis);
}

}  // namespace
}  // namespace soc
