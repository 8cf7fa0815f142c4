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

cluster::RunOptions quick() {
  cluster::RunOptions options;
  options.size_scale = 0.05;
  return options;
}

/// One run of `w` on `nodes` TX1 nodes (one rank per node for GPU codes,
/// two for NPB).
cluster::RunResult run_on(const workloads::Workload& w, int nodes,
                          const cluster::RunOptions& options = quick()) {
  cluster::RunRequest request;
  request.workload_ref = &w;
  request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), nodes,
                    w.gpu_accelerated() ? nodes : 2 * nodes};
  request.options = options;
  return cluster::run(request);
}

TEST(Determinism, ChecksumIsPopulated) {
  const auto w = workloads::make_workload("jacobi");
  const auto r = run_on(*w, 4);
  EXPECT_NE(r.stats.event_checksum, 0u);
  EXPECT_NE(r.stats.event_checksum, Fnv1a::kOffsetBasis);
  EXPECT_GT(r.stats.events_committed, 0u);
}

TEST(Determinism, SerialReplaysAreBitIdentical) {
  for (const char* name : kAuditWorkloads) {
    const auto w = workloads::make_workload(name);
    const auto a = run_on(*w, 4);
    const auto b = run_on(*w, 4);
    EXPECT_EQ(a.stats.event_checksum, b.stats.event_checksum) << name;
    EXPECT_EQ(a.stats.events_committed, b.stats.events_committed) << name;
    EXPECT_EQ(a.stats.makespan, b.stats.makespan) << name;
    EXPECT_EQ(a.stats.total_net_bytes, b.stats.total_net_bytes) << name;
  }
}

TEST(Determinism, ParallelForReplaysMatchSerial) {
  for (const char* name : kAuditWorkloads) {
    const auto w = workloads::make_workload(name);
    const auto serial = run_on(*w, 4);

    constexpr std::size_t kReplicas = 8;
    std::vector<std::uint64_t> checksums(kReplicas, 0);
    std::vector<SimTime> makespans(kReplicas, 0);
    parallel_for(kReplicas, [&](std::size_t i) {
      const auto w2 = workloads::make_workload(name);
      const auto r = run_on(*w2, 4);
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

// The metrics registry derives everything from the committed event stream,
// so it must inherit the engine's replay promise: registries from serial
// and parallel_for replays of one configuration compare equal, member by
// member, and render byte-identical JSON.
TEST(Determinism, MetricsRegistryIdenticalAcrossReplays) {
  auto run_with_metrics = [](const workloads::Workload& w) {
    obs::MetricsObserver observer;
    auto options = quick();
    options.observer = &observer;
    run_on(w, 4, options);
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
    seen.insert(run_on(*w, 4).stats.event_checksum);
  }
  EXPECT_EQ(seen.size(), std::size(kAuditWorkloads));

  const auto w = workloads::make_workload("jacobi");
  auto scaled = quick();
  scaled.size_scale = 0.1;
  EXPECT_NE(run_on(*w, 4).stats.event_checksum,
            run_on(*w, 4, scaled).stats.event_checksum);
}

TEST(Determinism, ChecksumStableAcrossThreadCounts) {
  // The digest must not depend on how the host fans replicas out.
  const auto w = workloads::make_workload("ft");
  const auto serial = run_on(*w, 2);
  for (unsigned threads : {1u, 2u, 5u}) {
    std::vector<std::uint64_t> checksums(4, 0);
    parallel_for(
        checksums.size(),
        [&](std::size_t i) {
          const auto w2 = workloads::make_workload("ft");
          checksums[i] = run_on(*w2, 2).stats.event_checksum;
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
  std::uint64_t trace_digest;     ///< trace_digest() of the RunTrace.
  std::uint64_t artifact_digest;  ///< profile_json + folded_stacks text.
};

void mix_message(Fnv1a& h, const sim::MessageRecord& m) {
  h.mix_byte(m.eager ? 1 : 0).mix_byte(m.inter_node ? 1 : 0);
  for (const std::int64_t v :
       {std::int64_t{m.src_rank}, std::int64_t{m.dst_rank},
        std::int64_t{m.phase}, std::int64_t{m.tag}, m.bytes, m.start, m.end,
        m.latency, m.delivery, m.sender_complete}) {
    h.mix_i64(v);
  }
}

// Every field of the reconstructed trace that the attribution, what-if
// and energy passes read: the ops with their windows and matching edges,
// the committed messages, and the per-rank drain times and overheads.
std::uint64_t trace_digest(const prof::RunTrace& t) {
  Fnv1a h;
  h.mix_u64(t.ops.size());
  for (const prof::OpExec& op : t.ops) {
    h.mix_byte(static_cast<std::uint8_t>(op.kind));
    for (const std::int64_t v :
         {std::int64_t{op.rank}, std::int64_t{op.node}, std::int64_t{op.phase},
          std::int64_t{op.peer}, std::int64_t{op.tag}, std::int64_t{op.pc},
          op.bytes, op.dispatch, op.complete, op.busy_start, op.busy_end,
          std::int64_t{op.msg}, std::int64_t{op.partner}, op.partner_ready,
          std::int64_t{op.determinant}}) {
      h.mix_i64(v);
    }
  }
  h.mix_u64(t.messages.size());
  for (const sim::MessageRecord& m : t.messages) mix_message(h, m);
  for (const std::vector<SimTime>* v :
       {&t.finish, &t.send_overhead, &t.recv_overhead}) {
    h.mix_u64(v->size());
    for (const SimTime x : *v) h.mix_i64(x);
  }
  return h.value();
}

std::uint64_t text_digest(const std::string& text) {
  Fnv1a h;
  for (const char c : text) h.mix_byte(static_cast<std::uint8_t>(c));
  return h.value();
}

// prof::Profile::uncontended on every golden configuration, in the
// kGolden order.  Unlike the ideals, the uncontended lanes have no replay
// twin, so its makespans (GPU, copy, NIC and switch-port queueing
// removed) are pinned as literals.  The two digests pin the whole
// reconstructed trace (every matching edge included) and the profile
// artifacts, so a change to how the profiler binds endpoints shows here.
constexpr UncontendedRow kUncontended[] = {
    {"hpl", "none", 26110702537LL,
     0xd03fbe3b33d842edULL, 0xc42cf0f971d917e5ULL},
    {"hpl", "fault", 58784162306LL,
     0x2fd8ea272cdd931dULL, 0xcf2de02574c5f5c5ULL},
    {"hpl", "noise", 26209702537LL,
     0xf58d753fa75c3b0cULL, 0x5b350ca4a3d7248cULL},
    {"hpl", "checkpoint", 26530702537LL,
     0x844df90da8f48f57ULL, 0x1b0d753ddf54c9c1ULL},
    {"jacobi", "none", 7088463337LL,
     0x69bc070977bfd26eULL, 0x954ad7e48a6876f5ULL},
    {"jacobi", "fault", 16560113969LL,
     0x32089bec964f155dULL, 0x604073ee253c4a61ULL},
    {"jacobi", "noise", 8934735350LL,
     0x9c4ca6c34c42b44cULL, 0x5205d00c14459596ULL},
    {"jacobi", "checkpoint", 7208463337LL,
     0x75ae33c7d04c9ec1ULL, 0xd305285ae0693aaaULL},
    {"cloverleaf", "none", 26610468179LL,
     0x270dc6cb2a5bbe44ULL, 0xc37510f69eb39a74ULL},
    {"cloverleaf", "fault", 65633350519LL,
     0x2ec032afc433a965ULL, 0x6f4c31b0a4ce179bULL},
    {"cloverleaf", "noise", 30709397579LL,
     0xe9c1d55a2c744292ULL, 0x81a1e8539db14876ULL},
    {"cloverleaf", "checkpoint", 27110449141LL,
     0x561ee49ca72e8f98ULL, 0xee7115ed141a9698ULL},
    {"tealeaf2d", "none", 11843769600LL,
     0x421d4a945c755888ULL, 0x92108f8a9330eff8ULL},
    {"tealeaf2d", "fault", 25864636619LL,
     0x5182f188903b960dULL, 0xfcdd6778d1baee70ULL},
    {"tealeaf2d", "noise", 16865840409LL,
     0x207a3c876f528d0eULL, 0x8cd971b6b3888701ULL},
    {"tealeaf2d", "checkpoint", 12043769600LL,
     0x09a0d867513282d1ULL, 0x587e4c31fd817dfeULL},
    {"tealeaf3d", "none", 15183336291LL,
     0xfc00535c09fdc663ULL, 0x2e392fdb68e772ccULL},
    {"tealeaf3d", "fault", 29426443019LL,
     0xe89e6311b4f032ebULL, 0x7b2135b3327c6056ULL},
    {"tealeaf3d", "noise", 21894202882LL,
     0x0621d342eb7509b7ULL, 0xac8de72f2e7bfea2ULL},
    {"tealeaf3d", "checkpoint", 15463336291LL,
     0xbed50a42aeb6e637ULL, 0x638fe6a4a33d97d2ULL},
    {"alexnet", "none", 1675835250LL,
     0x7a8e408186d461aeULL, 0x968b82f3b6b3a6e7ULL},
    {"alexnet", "fault", 4189588135LL,
     0x660c75fe01fe8616ULL, 0xe8ee200f0bc26cf1ULL},
    {"alexnet", "noise", 1726335250LL,
     0x5ed6454cfa909d0aULL, 0x0efefe782c199470ULL},
    {"alexnet", "checkpoint", 1695835250LL,
     0x29340824d9936fb6ULL, 0xe151ea3f6c1af0b9ULL},
    {"googlenet", "none", 2144933223LL,
     0x5cbd051f62ed9559ULL, 0x2b7c87e0033cf458ULL},
    {"googlenet", "fault", 5362333122LL,
     0x5778bb2d61c80ddaULL, 0x59ad40c84cb0ac73ULL},
    {"googlenet", "noise", 2226433223LL,
     0x13aa69205c9454baULL, 0x1efb4f0033b91743ULL},
    {"googlenet", "checkpoint", 2164933223LL,
     0x09a2d70961f53a25ULL, 0x79103b3c4ff02e9aULL},
    {"bt", "none", 13200872398LL,
     0xec3e86695071fe3aULL, 0x7fd0e166465f4a13ULL},
    {"bt", "fault", 30991552798LL,
     0x144c25bf808e4d54ULL, 0x5481f055115a3934ULL},
    {"bt", "noise", 13675499893LL,
     0x165505d0d8ff3fa5ULL, 0xd86a9296a02c9ccdULL},
    {"bt", "checkpoint", 13440872398LL,
     0x7733e40072b659e8ULL, 0x46e1a75f7b902458ULL},
    {"cg", "none", 12489697587LL,
     0x5750bb76c3196300ULL, 0x15a50cfe65dc27bbULL},
    {"cg", "fault", 22287497549LL,
     0x7869d8510e02748fULL, 0x86770e9c53f8938bULL},
    {"cg", "noise", 17865996927LL,
     0xac24ebfa4e201e27ULL, 0xdb060d6c0e31c059ULL},
    {"cg", "checkpoint", 12828241207LL,
     0x8714087be91be464ULL, 0x3b93f91c1051e3f8ULL},
    {"ep", "none", 32466475017LL,
     0xa7cb79be452e2460ULL, 0xe7cd0bce601e6745ULL},
    {"ep", "fault", 79627571235LL,
     0x9956849ff34b06ddULL, 0xaa1a842ed878fa34ULL},
    {"ep", "noise", 32478475017LL,
     0x4e430afcb69efcc4ULL, 0x142fe660afe9798eULL},
    {"ep", "checkpoint", 32786475017LL,
     0xa3b440afbb76d632ULL, 0x044ed22b336d2726ULL},
    {"ft", "none", 18908119978LL,
     0xe92a2a9bec6b54efULL, 0x93c7637e05eee3eeULL},
    {"ft", "fault", 43608562558LL,
     0x9dee06533b61d969ULL, 0x52ecb5a9a3730c0cULL},
    {"ft", "noise", 19105560762LL,
     0xe208cd816186ad53ULL, 0xf5e2497c98e340cbULL},
    {"ft", "checkpoint", 19288119978LL,
     0x639a46b155547507ULL, 0xd5603d5ff4166e92ULL},
    {"is", "none", 4315436868LL,
     0x28e2ebae053575cdULL, 0x1554203597e7aea0ULL},
    {"is", "fault", 9399895008LL,
     0x06f121fd5a8010b8ULL, 0x4ae2519a9a5bc890ULL},
    {"is", "noise", 4398881674LL,
     0x362991895a546b0cULL, 0xd21ada0fbaaa9b13ULL},
    {"is", "checkpoint", 4448623650LL,
     0xb8876eadf75419cbULL, 0x580c84d52583a479ULL},
    {"lu", "none", 24873437548LL,
     0x73143d1861c233ffULL, 0x499d6ca798e9fc6fULL},
    {"lu", "fault", 34906568421LL,
     0x420e225ac3f5724aULL, 0x7e2d7f947802eaf3ULL},
    {"lu", "noise", 29205382354LL,
     0x3acd251edbfcc0c8ULL, 0xe2ad3c90f32ca197ULL},
    {"lu", "checkpoint", 26753437548LL,
     0x09e7de427065fb57ULL, 0x8cc9148833996133ULL},
    {"mg", "none", 8146191456LL,
     0x56a98bd5a8f4dd7eULL, 0x8ae7edc586fdaa7fULL},
    {"mg", "fault", 19974743399LL,
     0x961bb1a0107cb5bcULL, 0x59389c06652efb78ULL},
    {"mg", "noise", 8407076903LL,
     0xe7d63e82b4d2ad73ULL, 0xad5317a4b2ae1c2bULL},
    {"mg", "checkpoint", 8326191456LL,
     0x96a4659e18e618d8ULL, 0xa3777f8bedf7db5dULL},
    {"sp", "none", 14558323702LL,
     0x98923a679322f415ULL, 0x1870f1809e7087e4ULL},
    {"sp", "fault", 34549909998LL,
     0x5cac1c92ddbc54faULL, 0x425391004a9680f7ULL},
    {"sp", "noise", 15240797483LL,
     0x216c5a34d0aa0269ULL, 0xe9efc43d515489e2ULL},
    {"sp", "checkpoint", 14878268658LL,
     0xccc8c7adb578c99cULL, 0x72a5a7d95df3c3eaULL},
};

// cluster::replay_scenarios on every golden configuration, in the kGolden
// order: the event checksum and makespan of the ideal-network and the
// ideal-balance replays.  These pin the re-timed op streams themselves,
// not only their agreement with prof::evaluate, so a change to how the
// replays obtain their ops (recorded or re-pulled) shows here.
struct ReplayIdealsRow {
  const char* workload;
  const char* scenario;
  std::uint64_t ideal_network_checksum;
  SimTime ideal_network_makespan;
  std::uint64_t ideal_balance_checksum;
  SimTime ideal_balance_makespan;
};

constexpr ReplayIdealsRow kReplayIdeals[] = {
    {"hpl", "none", 0x13c4f28af128c8f8ULL, 21847642132LL,
     0xfec0d4fca751dd30ULL, 25841838220LL},
    {"hpl", "fault", 0xdf167c9eb70ed61cULL, 54619105344LL,
     0xc165f3c253ba58e6ULL, 34035568723LL},
    {"hpl", "noise", 0x94c599deac6b21f5ULL, 21939142132LL,
     0x1f43b9574214b68fULL, 25944262644LL},
    {"hpl", "checkpoint", 0x265b075ac973864eULL, 22287642132LL,
     0xc0a0d0e873bcd28fULL, 26284144787LL},
    {"jacobi", "none", 0xfab8050ae955791eULL, 6342521700LL,
     0x2dd947200dd010c6ULL, 7007050887LL},
    {"jacobi", "fault", 0x9480932a5b94f74aULL, 15787313250LL,
     0xc0869f7ae6aec336ULL, 9381592340LL},
    {"jacobi", "noise", 0xdb9769fe51caf1ecULL, 8215975812LL,
     0x0a3d8d1747508e6fULL, 8945355923LL},
    {"jacobi", "checkpoint", 0x6833bf57ec20ea2eULL, 6462521700LL,
     0xba7026adee4ead05ULL, 7131424072LL},
    {"cloverleaf", "none", 0xbc3c6817d3513e59ULL, 26024090500LL,
     0x7709ca1a9a445f6fULL, 26623874548LL},
    {"cloverleaf", "fault", 0x4308c2669ea7a699ULL, 65042152500LL,
     0x1a3b833f7c43dfe7ULL, 36384515196LL},
    {"cloverleaf", "noise", 0xf124af3b13b1bca5ULL, 30120872575LL,
     0x9f6e869957a2c7a1ULL, 30713315449LL},
    {"cloverleaf", "checkpoint", 0x143d12879b86ac15ULL, 26524006783LL,
     0xd764478e2d035f1fULL, 27123811461LL},
    {"tealeaf2d", "none", 0x9842d93be6063fb3ULL, 9957002400LL,
     0x6d95021f22691e23ULL, 11556566400LL},
    {"tealeaf2d", "fault", 0xd12e4be0dbfc3037ULL, 24109860000LL,
     0x0ac2007494e1917eULL, 15179890981LL},
    {"tealeaf2d", "noise", 0xbee3e31ac0217bdbULL, 15178391565LL,
     0xa2753946c31acb34ULL, 16678580232LL},
    {"tealeaf2d", "checkpoint", 0x8cff3617c75acbc1ULL, 10157002400LL,
     0x54177ffc160432b8ULL, 11775180026LL},
    {"tealeaf3d", "none", 0x0142f9209735364dULL, 9777600000LL,
     0xa326888a7d0e3d7fULL, 15130365163LL},
    {"tealeaf3d", "fault", 0xde8daa4eac0e4462ULL, 24082908000LL,
     0x6ceb8e4780a261dbULL, 18743475037LL},
    {"tealeaf3d", "noise", 0x63664bc439dd41a1ULL, 16605156392LL,
     0xa4f6c0fdb87891e2ULL, 21852519766LL},
    {"tealeaf3d", "checkpoint", 0xf3e2a03c521297faULL, 10057600000LL,
     0x2719d1277105466aULL, 15415512498LL},
    {"alexnet", "none", 0xb7a34e53ebf3fbc9ULL, 1675835250LL,
     0xb7a34e53ebf3fbc9ULL, 1675835250LL},
    {"alexnet", "fault", 0xa712ecd84cd418aeULL, 4189588135LL,
     0xa273725dc764a636ULL, 2305024913LL},
    {"alexnet", "noise", 0x5c6bf81edb1a6571ULL, 1726335250LL,
     0x29f46a4e41ad1856ULL, 1724339060LL},
    {"alexnet", "checkpoint", 0x951c06dd3f8b84d5ULL, 1695835250LL,
     0x951c06dd3f8b84d5ULL, 1695835250LL},
    {"googlenet", "none", 0x17f3c98b6d8da061ULL, 2144933223LL,
     0x17f3c98b6d8da061ULL, 2144933223LL},
    {"googlenet", "fault", 0x4e59f3f515b58090ULL, 5362333122LL,
     0x35fa5d12d873d41eULL, 2950034349LL},
    {"googlenet", "noise", 0x869f532dae8a6d7bULL, 2226433223LL,
     0xc88f53e0b2a93b42ULL, 2224312429LL},
    {"googlenet", "checkpoint", 0x74fa67dd05d06ebdULL, 2164933223LL,
     0x74fa67dd05d06ebdULL, 2164933223LL},
    {"bt", "none", 0xac7a0423eb62cf28ULL, 13105607600LL,
     0xa210fa59528160e4ULL, 12840339370LL},
    {"bt", "fault", 0xccbe85d590a8337dULL, 30896288000LL,
     0x1264447727b13018ULL, 15161783643LL},
    {"bt", "noise", 0x318696d1b56ddc55ULL, 13580292300LL,
     0x3e1ddf636d0ae0fdULL, 13371676213LL},
    {"bt", "checkpoint", 0x766cd1b5bce20ce6ULL, 13345607600LL,
     0x5b47c544e059b39eULL, 13091916302LL},
    {"cg", "none", 0xb0725139fcf3113fULL, 11605581375LL,
     0x00a3589dd4654f10ULL, 10759817606LL},
    {"cg", "fault", 0xd58acf6a70de5375ULL, 20948548875LL,
     0x6a8d194756d9fbdeULL, 12330991999LL},
    {"cg", "noise", 0xc8351c96e606e999ULL, 17027459992LL,
     0x4dc5d9aca76a2d46ULL, 16859006332LL},
    {"cg", "checkpoint", 0x8aa769e522373036ULL, 11943882359LL,
     0x2fbaeba4312447b3ULL, 11118209039LL},
    {"ep", "none", 0xd57aeecb2935b052ULL, 32466307424LL,
     0x4a96167d5e88a2a2ULL, 32051621333LL},
    {"ep", "fault", 0xed14c4cb404146e2ULL, 79627348448LL,
     0xebadf2023c37470aULL, 38024421573LL},
    {"ep", "noise", 0x7a1a389ad6633d74ULL, 32478307424LL,
     0xae5f72e308da9b50ULL, 32064172821LL},
    {"ep", "checkpoint", 0x4358d578902051deULL, 32786307424LL,
     0xc80647e95cfb7a6aULL, 32371621333LL},
    {"ft", "none", 0x90eee358b7f708d2ULL, 17015381980LL,
     0x2ca107a09ef9774eULL, 19216423030LL},
    {"ft", "fault", 0x68bc4d4b378116a8ULL, 41715824560LL,
     0xe2ac5c71e6b0fa3aULL, 22349351806LL},
    {"ft", "noise", 0x9323a6f34a673a26ULL, 17212881980LL,
     0x46a9d2879aa9a446ULL, 19415449466LL},
    {"ft", "checkpoint", 0xa734b906cf0b3e0eULL, 17395381980LL,
     0xabcca8e54a69bdbbULL, 19589462059LL},
    {"is", "none", 0xf9d7d7129cb2bf89ULL, 4073667910LL,
     0x9cfacbcfcafb890fULL, 4101130330LL},
    {"is", "fault", 0xd1f582413d1780b6ULL, 9158126050LL,
     0x8b6211c66ac81d13ULL, 4792115203LL},
    {"is", "noise", 0xd989c6803e9a9069ULL, 4157167910LL,
     0x71e007e79eb6c7b4ULL, 4181991918LL},
    {"is", "checkpoint", 0x4b438ba8617c8d86ULL, 4206854692LL,
     0x2ff7960ce6f2a415ULL, 4240200898LL},
    {"lu", "none", 0x40f0f538f231311dULL, 24767016750LL,
     0xac03ccbb86263a7aULL, 25792395731LL},
    {"lu", "fault", 0xd6db7f7daf8f67b7ULL, 34872528154LL,
     0x00f5acf65bed3525ULL, 30015338704LL},
    {"lu", "noise", 0x37f665295f05b8b8ULL, 29099016750LL,
     0xca24036b00de3555ULL, 30218363254LL},
    {"lu", "checkpoint", 0x2771d970145f20fdULL, 26647016750LL,
     0x9014796373fb2144ULL, 27663834080LL},
    {"mg", "none", 0xa4d39df74e9bc5a0ULL, 8101177680LL,
     0x844c57ce6a538902ULL, 7654999541LL},
    {"mg", "fault", 0x53f3abcfdf262965ULL, 19917928200LL,
     0xecda0943cdd91780ULL, 9153081163LL},
    {"mg", "noise", 0xa1b65e781c0dd7f1ULL, 8370177680LL,
     0xe78084aa71bbbaacULL, 7954977536LL},
    {"mg", "checkpoint", 0xa07fde1f38cd35fcULL, 8281177680LL,
     0xa7f971bb243345daULL, 7847764833LL},
    {"sp", "none", 0xb1c411ca3bbfec40ULL, 14393568400LL,
     0x0e6c3f306a81f350ULL, 13981545822LL},
    {"sp", "fault", 0xb34c0910b9496e3dULL, 34385118000LL,
     0x1650f74b6be10456ULL, 16561178395LL},
    {"sp", "noise", 0x29b6762f4162b8fdULL, 15086707659LL,
     0xaa76b39079ae6aa9ULL, 14835493190LL},
    {"sp", "checkpoint", 0x38d0eb8ff39564fcULL, 14713568400LL,
     0x7ff06fb8c04f51f5ULL, 14319852999LL},
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
      prof::RunTrace trace;
      request.profile = &profile;
      request.run_trace = &trace;
      const auto r = cluster::run(request);
      ASSERT_EQ(r.stats.event_checksum, runs.measured.event_checksum) << what;
      // The profile carries prof::evaluate() under the measured,
      // ideal-network and ideal-balance scenarios.
      EXPECT_EQ(profile.measured_eval, r.stats.makespan) << what;
      EXPECT_EQ(profile.ideal_network, runs.ideal_network.makespan) << what;
      EXPECT_EQ(profile.ideal_balance, runs.ideal_balance.makespan) << what;
      const std::uint64_t td = trace_digest(trace);
      const std::uint64_t ad =
          text_digest(prof::profile_json(profile) +
                      prof::folded_stacks(profile));
      char expected[160];
      std::snprintf(expected, sizeof expected,
                    "{\"%s\", \"%s\", %lldLL, 0x%016llxULL, 0x%016llxULL},",
                    name.c_str(), scenario,
                    static_cast<long long>(profile.uncontended),
                    static_cast<unsigned long long>(td),
                    static_cast<unsigned long long>(ad));
      ASSERT_LT(row, std::size(kUncontended)) << "missing row " << expected;
      const UncontendedRow& u = kUncontended[row++];
      EXPECT_EQ(name, u.workload) << expected;
      EXPECT_STREQ(scenario, u.scenario) << expected;
      EXPECT_EQ(profile.uncontended, u.makespan) << expected;
      EXPECT_EQ(td, u.trace_digest) << expected;
      EXPECT_EQ(ad, u.artifact_digest) << expected;

      char replayed[224];
      std::snprintf(
          replayed, sizeof replayed,
          "{\"%s\", \"%s\", 0x%016llxULL, %lldLL, 0x%016llxULL, %lldLL},",
          name.c_str(), scenario,
          static_cast<unsigned long long>(runs.ideal_network.event_checksum),
          static_cast<long long>(runs.ideal_network.makespan),
          static_cast<unsigned long long>(runs.ideal_balance.event_checksum),
          static_cast<long long>(runs.ideal_balance.makespan));
      ASSERT_LT(row - 1, std::size(kReplayIdeals))
          << "missing row " << replayed;
      const ReplayIdealsRow& i = kReplayIdeals[row - 1];
      EXPECT_EQ(name, i.workload) << replayed;
      EXPECT_STREQ(scenario, i.scenario) << replayed;
      EXPECT_EQ(runs.ideal_network.event_checksum, i.ideal_network_checksum)
          << replayed;
      EXPECT_EQ(runs.ideal_network.makespan, i.ideal_network_makespan)
          << replayed;
      EXPECT_EQ(runs.ideal_balance.event_checksum, i.ideal_balance_checksum)
          << replayed;
      EXPECT_EQ(runs.ideal_balance.makespan, i.ideal_balance_makespan)
          << replayed;
    }
  }
  EXPECT_EQ(row, std::size(kUncontended));
  EXPECT_EQ(row, std::size(kReplayIdeals));
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
