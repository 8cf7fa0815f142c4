// Engine self-telemetry: deterministic work counters of the serial
// engine.
//
// Two contracts under test:
//
//  1. The telemetry document (obs::engine_telemetry_json) is fixed by
//     the simulation's control flow: repeated runs render byte-identical
//     documents for every registered workload and every scenario
//     decorator family, and the counters agree with the run's stats.
//
//  2. Telemetry is an invisible attachment: an instrumented run commits
//     the identical event stream a detached run does.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/alloc_stats.h"
#include "net/network.h"
#include "obs/engine_telemetry.h"
#include "sim/telemetry.h"
#include "sweep/grid.h"
#include "systems/machines.h"
#include "workloads/scenario.h"
#include "workloads/workload.h"

namespace soc {
namespace {

constexpr int kNodes = 8;
constexpr double kScale = 0.05;

int ranks_for(const workloads::Workload& w) {
  return w.gpu_accelerated() ? kNodes : 2 * kNodes;
}

/// One telemetry-attached run; returns the metered result and fills
/// `telemetry` through the RunRequest sink.
cluster::RunResult run_with_telemetry(
    const std::string& name, const workloads::ScenarioConfig& scenario,
    sim::EngineTelemetry* telemetry) {
  const auto w = workloads::make_workload(name);
  const auto node = systems::jetson_tx1(net::NicKind::kTenGigabit);
  cluster::RunRequest request;
  request.workload = name;
  request.workload_ref = w.get();
  request.config = cluster::ClusterConfig{node, kNodes, ranks_for(*w)};
  request.options.size_scale = kScale;
  request.scenario = scenario;
  request.engine_telemetry = telemetry;
  return cluster::run(request);
}

struct NamedScenario {
  const char* name;
  workloads::ScenarioConfig config;
};

/// One representative per decorator family.
std::vector<NamedScenario> scenario_axis() {
  std::vector<NamedScenario> axis;
  axis.push_back({"none", {}});
  axis.push_back(
      {"fault",
       workloads::parse_scenario(
           "straggler:rank=1,slowdown=2.5;node-crash:node=2,t=0.002,down=0.003;"
           "link-flap:node=5,t0=0.001,t1=0.004",
           "", "")});
  axis.push_back(
      {"noise", workloads::parse_scenario(
                    "", "interval=0.003,duration=0.0005,seed=7,jitter=0.25",
                    "")});
  axis.push_back({"checkpoint",
                  workloads::parse_scenario("", "",
                                            "daly:size=1e8,bw=5e9,mtti=30")});
  return axis;
}

// Contract 1: the telemetry document is fixed by the simulation's control
// flow alone: two runs of every workload x scenario family render the
// identical bytes.
TEST(Telemetry, CounterDocByteIdenticalAcrossRuns) {
  const auto scenarios = scenario_axis();
  for (const std::string& name : workloads::list()) {
    for (const NamedScenario& s : scenarios) {
      sim::EngineTelemetry first;
      const auto a = run_with_telemetry(name, s.config, &first);
      ASSERT_GT(a.stats.events_committed, 0u) << name;
      sim::EngineTelemetry second;
      const auto b = run_with_telemetry(name, s.config, &second);
      EXPECT_EQ(b.stats.event_checksum, a.stats.event_checksum)
          << name << " scenario=" << s.name;
      EXPECT_EQ(obs::engine_telemetry_json(second),
                obs::engine_telemetry_json(first))
          << name << " scenario=" << s.name;
    }
  }
}

// The telemetry struct itself must be coherent: totals match RunStats,
// every queued event (a wake or a protocol message) is processed exactly
// once, and the artifact renders.
TEST(Telemetry, StructureMatchesRunAndArtifactsRender) {
  sim::EngineTelemetry tel;
  const auto result = run_with_telemetry("jacobi", {}, &tel);

  EXPECT_EQ(tel.events_committed, result.stats.events_committed);
  EXPECT_GT(tel.commit_records, 0u);
  ASSERT_EQ(tel.shard.size(), 1u);
  const sim::ShardCounters& c = tel.shard.front();
  EXPECT_GT(c.events_processed, 0u);
  EXPECT_GT(c.protos_arrival + c.protos_rts + c.protos_cts, 0u);
  EXPECT_EQ(c.events_processed,
            c.wakes + c.protos_arrival + c.protos_rts + c.protos_cts);
  EXPECT_GT(c.queue_high_water, 0u);

  const std::string full = obs::engine_telemetry_json(tel);
  EXPECT_NE(full.find("soccluster-engine-telemetry/v1"), std::string::npos);
  EXPECT_NE(full.find("\"counters\""), std::string::npos);
  EXPECT_NE(full.find("\"queue_high_water\":" +
                      std::to_string(c.queue_high_water)),
            std::string::npos);
  EXPECT_EQ(full.back(), '\n');

  // reset() (run() calls it) leaves nothing of the previous run behind.
  tel.reset();
  EXPECT_EQ(tel.events_committed, 0u);
  EXPECT_TRUE(tel.shard.empty());
}

// The counters of `socbench run --workload W --nodes 4` (the defaults:
// 10GbE, scale 1, host-device copies, natural rank count), which CI
// compares across builds, pinned as literals with the run's event
// checksum.  The queue's high-water mark counts queued events only, so a
// change to the heap's internals cannot move it.  The allocations one
// detached run makes (no telemetry, observer or metrics) are pinned too,
// and a second detached run must repeat them; they are counted only where
// soc_alloc_hooks owns operator new, which it does not under sanitizers.
TEST(Telemetry, CountersPinnedForFourNodeRuns) {
  struct Pinned {
    const char* workload;
    std::uint64_t events_committed, events_processed, ops_fetched, wakes,
        commit_records, arrival, rts, cts, queue_high_water, checksum,
        allocs;
  };
  const Pinned pinned[] = {
      {"jacobi", 39244, 58204, 39240, 39004, 39244, 1200, 9000, 9000, 4,
       0x4c12f7aa07eae297ULL, 1044},
      {"cg", 286560, 405072, 286552, 285056, 286560, 60016, 30000, 30000, 9,
       0xa5f0cb88543f138bULL, 4842},
  };
  for (const Pinned& p : pinned) {
    const auto w = workloads::make_workload(p.workload);
    cluster::RunRequest request;
    request.workload = p.workload;
    request.workload_ref = w.get();
    request.config = cluster::ClusterConfig{
        systems::jetson_tx1(net::NicKind::kTenGigabit), 4,
        sweep::natural_ranks(*w, 4)};
    sim::EngineTelemetry tel;
    request.engine_telemetry = &tel;
    const auto result = cluster::run(request);
    EXPECT_EQ(result.stats.event_checksum, p.checksum) << p.workload;
    ASSERT_EQ(tel.shard.size(), 1u) << p.workload;
    const sim::ShardCounters& c = tel.shard.front();
    EXPECT_EQ(tel.events_committed, p.events_committed) << p.workload;
    EXPECT_EQ(c.events_processed, p.events_processed) << p.workload;
    EXPECT_EQ(c.ops_fetched, p.ops_fetched) << p.workload;
    EXPECT_EQ(c.wakes, p.wakes) << p.workload;
    EXPECT_EQ(tel.commit_records, p.commit_records) << p.workload;
    EXPECT_EQ(c.protos_arrival, p.arrival) << p.workload;
    EXPECT_EQ(c.protos_rts, p.rts) << p.workload;
    EXPECT_EQ(c.protos_cts, p.cts) << p.workload;
    EXPECT_EQ(c.queue_high_water, p.queue_high_water) << p.workload;

    request.engine_telemetry = nullptr;
    const std::uint64_t at_start = allocation_count();
    cluster::run(request);
    const std::uint64_t first = allocation_count() - at_start;
    cluster::run(request);
    const std::uint64_t second = allocation_count() - at_start - first;
    if (first == 0) continue;  // The counter is not live in this build.
    EXPECT_EQ(first, p.allocs) << p.workload;
    EXPECT_EQ(second, first) << p.workload;
  }
}

// Contract 2: attaching telemetry never changes the committed stream.
TEST(Telemetry, AttachmentLeavesCommittedStreamUntouched) {
  sim::EngineTelemetry tel;
  const auto with = run_with_telemetry("cg", {}, &tel);
  const auto without = run_with_telemetry("cg", {}, nullptr);
  EXPECT_EQ(with.stats.event_checksum, without.stats.event_checksum);
  EXPECT_EQ(with.stats.events_committed, without.stats.events_committed);
  EXPECT_EQ(with.stats.makespan, without.stats.makespan);
}

}  // namespace
}  // namespace soc
