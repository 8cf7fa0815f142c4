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
//     the identical event stream, and the perf harness (which never
//     attaches it) reports the same streams.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/perf.h"
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
// compares across builds, pinned as literals.  The queue's high-water
// mark counts queued events only, so a change to the heap's internals
// cannot move it.
TEST(Telemetry, CountersPinnedForFourNodeRuns) {
  struct Pinned {
    const char* workload;
    std::uint64_t events_committed, events_processed, ops_fetched, wakes,
        commit_records, arrival, rts, cts, queue_high_water;
  };
  const Pinned pinned[] = {
      {"jacobi", 39244, 58204, 39240, 39004, 39244, 1200, 9000, 9000, 4},
      {"cg", 286560, 405072, 286552, 285056, 286560, 60016, 30000, 30000, 9},
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
    cluster::run(request);
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
  }
}

// Contract 2a: attaching telemetry never changes the committed stream.
TEST(Telemetry, AttachmentLeavesCommittedStreamUntouched) {
  sim::EngineTelemetry tel;
  const auto with = run_with_telemetry("cg", {}, &tel);
  const auto without = run_with_telemetry("cg", {}, nullptr);
  EXPECT_EQ(with.stats.event_checksum, without.stats.event_checksum);
  EXPECT_EQ(with.stats.events_committed, without.stats.events_committed);
  EXPECT_EQ(with.stats.makespan, without.stats.makespan);
}

// Contract 2b: the perf harness times detached runs.  Two reports agree
// exactly on everything but wall-clock (the detached path's allocation
// stream is deterministic), and record the host they ran on.
TEST(Telemetry, DetachedPerfRunStaysZeroOverhead) {
  const auto cases = cluster::default_perf_cases(/*quick=*/true);
  cluster::PerfConfig config;
  config.reps = 2;
  const auto first = cluster::measure_engine(cases, config);
  const auto second = cluster::measure_engine(cases, config);
  EXPECT_GT(first.host_cores, 0u);
  ASSERT_EQ(first.samples.size(), second.samples.size());
  for (std::size_t i = 0; i < first.samples.size(); ++i) {
    const cluster::PerfSample& a = first.samples[i];
    const cluster::PerfSample& b = second.samples[i];
    EXPECT_EQ(a.checksum, b.checksum) << a.name;
    EXPECT_EQ(a.events, b.events) << a.name;
    EXPECT_DOUBLE_EQ(a.allocs_per_event, b.allocs_per_event) << a.name;
    EXPECT_GT(a.queue_high_water, 0u) << a.name;
    EXPECT_EQ(a.queue_high_water, b.queue_high_water) << a.name;
    EXPECT_GT(a.events_per_second, 0.0) << a.name;
  }
}

// The baseline gate of diff_perf_baseline: a changed event stream always
// fails; throughput fails only below the tolerance.
TEST(Telemetry, BaselineDiffGatesChecksumAndThroughput) {
  cluster::PerfReport report;
  cluster::PerfSample sample;
  sample.name = "fig5/x";
  sample.events = 100;
  sample.checksum = 7;
  sample.events_per_second = 1000.0;
  report.samples = {sample};

  cluster::PerfReport baseline = report;
  EXPECT_EQ(cluster::diff_perf_baseline(report, baseline, 0.9), "");

  // The committed run was faster.
  baseline.samples[0].events_per_second = 2000.0;
  const std::string slow = cluster::diff_perf_baseline(report, baseline, 0.9);
  EXPECT_NE(slow.find("throughput regressed"), std::string::npos) << slow;
  EXPECT_EQ(cluster::diff_perf_baseline(report, baseline, 0.4), "");

  baseline.samples[0].checksum = 8;
  const std::string moved = cluster::diff_perf_baseline(report, baseline, 0.4);
  EXPECT_NE(moved.find("committed stream changed"), std::string::npos)
      << moved;

  baseline.samples[0].name = "fig6/y";
  const std::string none = cluster::diff_perf_baseline(report, baseline, 0.4);
  EXPECT_NE(none.find("no case names in common"), std::string::npos) << none;
}

// Every deterministic counter of a perf sample is gated exactly, and the
// baseline loader reads each of them back: a committed baseline doctored
// in any one field fails the diff.
TEST(Telemetry, BaselineDiffGatesEveryDeterministicCounter) {
  cluster::PerfReport report;
  report.alloc_counter_live = true;
  cluster::PerfSample sample;
  sample.name = "fig6/x";
  sample.events = 286560;
  sample.checksum = 0xa5f0cb88543f138bULL;
  sample.reps = 2;
  sample.events_per_second = 5e6;
  sample.allocs_per_event = 0.011236739251814629;
  sample.memo_hits = 1485216;
  sample.memo_misses = 72;
  sample.queue_high_water = 45;
  report.samples = {sample};

  const std::string path = testing::TempDir() + "perf_baseline_test.json";
  cluster::write_perf_report(path, report);
  const cluster::PerfReport loaded = cluster::load_perf_baseline(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.alloc_counter_live);
  ASSERT_EQ(loaded.samples.size(), 1u);
  EXPECT_EQ(cluster::diff_perf_baseline(report, loaded, 0.9), "");

  const std::vector<
      std::pair<const char*, void (*)(cluster::PerfSample&)>>
      doctored = {
          {"events", [](cluster::PerfSample& s) { ++s.events; }},
          {"checksum", [](cluster::PerfSample& s) { s.checksum ^= 1; }},
          {"reps", [](cluster::PerfSample& s) { ++s.reps; }},
          {"memo_hits", [](cluster::PerfSample& s) { ++s.memo_hits; }},
          {"memo_misses", [](cluster::PerfSample& s) { --s.memo_misses; }},
          {"queue_high_water",
           [](cluster::PerfSample& s) { ++s.queue_high_water; }},
          {"allocs_per_event",
           [](cluster::PerfSample& s) { s.allocs_per_event = 0.726; }},
          {"events_per_second",
           [](cluster::PerfSample& s) { s.events_per_second *= 2.0; }},
      };
  for (const auto& [field, doctor] : doctored) {
    cluster::PerfReport bad = report;
    doctor(bad.samples[0]);
    cluster::write_perf_report(path, bad);
    const cluster::PerfReport baseline = cluster::load_perf_baseline(path);
    std::remove(path.c_str());
    EXPECT_NE(cluster::diff_perf_baseline(report, baseline, 0.9), "") << field;
  }

  // Without a live allocation counter on both sides, allocs_per_event is
  // not a measurement and is not compared.
  cluster::PerfReport unhooked = report;
  unhooked.alloc_counter_live = false;
  unhooked.samples[0].allocs_per_event = 0.0;
  EXPECT_EQ(cluster::diff_perf_baseline(unhooked, loaded, 0.9), "");
}

}  // namespace
}  // namespace soc
