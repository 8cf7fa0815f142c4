// Tests for src/prof/: critical-path extraction on hand-built
// micro-programs, zero-residual attribution invariants, what-if
// evaluator exactness, single-pass LB/Ser/Trf parity with the
// replay-based core::decompose on every fig5/fig6 configuration, and
// byte-identical profile artifacts across sweep thread counts and
// repeated runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/efficiency.h"
#include "prof/critical_path.h"
#include "prof/energy.h"
#include "prof/profile.h"
#include "prof/profiler.h"
#include "prof/whatif.h"
#include "sim/engine.h"
#include "sim/op.h"
#include "sweep/sweep.h"
#include "systems/machines.h"

namespace soc::prof {
namespace {

// Fixed-cost model for hand-computable schedules.
class FixedCostModel : public sim::CostModel {
 public:
  SimTime cpu_time = 10 * kMillisecond;
  SimTime gpu_time = 20 * kMillisecond;
  SimTime copy = 5 * kMillisecond;
  SimTime latency = 1 * kMillisecond;
  double bandwidth = 1e9;  // bytes/s
  SimTime overhead = 0;

  SimTime cpu_compute_time(int, const sim::Op&) const override {
    return cpu_time;
  }
  SimTime gpu_kernel_time(int, const sim::Op&) const override {
    return gpu_time;
  }
  SimTime copy_time(int, const sim::Op&) const override { return copy; }
  SimTime message_latency(int src, int dst) const override {
    return src == dst ? 0 : latency;
  }
  SimTime message_transfer_time(int, int, Bytes bytes) const override {
    return transfer_time(bytes, bandwidth);
  }
  SimTime send_overhead(int) const override { return overhead; }
  SimTime recv_overhead(int) const override { return overhead; }
};

struct MicroRun {
  sim::RunStats stats;
  Profiler profiler;
  const RunTrace& trace() const { return profiler.trace(); }
};

MicroRun run_micro(const std::vector<std::vector<sim::Op>>& programs,
                   const sim::Placement& placement,
                   const FixedCostModel& cost) {
  MicroRun run;
  sim::Engine engine(placement, cost, sim::EngineConfig{});
  engine.set_observer(&run.profiler);
  run.stats = engine.run(programs);
  return run;
}

SimTime profile_sum(const RankProfile& profile) {
  SimTime total = 0;
  for (const SimTime ns : profile.by_category) total += ns;
  return total;
}

// Every rank's full-timeline profile must tile [0, makespan] with zero
// residual, and the walked path must tile it too (attribute() asserts
// both internally; the test states the contract explicitly).
void expect_zero_residual(const Attribution& attribution, SimTime makespan) {
  ASSERT_GT(makespan, 0);
  EXPECT_EQ(attribution.path.total, makespan);
  SimTime step_sum = 0;
  for (const PathStep& s : attribution.path.steps) step_sum += s.end - s.begin;
  EXPECT_EQ(step_sum, makespan);
  SimTime category_sum = 0;
  for (const SimTime ns : attribution.path.by_category) category_sum += ns;
  EXPECT_EQ(category_sum, makespan);
  for (const RankProfile& profile : attribution.rank_profiles) {
    EXPECT_EQ(profile_sum(profile), makespan);
  }
}

constexpr auto idx = [](Category c) { return static_cast<std::size_t>(c); };

TEST(CriticalPath, PureComputeChain) {
  // Rank 0 runs three compute ops, rank 1 one; the path is rank 0's
  // compute end to end, and rank 1 pads with idle.
  FixedCostModel cost;
  std::vector<std::vector<sim::Op>> programs(2);
  programs[0] = {sim::cpu_op(1000, 0, 0, 0), sim::cpu_op(1000, 0, 0, 0),
                 sim::cpu_op(1000, 0, 0, 0)};
  programs[1] = {sim::cpu_op(1000, 0, 0, 0)};
  const auto run =
      run_micro(programs, sim::Placement::block(2, 2), cost);
  ASSERT_EQ(run.stats.makespan, 30 * kMillisecond);

  const Attribution a = attribute(run.trace());
  expect_zero_residual(a, run.stats.makespan);
  EXPECT_EQ(a.path.by_category[idx(Category::kCompute)], 30 * kMillisecond);
  EXPECT_EQ(a.path.by_rank[0], 30 * kMillisecond);
  EXPECT_EQ(a.path.by_rank[1], 0);
  EXPECT_EQ(a.path.steps.size(), 3u);
  // Rank 1: 10 ms of compute, then idle until the run drains.
  EXPECT_EQ(a.rank_profiles[1].by_category[idx(Category::kCompute)],
            10 * kMillisecond);
  EXPECT_EQ(a.rank_profiles[1].by_category[idx(Category::kIdle)],
            20 * kMillisecond);
}

TEST(CriticalPath, RendezvousPingPong) {
  // 1 MB messages rendezvous: each hop is latency (1 ms) + wire (1 ms),
  // so the whole 4 ms run sits on the transfer category.
  FixedCostModel cost;
  const Bytes bytes = 1000 * 1000;
  std::vector<std::vector<sim::Op>> programs(2);
  programs[0] = {sim::send_op(1, bytes, 7), sim::recv_op(1, bytes, 8)};
  programs[1] = {sim::recv_op(0, bytes, 7), sim::send_op(0, bytes, 8)};
  const auto run =
      run_micro(programs, sim::Placement::block(2, 2), cost);
  ASSERT_EQ(run.stats.makespan, 4 * kMillisecond);

  const Attribution a = attribute(run.trace());
  expect_zero_residual(a, run.stats.makespan);
  EXPECT_EQ(a.path.by_category[idx(Category::kTransfer)], 4 * kMillisecond);
  // The profiler reconstructed both matches (two committed messages, all
  // four ops bound to a partner).
  ASSERT_EQ(run.trace().messages.size(), 2u);
  for (const OpExec& op : run.trace().ops) {
    EXPECT_GE(op.msg, 0);
    EXPECT_GE(op.partner, 0);
  }
}

// ---------------------------------------------------------------------------
// Matching edges: every route by which the engine pairs a send with a
// receive, checked on every op of a small program.
// ---------------------------------------------------------------------------

// Expected binding of the op at (rank, pc); ops with no entry must carry
// no message, no partner and no partner_ready.  The programs below have
// no phase markers, so pc is the op's position in rank_ops.
struct Edge {
  int rank;
  int pc;
  int msg;            ///< Index into RunTrace::messages.
  int partner_rank;
  int partner_pc;
  SimTime partner_ready;
};

struct BindingCase {
  const char* name;
  int nodes;  ///< 2 ranks on this many nodes (1 = the instant path).
  std::vector<std::vector<sim::Op>> programs;
  std::vector<Edge> edges;
};

void expect_bindings(const RunTrace& t, const std::vector<Edge>& edges) {
  for (const OpExec& op : t.ops) {
    SCOPED_TRACE("rank " + std::to_string(op.rank) + " pc " +
                 std::to_string(op.pc));
    const Edge* edge = nullptr;
    for (const Edge& e : edges) {
      if (e.rank == op.rank && e.pc == op.pc) edge = &e;
    }
    if (edge == nullptr) {
      EXPECT_EQ(op.msg, -1);
      EXPECT_EQ(op.partner, -1);
      EXPECT_EQ(op.partner_ready, 0);
      continue;
    }
    EXPECT_EQ(op.msg, edge->msg);
    EXPECT_EQ(op.partner, t.rank_ops[static_cast<std::size_t>(
                              edge->partner_rank)][static_cast<std::size_t>(
                              edge->partner_pc)]);
    EXPECT_EQ(op.partner_ready, edge->partner_ready);
  }
}

TEST(Profiler, BindsEveryMatchingRoute) {
  constexpr Bytes kSmall = 64;           // eager
  constexpr Bytes kBig = 1000 * 1000;    // rendezvous
  constexpr SimTime kMs = kMillisecond;  // one compute op
  const sim::Op cpu = sim::cpu_op(1000, 0, 0, 0);
  // An eager sender never waits on its receiver (partner_ready 0); a
  // rendezvous sender's partner_ready is its receiver's dispatch.
  const std::vector<BindingCase> cases = {
      {"cross-node eager arrives before its recv", 2,
       {{sim::send_op(1, kSmall, 1)}, {cpu, sim::recv_op(0, kSmall, 1)}},
       {{0, 0, 0, 1, 1, 0}, {1, 1, 0, 0, 0, 0}}},
      {"cross-node eager onto a parked recv", 2,
       {{cpu, sim::send_op(1, kSmall, 1)}, {sim::recv_op(0, kSmall, 1)}},
       {{0, 1, 0, 1, 0, 0}, {1, 0, 0, 0, 1, 10 * kMs}}},
      {"cross-node eager onto a posted irecv", 2,
       {{cpu, sim::isend_op(1, kSmall, 1), sim::wait_all_op()},
        {sim::irecv_op(0, kSmall, 1), sim::wait_all_op()}},
       {{0, 1, 0, 1, 0, 0}, {1, 0, 0, 0, 1, 10 * kMs}}},
      {"RTS lands on a parked recv", 2,
       {{cpu, sim::send_op(1, kBig, 1)}, {sim::recv_op(0, kBig, 1)}},
       {{0, 1, 0, 1, 0, 0}, {1, 0, 0, 0, 1, 10 * kMs}}},
      {"RTS lands on a posted irecv", 2,
       {{cpu, sim::send_op(1, kBig, 1)},
        {sim::irecv_op(0, kBig, 1), sim::wait_all_op()}},
       {{0, 1, 0, 1, 0, 0}, {1, 0, 0, 0, 1, 10 * kMs}}},
      {"recv finds a parked RTS", 2,
       {{sim::send_op(1, kBig, 1)}, {cpu, sim::recv_op(0, kBig, 1)}},
       {{0, 0, 0, 1, 1, 10 * kMs}, {1, 1, 0, 0, 0, 0}}},
      {"irecv finds a parked RTS", 2,
       {{sim::send_op(1, kBig, 1)},
        {cpu, sim::irecv_op(0, kBig, 1), sim::wait_all_op()}},
       {{0, 0, 0, 1, 1, 10 * kMs}, {1, 1, 0, 0, 0, 0}}},
      {"instant eager arrives before its recv", 1,
       {{sim::send_op(1, kSmall, 1)}, {cpu, sim::recv_op(0, kSmall, 1)}},
       {{0, 0, 0, 1, 1, 0}, {1, 1, 0, 0, 0, 0}}},
      {"instant eager onto a parked recv", 1,
       {{cpu, sim::send_op(1, kSmall, 1)}, {sim::recv_op(0, kSmall, 1)}},
       {{0, 1, 0, 1, 0, 0}, {1, 0, 0, 0, 1, 10 * kMs}}},
      {"instant eager onto a posted irecv", 1,
       {{cpu, sim::isend_op(1, kSmall, 1), sim::wait_all_op()},
        {sim::irecv_op(0, kSmall, 1), sim::wait_all_op()}},
       {{0, 1, 0, 1, 0, 0}, {1, 0, 0, 0, 1, 10 * kMs}}},
      {"instant rendezvous, send first", 1,
       {{sim::send_op(1, kBig, 1)}, {cpu, sim::recv_op(0, kBig, 1)}},
       {{0, 0, 0, 1, 1, 10 * kMs}, {1, 1, 0, 0, 0, 0}}},
      {"instant rendezvous, recv first", 1,
       {{cpu, sim::send_op(1, kBig, 1)}, {sim::recv_op(0, kBig, 1)}},
       {{0, 1, 0, 1, 0, 0}, {1, 0, 0, 0, 1, 10 * kMs}}},
      {"instant rendezvous onto a posted irecv", 1,
       {{cpu, sim::send_op(1, kBig, 1)},
        {sim::irecv_op(0, kBig, 1), sim::wait_all_op()}},
       {{0, 1, 0, 1, 0, 0}, {1, 0, 0, 0, 1, 10 * kMs}}},
      {"irecv finds a parked instant rendezvous send", 1,
       {{sim::send_op(1, kBig, 1)},
        {cpu, sim::irecv_op(0, kBig, 1), sim::wait_all_op()}},
       {{0, 0, 0, 1, 1, 10 * kMs}, {1, 1, 0, 0, 0, 0}}},
  };
  FixedCostModel cost;
  for (const BindingCase& c : cases) {
    SCOPED_TRACE(c.name);
    const auto run =
        run_micro(c.programs, sim::Placement::block(2, c.nodes), cost);
    ASSERT_EQ(run.trace().messages.size(), 1u);
    expect_bindings(run.trace(), c.edges);
  }
}

TEST(Profiler, BindsTransfersCommittedBeforeTheirReceiveDispatch) {
  // Records reach observers in canonical (time, key) order, which within
  // one timestamp can differ from the order the engine processed events
  // in.  At 10 ms rank 1 dispatches its recv and parks; rank 2's
  // zero-byte, zero-latency send then wakes rank 0 at the same instant,
  // and rank 0's send matches the parked recv.  Rank 0's wake sorts
  // first, so its transfer reaches observers before rank 1's dispatch.
  constexpr SimTime kMs = kMillisecond;
  const sim::Op cpu = sim::cpu_op(1000, 0, 0, 0);
  FixedCostModel cost;
  for (const Bytes bytes : {Bytes{64}, Bytes{1000 * 1000}}) {
    SCOPED_TRACE("bytes " + std::to_string(bytes));
    std::vector<std::vector<sim::Op>> programs = {
        {sim::recv_op(2, 0, 5), sim::send_op(1, bytes, 6)},
        {cpu, sim::recv_op(0, bytes, 6)},
        {cpu, sim::send_op(0, 0, 5)}};
    const auto run = run_micro(programs, sim::Placement::block(3, 1), cost);
    const RunTrace& t = run.trace();
    ASSERT_EQ(t.messages.size(), 2u);
    EXPECT_EQ(t.messages[0].src_rank, 0);  // canonical order: rank 0 first
    const bool eager = bytes <= sim::EngineConfig{}.eager_threshold;
    expect_bindings(t, {{0, 0, 1, 2, 1, 10 * kMs},
                        {0, 1, 0, 1, 1, eager ? 0 : 10 * kMs},
                        {1, 1, 0, 0, 1, 10 * kMs},
                        {2, 1, 1, 0, 0, 0}});
    EXPECT_EQ(analyze(t).measured_eval, run.stats.makespan);
  }
}

TEST(CriticalPath, ContendedGpuLane) {
  // Two ranks share one node's GPU: the second kernel queues behind the
  // first, so the path is 20 ms of gpu-wait then 20 ms of gpu-busy.
  FixedCostModel cost;
  std::vector<std::vector<sim::Op>> programs(2);
  programs[0] = {sim::gpu_op(1e9, 0, sim::MemModel::kHostDevice)};
  programs[1] = {sim::gpu_op(1e9, 0, sim::MemModel::kHostDevice)};
  const auto run =
      run_micro(programs, sim::Placement::block(2, 1), cost);
  ASSERT_EQ(run.stats.makespan, 40 * kMillisecond);

  const Attribution a = attribute(run.trace());
  expect_zero_residual(a, run.stats.makespan);
  EXPECT_EQ(a.path.by_category[idx(Category::kGpuWait)], 20 * kMillisecond);
  EXPECT_EQ(a.path.by_category[idx(Category::kGpuBusy)], 20 * kMillisecond);
  // The uncontended what-if removes exactly the queueing.
  WhatIf uncontended;
  uncontended.uncontended = true;
  EXPECT_EQ(evaluate(run.trace(), uncontended), 20 * kMillisecond);
}

TEST(WhatIf, UncontendedRemovesCopyEngineQueueing) {
  // Two ranks share one node's copy engine: the second 5 ms copy queues
  // behind the first until the uncontended what-if gives each its own.
  FixedCostModel cost;
  std::vector<std::vector<sim::Op>> programs(2);
  programs[0] = {sim::copy_h2d_op(4096, sim::MemModel::kHostDevice)};
  programs[1] = {sim::copy_h2d_op(4096, sim::MemModel::kHostDevice)};
  const auto run = run_micro(programs, sim::Placement::block(2, 1), cost);
  ASSERT_EQ(run.stats.makespan, 10 * kMillisecond);
  EXPECT_EQ(evaluate(run.trace(), WhatIf{}), 10 * kMillisecond);
  WhatIf uncontended;
  uncontended.uncontended = true;
  EXPECT_EQ(evaluate(run.trace(), uncontended), 5 * kMillisecond);
}

TEST(CriticalPath, NonblockingWaitAllWindow) {
  // Eager halo exchange: irecv + isend + waitall + compute per rank,
  // with per-message overheads so the waitall window is non-trivial.
  FixedCostModel cost;
  cost.overhead = 2 * kMillisecond;
  const Bytes bytes = 4096;  // below the eager threshold
  std::vector<std::vector<sim::Op>> programs(2);
  for (int r = 0; r < 2; ++r) {
    const int peer = 1 - r;
    programs[r] = {sim::irecv_op(peer, bytes, 3), sim::isend_op(peer, bytes, 3),
                   sim::wait_all_op(), sim::cpu_op(1000, 0, 0, 0)};
  }
  const auto run =
      run_micro(programs, sim::Placement::block(2, 2), cost);

  const Attribution a = attribute(run.trace());
  expect_zero_residual(a, run.stats.makespan);
  // The measured-scenario evaluation reproduces the engine exactly.
  EXPECT_EQ(evaluate(run.trace(), WhatIf{}), run.stats.makespan);
}

TEST(WhatIf, MeasuredEvaluationIsExactOnMicroPrograms) {
  FixedCostModel cost;
  cost.overhead = 1 * kMillisecond;
  const Bytes big = 1000 * 1000;
  std::vector<std::vector<sim::Op>> programs(4);
  // A mix: compute, GPU contention, eager and rendezvous messaging
  // across two nodes.
  programs[0] = {sim::cpu_op(1000, 0, 0, 0),
                 sim::send_op(2, big, 1),
                 sim::gpu_op(1e9, 0, sim::MemModel::kHostDevice),
                 sim::recv_op(2, 64, 2)};
  programs[1] = {sim::gpu_op(1e9, 0, sim::MemModel::kHostDevice),
                 sim::copy_h2d_op(4096, sim::MemModel::kHostDevice)};
  programs[2] = {sim::recv_op(0, big, 1), sim::cpu_op(1000, 0, 0, 0),
                 sim::send_op(0, 64, 2)};
  programs[3] = {sim::irecv_op(2, 128, 9), sim::wait_all_op(),
                 sim::cpu_op(1000, 0, 0, 0)};
  programs[2].push_back(sim::isend_op(3, 128, 9));
  const auto run =
      run_micro(programs, sim::Placement::block(4, 2), cost);

  EXPECT_EQ(evaluate(run.trace(), WhatIf{}), run.stats.makespan);
  // Projections are well-formed: never negative, ideal network is never
  // slower than measured.
  WhatIf net;
  net.ideal_network = true;
  const SimTime ideal = evaluate(run.trace(), net);
  EXPECT_GE(ideal, 0);
  EXPECT_LE(ideal, run.stats.makespan);
}

TEST(WhatIf, ComputeScaleRefusesDvfsFactor) {
  FixedCostModel cost;
  std::vector<std::vector<sim::Op>> programs(2);
  programs[0] = {sim::cpu_op(1000, 0, 0, 0)};
  programs[1] = {sim::cpu_op(2000, 0, 0, 0)};
  const auto run = run_micro(programs, sim::Placement::block(2, 1), cost);

  WhatIf balanced;
  balanced.compute_scale = {1.5, 0.75};
  EXPECT_EQ(evaluate(run.trace(), balanced), 15 * kMillisecond);
  WhatIf compute = balanced;
  compute.dvfs_compute = 0.8;
  EXPECT_THROW(evaluate(run.trace(), compute), Error);
  WhatIf dram = balanced;
  dram.dvfs_dram = 0.8;
  EXPECT_THROW(evaluate(run.trace(), dram), Error);
}

// ---------------------------------------------------------------------------
// Single-pass LB/Ser/Trf parity with the replay-based decomposition on
// every fig5 and fig6 configuration.
// ---------------------------------------------------------------------------

void expect_close(double single_pass, double replayed, const std::string& what,
                  double tolerance = 0.01) {
  ASSERT_GT(replayed, 0.0) << what;
  EXPECT_NEAR(single_pass / replayed, 1.0, tolerance) << what;
}

void check_parity(const std::string& workload, int nodes, int ranks) {
  cluster::RunRequest request;
  request.workload = workload;
  request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), nodes,
                    ranks};
  Profile profile;
  request.profile = &profile;
  RunTrace trace;
  request.run_trace = &trace;
  const auto result = cluster::run(request);
  const auto runs = cluster::replay_scenarios(request);
  const auto d = core::decompose(runs);
  const std::string tag = workload + "@" + std::to_string(nodes);

  EXPECT_TRUE(profile.evaluator_exact) << tag;
  EXPECT_EQ(profile.makespan, result.stats.makespan) << tag;
  expect_close(profile.factors.load_balance, d.load_balance, tag + " LB");
  expect_close(profile.factors.serialization, d.serialization, tag + " Ser");
  expect_close(profile.factors.transfer, d.transfer, tag + " Trf");
  expect_close(profile.factors.efficiency, d.efficiency, tag + " eta");
  // The what-if scenarios reproduce the DIMEMAS-style replays.
  EXPECT_EQ(profile.ideal_network, runs.ideal_network.makespan) << tag;
  EXPECT_EQ(profile.ideal_balance, runs.ideal_balance.makespan) << tag;

  // Energy attribution: the prefix integration reproduces the meter
  // bit-exactly, and both fixed-point partitions carry zero residual.
  ASSERT_TRUE(profile.has_energy) << tag;
  const EnergyAttribution& e = profile.energy;
  EXPECT_EQ(e.joules, result.energy.joules) << tag;  // bit-exact
  EXPECT_TRUE(e.breakdown == result.energy.breakdown) << tag;
  EXPECT_EQ(e.total_uj, std::llround(e.joules * 1e6)) << tag;
  std::int64_t uj = 0, idle = 0, cpu = 0, gpu = 0, nic = 0, dram = 0;
  for (const PhaseEnergy& p : e.phases) {
    EXPECT_GE(p.uj, 0) << tag;
    uj += p.uj;
    idle += p.idle_uj;
    cpu += p.cpu_uj;
    gpu += p.gpu_uj;
    nic += p.nic_uj;
    dram += p.dram_uj;
  }
  EXPECT_EQ(uj, e.total_uj) << tag;
  EXPECT_EQ(idle, e.idle_uj) << tag;
  EXPECT_EQ(cpu, e.cpu_uj) << tag;
  EXPECT_EQ(gpu, e.gpu_uj) << tag;
  EXPECT_EQ(nic, e.nic_uj) << tag;
  EXPECT_EQ(dram, e.dram_uj) << tag;
  ASSERT_EQ(e.rank_uj.size(), static_cast<std::size_t>(ranks)) << tag;
  std::int64_t rank_sum = 0;
  for (const std::int64_t r : e.rank_uj) {
    EXPECT_GE(r, 0) << tag;
    rank_sum += r;
  }
  EXPECT_EQ(rank_sum, e.total_uj) << tag;

  // The baseline re-timing reproduces the measured runtime and energy
  // exactly — the energy analogue of evaluator_exact.
  const Retimed base = retime(trace, WhatIf{}, request.config.node.power,
                              request.config.node.cpu_cores);
  EXPECT_EQ(base.makespan, result.stats.makespan) << tag;
  EXPECT_EQ(base.seconds, result.energy.seconds) << tag;
  EXPECT_EQ(base.joules, result.energy.joules) << tag;
  EXPECT_EQ(base.average_watts, result.energy.average_watts) << tag;
  EXPECT_TRUE(base.breakdown == result.energy.breakdown) << tag;
}

TEST(SinglePassDecomposition, MatchesReplayOnFig5Configs) {
  for (const char* workload :
       {"hpl", "jacobi", "cloverleaf", "tealeaf2d", "tealeaf3d"}) {
    for (const int nodes : {2, 4, 8, 16}) {
      check_parity(workload, nodes, nodes);
    }
  }
}

TEST(SinglePassDecomposition, MatchesReplayOnFig6Configs) {
  for (const char* workload :
       {"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}) {
    for (const int nodes : {2, 4, 8, 16}) {
      check_parity(workload, nodes, 2 * nodes);
    }
  }
}

// ---------------------------------------------------------------------------
// Artifact determinism.
// ---------------------------------------------------------------------------

std::vector<std::string> sweep_artifacts(unsigned threads) {
  std::vector<cluster::RunRequest> requests;
  std::vector<Profile> profiles(3);
  requests.push_back(cluster::RunRequest{});
  requests.back().workload = "hpl";
  requests.back().config = {systems::jetson_tx1(net::NicKind::kTenGigabit), 4,
                            4};
  requests.push_back(cluster::RunRequest{});
  requests.back().workload = "cg";
  requests.back().config = {systems::jetson_tx1(net::NicKind::kTenGigabit), 4,
                            8};
  requests.push_back(cluster::RunRequest{});
  requests.back().workload = "jacobi";
  requests.back().config = {systems::jetson_tx1(net::NicKind::kGigabit), 2, 2};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].profile = &profiles[i];
  }

  sweep::SweepOptions options;
  options.threads = threads;
  sweep::SweepRunner runner(options);
  runner.run(requests);

  std::vector<std::string> rendered;
  for (const Profile& profile : profiles) {
    rendered.push_back(profile_json(profile));
    rendered.push_back(folded_stacks(profile));
    rendered.push_back(energy_json(profile.energy));
  }
  return rendered;
}

TEST(ProfileArtifact, ByteIdenticalAcrossSweepThreadsAndRepeats) {
  const auto serial = sweep_artifacts(1);
  const auto parallel = sweep_artifacts(4);
  const auto repeated = sweep_artifacts(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "artifact " << i;
    EXPECT_EQ(parallel[i], repeated[i]) << "artifact " << i;
  }
  // Sanity: the artifacts are non-trivial documents.
  EXPECT_NE(serial[0].find("soccluster-critical-path/v1"), std::string::npos);
  EXPECT_NE(serial[1].find("rank 0;phase"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Energy what-ifs: DVFS and power-cap re-timing from the recorded trace.
// ---------------------------------------------------------------------------

struct EnergyRun {
  cluster::RunResult result;
  RunTrace trace;
  power::NodePowerConfig power;
  int cores = 0;
};

EnergyRun energy_run(const std::string& workload, int nodes, int ranks) {
  cluster::RunRequest request;
  request.workload = workload;
  request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), nodes,
                    ranks};
  EnergyRun r;
  request.run_trace = &r.trace;
  r.result = cluster::run(request);
  r.power = request.config.node.power;
  r.cores = request.config.node.cpu_cores;
  return r;
}

TEST(EnergyWhatIf, DownclockStretchesRuntimeAndSavesActiveEnergy) {
  const EnergyRun r = energy_run("jacobi", 4, 4);
  const Retimed base = retime(r.trace, WhatIf{}, r.power, r.cores);
  WhatIf slow;
  slow.dvfs_compute = 0.8;
  slow.dvfs_dram = 0.4 + 0.6 * 0.8;  // the with_dvfs bandwidth law
  const Retimed d = retime(r.trace, slow, r.power, r.cores);
  EXPECT_GT(d.makespan, base.makespan);
  // pf(f)/f = f^1.5 < 1 below nominal: active compute energy drops...
  EXPECT_LT(d.breakdown.cpu + d.breakdown.gpu,
            base.breakdown.cpu + base.breakdown.gpu);
  EXPECT_LE(d.breakdown.dram, base.breakdown.dram);
  // ...while the longer runtime accrues more frequency-independent draw.
  EXPECT_GT(d.breakdown.idle, base.breakdown.idle);
  EXPECT_GE(d.breakdown.nic, base.breakdown.nic);
}

TEST(EnergyWhatIf, OverclockShortensRuntime) {
  const EnergyRun r = energy_run("cg", 2, 4);
  WhatIf fast;
  fast.dvfs_compute = 1.2;
  fast.dvfs_dram = 0.4 + 0.6 * 1.2;
  const Retimed d = retime(r.trace, fast, r.power, r.cores);
  EXPECT_LT(d.makespan, r.result.stats.makespan);
  // Superlinear VF curve: faster costs more active compute energy.
  EXPECT_GT(d.breakdown.cpu + d.breakdown.gpu,
            r.result.energy.breakdown.cpu + r.result.energy.breakdown.gpu);
}

TEST(EnergyWhatIf, PowerCapRetimesWithoutRerunning) {
  const EnergyRun r = energy_run("hpl", 2, 2);
  const power::EnergyReport& measured = r.result.energy;

  // A cap at the average draw must clip the above-average bins.
  WhatIf cap;
  cap.power_cap_w = measured.average_watts;
  const Retimed capped = retime(r.trace, cap, r.power, r.cores);
  EXPECT_GT(capped.capped_bins, 0u);
  EXPECT_GT(capped.makespan, r.result.stats.makespan);
  EXPECT_GE(capped.joules, measured.joules);
  // Active compute energy is conserved under the cap dilation.
  EXPECT_DOUBLE_EQ(capped.breakdown.cpu, measured.breakdown.cpu);
  EXPECT_DOUBLE_EQ(capped.breakdown.gpu, measured.breakdown.gpu);
  EXPECT_DOUBLE_EQ(capped.breakdown.dram, measured.breakdown.dram);

  // A cap above peak is a bit-exact identity.
  WhatIf loose;
  loose.power_cap_w = measured.peak_watts + 5.0;
  const Retimed same = retime(r.trace, loose, r.power, r.cores);
  EXPECT_EQ(same.capped_bins, 0u);
  EXPECT_EQ(same.makespan, r.result.stats.makespan);
  EXPECT_EQ(same.joules, measured.joules);

  // The cap dilates the measured timeline, so it cannot compose with
  // knobs that change that timeline.
  WhatIf both;
  both.power_cap_w = 100.0;
  both.dvfs_compute = 0.8;
  EXPECT_THROW(retime(r.trace, both, r.power, r.cores), Error);
}

TEST(EnergyArtifact, SchemaAndFixedPointPartition) {
  cluster::RunRequest request;
  request.workload = "tealeaf2d";
  request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), 2, 2};
  Profile profile;
  request.profile = &profile;
  cluster::run(request);

  ASSERT_TRUE(profile.has_energy);
  const std::string doc = energy_json(profile.energy);
  EXPECT_NE(doc.find("\"schema\":\"soccluster-energy-attribution/v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"total_uj\":"), std::string::npos);
  EXPECT_NE(doc.find("\"components_uj\":"), std::string::npos);
  EXPECT_NE(doc.find("\"rank_uj\":"), std::string::npos);
  EXPECT_EQ(doc.back(), '\n');
}

TEST(ProfileArtifact, SchemaCarriesIntegerInvariants) {
  cluster::RunRequest request;
  request.workload = "tealeaf3d";
  request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), 4, 4};
  Profile profile;
  request.profile = &profile;
  cluster::run(request);

  const std::string doc = profile_json(profile);
  EXPECT_NE(doc.find("\"schema\":\"soccluster-critical-path/v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"evaluator_exact\":true"), std::string::npos);
  // No floating-point values anywhere: every ratio is ppm fixed point and
  // every duration integer nanoseconds, so the document cannot diverge
  // between -O2 and sanitizer builds.
  EXPECT_EQ(doc.find('.'), std::string::npos);
  // Lane utilization counters (shared with obs::MetricsObserver).
  EXPECT_NE(doc.find("\"nic_tx\":{\"busy_ns\":"), std::string::npos);
  // The critical path tiles the run exactly.
  expect_zero_residual(profile.attribution, profile.makespan);
}

}  // namespace
}  // namespace soc::prof
