// Tests for sim/: event queue ordering, op builders, and the replay
// engine's semantics (timing, resource contention, message matching,
// scenarios, accounting, determinism, failure modes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/memo_cost.h"
#include "sim/op.h"

namespace soc::sim {
namespace {

// Fixed-cost model for deterministic engine arithmetic.
class FixedCostModel : public CostModel {
 public:
  SimTime cpu_time = 10 * kMillisecond;
  SimTime gpu_time = 20 * kMillisecond;
  SimTime copy = 5 * kMillisecond;
  SimTime latency = 1 * kMillisecond;
  double bandwidth = 1e9;  // bytes/s
  SimTime overhead = 0;

  SimTime cpu_compute_time(int, const Op&) const override { return cpu_time; }
  SimTime gpu_kernel_time(int, const Op&) const override { return gpu_time; }
  SimTime copy_time(int, const Op&) const override { return copy; }
  SimTime message_latency(int src, int dst) const override {
    return src == dst ? 0 : latency;
  }
  SimTime message_transfer_time(int, int, Bytes bytes) const override {
    return transfer_time(bytes, bandwidth);
  }
  SimTime send_overhead(int) const override { return overhead; }
  SimTime recv_overhead(int) const override { return overhead; }
};

TEST(EventQueue, OrdersByTime) {
  KeyedEventQueue q;
  q.push(30, 0, 3);
  q.push(10, 0, 1);
  q.push(20, 0, 2);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_EQ(q.pop().payload, 3);
}

// Equal times pop in key order, whatever the push order.
TEST(EventQueue, TiesBreakByKey) {
  KeyedEventQueue q;
  q.push(5, 30, 3);
  q.push(5, 10, 1);
  q.push(5, 20, 2);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_EQ(q.pop().payload, 3);
}

TEST(EventQueue, PopEmptyThrows) {
  KeyedEventQueue q;
  EXPECT_THROW(q.pop(), Error);
  q.push(1, 0, 0);
  q.pop();
  EXPECT_THROW(q.pop(), Error);
}

TEST(EventQueue, NegativeTimeRejected) {
  KeyedEventQueue q;
  EXPECT_THROW(q.push(-1, 0, 0), Error);
}

// A push at the time just popped, with a lower key than an event already
// queued at that time, still pops first: order is (time, key), not
// arrival.
TEST(EventQueue, EqualTimePushAfterPopOrdersByKey) {
  KeyedEventQueue q;
  q.push(5, 1, 1);
  q.push(5, 8, 8);
  q.push(9, 0, 99);
  EXPECT_EQ(q.pop().payload, 1);
  q.push(5, 7, 7);  // same time as the pop just served
  q.push(5, 2, 2);
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_EQ(q.pop().payload, 7);
  EXPECT_EQ(q.pop().payload, 8);
  EXPECT_EQ(q.pop().payload, 99);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedPushPopKeepsGlobalOrder) {
  KeyedEventQueue q;
  q.push(10, 0, 1);
  q.push(30, 0, 3);
  EXPECT_EQ(q.pop().payload, 1);
  q.push(20, 0, 2);  // earlier than the heap top pushed before the pop
  q.push(10, 1, 9);  // equal to the last popped time
  EXPECT_EQ(q.pop().payload, 9);
  EXPECT_EQ(q.pop().payload, 2);
  q.push(25, 0, 4);
  EXPECT_EQ(q.pop().payload, 4);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeTracksPartialDrain) {
  KeyedEventQueue q;
  q.push(7, 2, 2);
  q.push(12, 0, 3);
  q.push(7, 1, 1);
  EXPECT_EQ(q.top().time, 7);
  EXPECT_EQ(q.top().key, 1u);
  q.pop();
  EXPECT_EQ(q.top().time, 7);  // second equal-time event still queued
  EXPECT_EQ(q.top().key, 2u);
  q.pop();
  EXPECT_EQ(q.top().time, 12);
  EXPECT_EQ(q.size(), 1u);
}

// Neither the storage hint nor the push order changes what pops.
TEST(EventQueue, ReserveDoesNotChangeOrder) {
  KeyedEventQueue small;
  KeyedEventQueue big;
  big.reserve(1024);
  for (int i = 0; i < 64; ++i) {
    const SimTime t = (i * 7) % 13;
    small.push(t, static_cast<std::uint64_t>(i), i);
    const int j = 63 - i;
    big.push((j * 7) % 13, static_cast<std::uint64_t>(j), j);
  }
  while (!small.empty()) {
    const KeyedEvent a = small.pop();
    const KeyedEvent b = big.pop();
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.payload, b.payload);
  }
  EXPECT_TRUE(big.empty());
}

TEST(EventQueue, TopEmptyThrows) {
  KeyedEventQueue q;
  EXPECT_THROW(q.top(), Error);
  q.push(1, 0, 0);
  q.pop();  // leaves the popped slot open
  EXPECT_THROW(q.top(), Error);
  EXPECT_TRUE(q.empty());
}

// A pop leaves a hole that the next push fills; size() never counts it.
TEST(EventQueue, SizeExcludesPoppedHole) {
  KeyedEventQueue q;
  q.push(4, 0, 0);
  q.push(4, 1, 1);
  EXPECT_EQ(q.pop().payload, 0);
  EXPECT_EQ(q.size(), 1u);
  q.push(3, 2, 2);  // fills the hole, and is now the earliest
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.top().payload, 2);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push(9, 0, 9);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().payload, 9);
}

// Randomized oracle: the queue against a std::set ordered by (time, key)
// over thousands of interleaved calls.  Times come from a narrow window
// so most events tie on time, and the call mix makes pop->push,
// pop->pop and pop->top sequences common.  Push-heavy and pop-heavy
// phases alternate, so the heap repeatedly fills to 256 events (eight
// levels) and drains to empty.  Keys are unique among queued events, as
// the engine guarantees.
TEST(EventQueue, MatchesOrderedSetOracle) {
  using Entry = std::tuple<SimTime, std::uint64_t, std::int32_t>;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    KeyedEventQueue q;
    std::set<Entry> oracle;
    std::set<std::uint64_t> live_keys;
    SimTime now = 0;
    std::int32_t next_payload = 0;
    int after_pop[3] = {0, 0, 0};  // push, pop, top right after a pop
    bool last_was_pop = false;
    std::size_t largest = 0;
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t push_below = (step / 2000) % 2 == 0 ? 5 : 3;
      const std::uint64_t action = rng.next_below(10);
      if (action < push_below || oracle.empty()) {
        if (live_keys.size() == 256) continue;  // every key is in use
        std::uint64_t key = rng.next_below(256);
        while (live_keys.count(key) != 0) key = (key + 1) % 256;
        const SimTime t = now + static_cast<SimTime>(rng.next_below(3));
        q.push(t, key, next_payload);
        oracle.emplace(t, key, next_payload);
        live_keys.insert(key);
        ++next_payload;
        if (last_was_pop) ++after_pop[0];
        last_was_pop = false;
      } else if (action < 8) {
        const KeyedEvent e = q.pop();
        const Entry want = *oracle.begin();
        ASSERT_EQ(e.time, std::get<0>(want)) << "seed " << seed;
        ASSERT_EQ(e.key, std::get<1>(want)) << "seed " << seed;
        ASSERT_EQ(e.payload, std::get<2>(want)) << "seed " << seed;
        oracle.erase(oracle.begin());
        live_keys.erase(e.key);
        now = e.time;  // later pushes land at or after the popped time
        if (last_was_pop) ++after_pop[1];
        last_was_pop = true;
      } else {
        const KeyedEvent& e = q.top();
        const Entry want = *oracle.begin();
        ASSERT_EQ(e.time, std::get<0>(want)) << "seed " << seed;
        ASSERT_EQ(e.key, std::get<1>(want)) << "seed " << seed;
        ASSERT_EQ(e.payload, std::get<2>(want)) << "seed " << seed;
        if (last_was_pop) ++after_pop[2];
        last_was_pop = false;
      }
      ASSERT_EQ(q.size(), oracle.size()) << "seed " << seed;
      ASSERT_EQ(q.empty(), oracle.empty()) << "seed " << seed;
      largest = std::max(largest, oracle.size());
    }
    while (!oracle.empty()) {
      const KeyedEvent e = q.pop();
      ASSERT_EQ(e.key, std::get<1>(*oracle.begin())) << "seed " << seed;
      oracle.erase(oracle.begin());
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(largest, 256u) << "seed " << seed;
    for (const int n : after_pop) EXPECT_GT(n, 1000) << "seed " << seed;
  }
}

TEST(Placement, BlockAssignsContiguously) {
  const Placement p = Placement::block(8, 4);
  EXPECT_EQ(p.node_of[0], 0);
  EXPECT_EQ(p.node_of[1], 0);
  EXPECT_EQ(p.node_of[6], 3);
  EXPECT_EQ(p.node_of[7], 3);
}

TEST(Placement, RejectsUnevenSplit) {
  EXPECT_THROW(Placement::block(7, 4), Error);
}

TEST(OpBuilders, FieldsArePopulated) {
  const Op c = cpu_op(100, 50, 64, 3, 7);
  EXPECT_EQ(c.kind, OpKind::kCpuCompute);
  EXPECT_EQ(c.profile, 3);
  EXPECT_EQ(c.phase, 7);
  const Op g = gpu_op(1e9, 1024, MemModel::kUnified, 1, 4096, false);
  EXPECT_EQ(g.kind, OpKind::kGpuKernel);
  EXPECT_EQ(g.mem_model, MemModel::kUnified);
  EXPECT_FALSE(g.double_precision);
  EXPECT_DOUBLE_EQ(g.parallelism, 4096.0);
  const Op s = send_op(2, 512, 9);
  EXPECT_EQ(s.peer, 2);
  EXPECT_EQ(s.tag, 9);
}

TEST(Engine, SingleRankComputeTime) {
  FixedCostModel cost;
  Engine engine(Placement::block(1, 1), cost);
  std::vector<Program> programs(1);
  programs[0] = {cpu_op(1, 1, 0, 0), cpu_op(1, 1, 0, 0)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.makespan, 2 * cost.cpu_time);
  EXPECT_EQ(stats.ranks[0].cpu_busy, 2 * cost.cpu_time);
}

TEST(Engine, GpuSharedFifoSerializes) {
  // Two ranks on one node both launch a kernel: the second waits.
  FixedCostModel cost;
  Engine engine(Placement::block(2, 1), cost);
  std::vector<Program> programs(2);
  programs[0] = {gpu_op(1, 0, MemModel::kHostDevice)};
  programs[1] = {gpu_op(1, 0, MemModel::kHostDevice)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.makespan, 2 * cost.gpu_time);
  EXPECT_EQ(stats.ranks[0].gpu_queue_wait + stats.ranks[1].gpu_queue_wait,
            cost.gpu_time);
}

TEST(Engine, GpusOnDifferentNodesRunInParallel) {
  FixedCostModel cost;
  Engine engine(Placement::block(2, 2), cost);
  std::vector<Program> programs(2);
  programs[0] = {gpu_op(1, 0, MemModel::kHostDevice)};
  programs[1] = {gpu_op(1, 0, MemModel::kHostDevice)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.makespan, cost.gpu_time);
}

TEST(Engine, RendezvousMessageTiming) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 0;  // force rendezvous
  Engine engine(Placement::block(2, 2), cost, config);
  std::vector<Program> programs(2);
  programs[0] = {send_op(1, 1'000'000, 0)};  // 1 MB at 1 GB/s = 1 ms
  programs[1] = {recv_op(0, 1'000'000, 0)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.makespan, cost.latency + 1 * kMillisecond);
  EXPECT_EQ(stats.ranks[0].net_bytes_sent, 1'000'000);
  EXPECT_EQ(stats.ranks[1].net_bytes_received, 1'000'000);
}

TEST(Engine, RendezvousSenderBlocksUntilReceiverPosts) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 0;
  Engine engine(Placement::block(2, 2), cost, config);
  std::vector<Program> programs(2);
  programs[0] = {send_op(1, 1'000'000, 0)};
  // Receiver computes first (10 ms), then posts the receive.
  programs[1] = {cpu_op(1, 1, 0, 0), recv_op(0, 1'000'000, 0)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.makespan, cost.cpu_time + cost.latency + 1 * kMillisecond);
  EXPECT_GE(stats.ranks[0].send_blocked, cost.cpu_time);
}

TEST(Engine, EagerSenderDoesNotBlock) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 1 * kMiB;
  Engine engine(Placement::block(2, 2), cost, config);
  std::vector<Program> programs(2);
  // Sender: eager send, then long compute.  Receiver: compute, then recv.
  programs[0] = {send_op(1, 1024, 0), cpu_op(1, 1, 0, 0)};
  programs[1] = {cpu_op(1, 1, 0, 0), recv_op(0, 1024, 0)};
  const RunStats stats = engine.run(programs);
  // Sender finishes its compute immediately after the (non-blocking) send.
  EXPECT_EQ(stats.ranks[0].finish_time, cost.cpu_time);
}

TEST(Engine, IntraNodeMessageUsesNoNic) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 0;
  Engine engine(Placement::block(2, 1), cost, config);
  std::vector<Program> programs(2);
  programs[0] = {send_op(1, 4096, 0)};
  programs[1] = {recv_op(0, 4096, 0)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.ranks[0].net_bytes_sent, 0);
  EXPECT_EQ(stats.ranks[0].intra_bytes_sent, 4096);
  EXPECT_EQ(stats.total_net_bytes, 0);
}

TEST(Engine, NicContentionSerializesTransfers) {
  // Two ranks on node 0 send large messages to two ranks on node 1:
  // both transfers share the same NICs and serialize.
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 0;
  Engine engine(Placement::block(4, 2), cost, config);
  std::vector<Program> programs(4);
  programs[0] = {send_op(2, 1'000'000, 0)};
  programs[1] = {send_op(3, 1'000'000, 1)};
  programs[2] = {recv_op(0, 1'000'000, 0)};
  programs[3] = {recv_op(1, 1'000'000, 1)};
  const RunStats stats = engine.run(programs);
  // Each transfer takes latency + 1 ms; they cannot overlap on the NIC.
  EXPECT_GE(stats.makespan, 2 * (1 * kMillisecond) + cost.latency);
}

TEST(Engine, DeadlockDetected) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 0;
  Engine engine(Placement::block(2, 2), cost, config);
  std::vector<Program> programs(2);
  // Both send first: classic rendezvous deadlock.
  programs[0] = {send_op(1, 1'000'000, 0), recv_op(1, 1'000'000, 1)};
  programs[1] = {send_op(0, 1'000'000, 1), recv_op(0, 1'000'000, 0)};
  EXPECT_THROW(engine.run(programs), Error);
}

TEST(Engine, MismatchedTagDeadlocks) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 0;
  Engine engine(Placement::block(2, 2), cost, config);
  std::vector<Program> programs(2);
  programs[0] = {send_op(1, 1'000'000, 7)};
  programs[1] = {recv_op(0, 1'000'000, 8)};
  EXPECT_THROW(engine.run(programs), Error);
}

TEST(Engine, SelfMessageRejected) {
  FixedCostModel cost;
  Engine engine(Placement::block(2, 2), cost);
  std::vector<Program> programs(2);
  programs[0] = {send_op(0, 10, 0)};
  EXPECT_THROW(engine.run(programs), Error);
}

TEST(Engine, PhaseComputeAccounting) {
  FixedCostModel cost;
  Engine engine(Placement::block(1, 1), cost);
  std::vector<Program> programs(1);
  programs[0] = {phase_op(1), cpu_op(1, 1, 0, 0), phase_op(2),
                 cpu_op(1, 1, 0, 0), cpu_op(1, 1, 0, 0)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.ranks[0].phase_compute.at(1), cost.cpu_time);
  EXPECT_EQ(stats.ranks[0].phase_compute.at(2), 2 * cost.cpu_time);
}

TEST(Engine, CopiesAreNotUsefulCompute) {
  FixedCostModel cost;
  Engine engine(Placement::block(1, 1), cost);
  std::vector<Program> programs(1);
  programs[0] = {phase_op(1), copy_h2d_op(1024, MemModel::kHostDevice)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.ranks[0].copy_busy, cost.copy);
  EXPECT_TRUE(stats.ranks[0].phase_compute.empty());
}

TEST(Engine, IdealNetworkZeroesTransferTime) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 0;
  Scenario scenario;
  scenario.ideal_network = true;
  Engine engine(Placement::block(2, 2), cost, config, scenario);
  std::vector<Program> programs(2);
  programs[0] = {send_op(1, 100'000'000, 0)};
  programs[1] = {recv_op(0, 100'000'000, 0)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.makespan, 0);
  // Traffic is still accounted (the data still notionally moves).
  EXPECT_EQ(stats.total_net_bytes, 100'000'000);
}

TEST(Engine, ComputeScaleStretchesWork) {
  FixedCostModel cost;
  Scenario scenario;
  scenario.compute_scale = {2.0};
  Engine engine(Placement::block(1, 1), cost, EngineConfig{}, scenario);
  std::vector<Program> programs(1);
  programs[0] = {cpu_op(1, 1, 0, 0)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.makespan, 2 * cost.cpu_time);
}

TEST(Engine, FlopAndTrafficAggregation) {
  FixedCostModel cost;
  Engine engine(Placement::block(1, 1), cost);
  std::vector<Program> programs(1);
  programs[0] = {cpu_op(100, 50, 64, 0), gpu_op(200, 128, MemModel::kHostDevice)};
  const RunStats stats = engine.run(programs);
  EXPECT_DOUBLE_EQ(stats.total_flops, 250.0);
  EXPECT_DOUBLE_EQ(stats.total_gpu_flops, 200.0);
  EXPECT_EQ(stats.total_dram_bytes, 192);
  EXPECT_EQ(stats.total_gpu_dram_bytes, 128);
  EXPECT_DOUBLE_EQ(stats.ranks[0].instructions, 100.0);
}

TEST(Engine, InstructionsByProfileTracked) {
  FixedCostModel cost;
  Engine engine(Placement::block(1, 1), cost);
  std::vector<Program> programs(1);
  programs[0] = {cpu_op(100, 0, 0, 0), cpu_op(50, 0, 0, 1),
                 cpu_op(25, 0, 0, 0)};
  const RunStats stats = engine.run(programs);
  EXPECT_DOUBLE_EQ(stats.ranks[0].instructions_by_profile.at(0), 125.0);
  EXPECT_DOUBLE_EQ(stats.ranks[0].instructions_by_profile.at(1), 50.0);
}

TEST(Engine, TimelineBinsAccumulateBusySeconds) {
  FixedCostModel cost;
  cost.cpu_time = 250 * kMillisecond;
  EngineConfig config;
  config.timeline_bin_seconds = 0.1;
  Engine engine(Placement::block(1, 1), cost, config);
  std::vector<Program> programs(1);
  programs[0] = {cpu_op(1, 1, 0, 0)};
  const RunStats stats = engine.run(programs);
  const auto& cpu = stats.nodes[0].cpu_busy;
  ASSERT_GE(cpu.size(), 3u);
  EXPECT_NEAR(cpu[0], 0.1, 1e-9);
  EXPECT_NEAR(cpu[1], 0.1, 1e-9);
  EXPECT_NEAR(cpu[2], 0.05, 1e-9);
  double total = 0.0;
  for (double v : cpu) total += v;
  EXPECT_NEAR(total, 0.25, 1e-9);
}

TEST(Engine, DeterministicAcrossRuns) {
  FixedCostModel cost;
  // Ring of eager-sized messages (a rendezvous ring would deadlock).
  std::vector<Program> programs(4);
  for (int r = 0; r < 4; ++r) {
    programs[r].push_back(cpu_op(1, 1, 0, 0));
    programs[r].push_back(send_op((r + 1) % 4, 1 * kKiB, r));
  }
  for (int r = 0; r < 4; ++r) {
    programs[(r + 1) % 4].push_back(recv_op(r, 1 * kKiB, r));
  }
  Engine a(Placement::block(4, 2), cost);
  Engine b(Placement::block(4, 2), cost);
  const RunStats sa = a.run(programs);
  const RunStats sb = b.run(programs);
  EXPECT_EQ(sa.makespan, sb.makespan);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(sa.ranks[r].finish_time, sb.ranks[r].finish_time);
    EXPECT_EQ(sa.ranks[r].recv_blocked, sb.ranks[r].recv_blocked);
  }
}

TEST(Engine, ProgramCountMismatchThrows) {
  FixedCostModel cost;
  Engine engine(Placement::block(2, 2), cost);
  std::vector<Program> programs(1);
  EXPECT_THROW(engine.run(programs), Error);
}

// The engine is serial: a multi-shard config is refused with a message
// rather than silently run on one queue.
TEST(Engine, RefusesShardCountOtherThanOne) {
  FixedCostModel cost;
  EngineConfig config;
  config.shards = 4;
  try {
    Engine engine(Placement::block(4, 4), cost, config);
    FAIL() << "expected the engine to refuse shards = 4";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("shards must be 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(Engine, MultipleMessagesSameTagFifoOrder) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 1 * kMiB;
  Engine engine(Placement::block(2, 2), cost, config);
  std::vector<Program> programs(2);
  programs[0] = {send_op(1, 100, 5), send_op(1, 100, 5)};
  programs[1] = {recv_op(0, 100, 5), recv_op(0, 100, 5)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.ranks[1].messages_received, 2);
}

// Tags that agree in their low 21 bits are still different messages.
// Rank 1 receives the later, larger message first: its receive must wait
// for that message, not complete on the earlier small one.
TEST(Engine, TagsDifferingAboveBit21DoNotAlias) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 1 * kMiB;
  Engine engine(Placement::block(2, 2), cost, config);
  constexpr int kTag = 5;
  constexpr int kAliasTag = kTag + (1 << 21);
  constexpr Bytes kLarge = 500'000;  // 0.5 ms on the wire at 1 GB/s
  std::vector<Program> programs(2);
  programs[0] = {send_op(1, 100, kTag), send_op(1, kLarge, kAliasTag)};
  programs[1] = {recv_op(0, kLarge, kAliasTag), cpu_op(1, 1, 0, 0),
                 recv_op(0, 100, kTag)};
  const RunStats stats = engine.run(programs);
  // The large message cannot land before one latency plus its own wire
  // time; rank 1's compute starts only after that.
  EXPECT_GE(stats.ranks[1].finish_time,
            cost.latency + transfer_time(kLarge, cost.bandwidth) +
                cost.cpu_time);
  EXPECT_EQ(stats.ranks[1].messages_received, 2);
}

TEST(Engine, MessageKeyKeepsFullTag) {
  EXPECT_NE(message_key(0, 1, 5), message_key(0, 1, 5 + (1 << 21)));
  EXPECT_NE(message_key(0, 1, 5), message_key(1, 0, 5));
  EXPECT_NE(message_key(65535, 0, 0), message_key(0, 65535, 0));
  EXPECT_EQ(message_key(2, 3, 7), message_key(2, 3, 7));
}

// Base model whose every answer is a distinct function of its inputs,
// counting how often the memo forwards to it.
class CountingCostModel : public CostModel {
 public:
  mutable int calls = 0;

  SimTime cpu_compute_time(int, const Op& op) const override {
    ++calls;
    return static_cast<SimTime>(op.instructions) + op.profile;
  }
  SimTime gpu_kernel_time(int, const Op& op) const override {
    ++calls;
    return static_cast<SimTime>(op.flops) + (op.double_precision ? 1 : 0);
  }
  SimTime copy_time(int, const Op& op) const override {
    ++calls;
    return op.bytes * 3 + static_cast<SimTime>(op.mem_model) +
           (op.kind == OpKind::kCopyD2H ? 1 : 0);
  }
  SimTime message_latency(int src, int dst) const override {
    ++calls;
    return 1000 * src + dst;
  }
  SimTime message_transfer_time(int src, int dst, Bytes bytes) const override {
    ++calls;
    return 1000000 * src + 1000 * dst + bytes;
  }
  SimTime send_overhead(int rank) const override {
    ++calls;
    return 7 * rank;
  }
  SimTime recv_overhead(int rank) const override {
    ++calls;
    return 11 * rank;
  }
  bool memoizable() const override { return true; }
};

// Node pairs arriving in descending order grow the latency table from
// its largest corner first; src == dst is a pair like any other.  Every
// answer equals the base model's, and hits/misses count first and
// repeated evaluations exactly.
TEST(MemoCostModel, DenseTablesMatchBaseAndCountHitsAndMisses) {
  const CountingCostModel base;
  const CountingCostModel truth;  // answers directly, for comparison
  const MemoCostModel memo(base);
  std::uint64_t misses = 0;
  std::uint64_t hits = 0;

  for (int pass = 0; pass < 2; ++pass) {
    for (int src = 9; src >= 0; --src) {
      for (int dst = 9; dst >= 0; --dst) {
        EXPECT_EQ(memo.message_latency(src, dst),
                  truth.message_latency(src, dst));
        for (const Bytes bytes : {Bytes{0}, Bytes{64}, Bytes{1} << 40}) {
          EXPECT_EQ(memo.message_transfer_time(src, dst, bytes),
                    truth.message_transfer_time(src, dst, bytes));
        }
      }
    }
    (pass == 0 ? misses : hits) += 10 * 10 * 4;
  }
  // An id equal to the table's width (16 after ids 0..9) widens it
  // rather than aliasing row 4, a larger id widens it again, and no
  // widening loses an entry.
  EXPECT_EQ(memo.message_latency(3, 16), truth.message_latency(3, 16));
  EXPECT_EQ(memo.message_latency(40, 3), truth.message_latency(40, 3));
  EXPECT_EQ(memo.message_latency(3, 3), truth.message_latency(3, 3));
  EXPECT_EQ(memo.message_latency(9, 9), truth.message_latency(9, 9));
  misses += 2;
  hits += 2;
  EXPECT_THROW(memo.message_latency(-1, 0), Error);
  EXPECT_THROW(memo.message_latency(0, -1), Error);

  for (int rank = 5; rank >= 0; --rank) {
    EXPECT_EQ(memo.send_overhead(rank), truth.send_overhead(rank));
    EXPECT_EQ(memo.recv_overhead(rank), truth.recv_overhead(rank));
    EXPECT_EQ(memo.send_overhead(rank), truth.send_overhead(rank));
  }
  misses += 6 * 2;
  hits += 6;

  // Ops that differ in one documented field each get their own entry.
  const Op ops[] = {cpu_op(100, 10, 64, 3), cpu_op(100, 10, 64, 4),
                    gpu_op(1e6, 0, MemModel::kUnified, 1, 512, true),
                    gpu_op(1e6, 0, MemModel::kUnified, 1, 512, false),
                    copy_h2d_op(4096, MemModel::kHostDevice),
                    copy_h2d_op(4096, MemModel::kZeroCopy),
                    copy_d2h_op(4096, MemModel::kHostDevice)};
  for (int pass = 0; pass < 2; ++pass) {
    for (const Op& op : ops) {
      switch (op.kind) {
        case OpKind::kCpuCompute:
          EXPECT_EQ(memo.cpu_compute_time(0, op),
                    truth.cpu_compute_time(0, op));
          break;
        case OpKind::kGpuKernel:
          EXPECT_EQ(memo.gpu_kernel_time(0, op),
                    truth.gpu_kernel_time(0, op));
          break;
        default:
          EXPECT_EQ(memo.copy_time(0, op), truth.copy_time(0, op));
          break;
      }
    }
    (pass == 0 ? misses : hits) += std::size(ops);
  }

  EXPECT_EQ(memo.misses(), misses);
  EXPECT_EQ(memo.hits(), hits);
  EXPECT_EQ(static_cast<std::uint64_t>(base.calls), misses);
}

// A memo belongs to one thread; asking for a shared one is refused, the
// way EngineConfig::shards refuses anything but 1.
TEST(MemoCostModel, RefusesThreadSafeMode) {
  const CountingCostModel base;
  EXPECT_THROW(MemoCostModel(base, /*thread_safe=*/true), Error);
  EXPECT_NO_THROW(MemoCostModel(base, /*thread_safe=*/false));
}

}  // namespace
}  // namespace soc::sim
