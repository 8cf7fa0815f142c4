// Tests for workloads/: registry, program generation validity for every
// benchmark (peers in range, matched messages — verified by executing
// through the engine), and structural properties per workload family.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "common/error.h"
#include "common/hash.h"
#include "sim/engine.h"
#include "workloads/dnn_workloads.h"
#include "workloads/npb.h"
#include "workloads/op_stream.h"
#include "workloads/scientific.h"
#include "workloads/workload.h"

namespace soc::workloads {
namespace {

// Fast uniform cost model so whole programs execute quickly.
class UnitCostModel : public sim::CostModel {
 public:
  SimTime cpu_compute_time(int, const sim::Op& op) const override {
    return static_cast<SimTime>(op.instructions / 1e6) + 1;
  }
  SimTime gpu_kernel_time(int, const sim::Op& op) const override {
    return static_cast<SimTime>(op.flops / 1e6) + 1;
  }
  SimTime copy_time(int, const sim::Op&) const override { return 1; }
  SimTime message_latency(int, int) const override { return 10; }
  SimTime message_transfer_time(int, int, Bytes bytes) const override {
    return bytes / 1000 + 1;
  }
  SimTime send_overhead(int) const override { return 1; }
  SimTime recv_overhead(int) const override { return 1; }
};

BuildContext ctx_for(const Workload& w, int nodes) {
  BuildContext ctx;
  ctx.nodes = nodes;
  ctx.ranks = nodes;
  if (w.name() == "alexnet" || w.name() == "googlenet") ctx.ranks = 4 * nodes;
  if (!w.gpu_accelerated()) ctx.ranks = 2 * nodes;
  ctx.size_scale = 0.02;  // keep test programs small
  return ctx;
}

TEST(Registry, AllFifteenWorkloadsPresent) {
  const auto names = list();
  EXPECT_EQ(names.size(), 15u);
  const std::set<std::string> set(names.begin(), names.end());
  for (const char* expected :
       {"hpl", "jacobi", "cloverleaf", "tealeaf2d", "tealeaf3d", "alexnet",
        "googlenet", "bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}) {
    EXPECT_TRUE(set.count(expected)) << expected;
  }
}

TEST(Registry, MakeWorkloadRoundTrips) {
  for (const std::string& name : list()) {
    const auto w = make_workload(name);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), name);
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_workload("linpack9000"), Error);
}

TEST(Registry, GpuFlagsMatchTableOne) {
  for (const auto& w : cluster_soc_bench()) {
    EXPECT_TRUE(w->gpu_accelerated()) << w->name();
  }
  for (const auto& w : npb_suite()) {
    EXPECT_FALSE(w->gpu_accelerated()) << w->name();
  }
}

TEST(Registry, ProfilesAreDistinctlyNamed) {
  std::set<std::string> names;
  for (const std::string& name : list()) {
    names.insert(make_workload(name)->cpu_profile().name);
  }
  // tealeaf2d/3d and alexnet/googlenet share profiles by design.
  EXPECT_GE(names.size(), 12u);
}

// Every workload's program must execute to completion on the engine
// (validates peers, tags, and deadlock-freedom) at several cluster sizes.
class WorkloadExecutionTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(WorkloadExecutionTest, ProgramsExecuteToCompletion) {
  const auto& [name, nodes] = GetParam();
  const auto w = make_workload(name);
  const BuildContext ctx = ctx_for(*w, nodes);
  const auto programs = w->build(ctx);
  ASSERT_EQ(static_cast<int>(programs.size()), ctx.ranks);

  UnitCostModel cost;
  sim::Engine engine(sim::Placement::block(ctx.ranks, ctx.nodes), cost);
  const sim::RunStats stats = engine.run(programs);
  EXPECT_GT(stats.makespan, 0);
  EXPECT_GT(stats.total_flops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadExecutionTest,
    ::testing::Combine(::testing::ValuesIn(list()),
                       ::testing::Values(1, 2, 4, 16)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "nodes";
    });

TEST(WorkloadBuild, DeterministicPrograms) {
  const auto w = make_workload("tealeaf3d");
  const BuildContext ctx = ctx_for(*w, 4);
  const auto a = w->build(ctx);
  const auto b = w->build(ctx);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size());
    for (std::size_t i = 0; i < a[r].size(); ++i) {
      EXPECT_EQ(a[r][i].kind, b[r][i].kind);
      EXPECT_EQ(a[r][i].bytes, b[r][i].bytes);
      EXPECT_DOUBLE_EQ(a[r][i].flops, b[r][i].flops);
    }
  }
}

TEST(WorkloadBuild, GpuWorkloadsEmitGpuOps) {
  for (const char* name : {"hpl", "jacobi", "cloverleaf", "tealeaf2d",
                           "tealeaf3d", "alexnet", "googlenet"}) {
    const auto w = make_workload(name);
    const auto programs = w->build(ctx_for(*w, 2));
    bool has_gpu = false;
    for (const auto& prog : programs) {
      for (const auto& op : prog) {
        has_gpu |= op.kind == sim::OpKind::kGpuKernel;
      }
    }
    EXPECT_TRUE(has_gpu) << name;
  }
}

TEST(WorkloadBuild, NpbWorkloadsAreCpuOnly) {
  for (const auto& w : npb_suite()) {
    const auto programs = w->build(ctx_for(*w, 2));
    for (const auto& prog : programs) {
      for (const auto& op : prog) {
        EXPECT_NE(op.kind, sim::OpKind::kGpuKernel) << w->name();
        EXPECT_NE(op.kind, sim::OpKind::kCopyH2D) << w->name();
      }
    }
  }
}

TEST(WorkloadBuild, DnnWorkloadsHaveNoInterNodeTraffic) {
  // alexnet/googlenet classify images independently (§III-B.2).
  for (const char* name : {"alexnet", "googlenet"}) {
    const auto w = make_workload(name);
    const BuildContext ctx = ctx_for(*w, 4);
    const auto programs = w->build(ctx);
    UnitCostModel cost;
    sim::Engine engine(sim::Placement::block(ctx.ranks, ctx.nodes), cost);
    const sim::RunStats stats = engine.run(programs);
    EXPECT_EQ(stats.total_net_bytes, 0) << name;
  }
}

TEST(WorkloadBuild, DnnUsesSinglePrecision) {
  const auto w = make_workload("alexnet");
  const auto programs = w->build(ctx_for(*w, 1));
  for (const auto& op : programs[0]) {
    if (op.kind == sim::OpKind::kGpuKernel) {
      EXPECT_FALSE(op.double_precision);
    }
  }
}

TEST(WorkloadBuild, ScientificUsesDoublePrecision) {
  const auto w = make_workload("tealeaf2d");
  const auto programs = w->build(ctx_for(*w, 2));
  for (const auto& op : programs[0]) {
    if (op.kind == sim::OpKind::kGpuKernel) {
      EXPECT_TRUE(op.double_precision);
    }
  }
}

TEST(WorkloadBuild, ZeroCopySkipsStagingCopies) {
  const auto w = make_workload("jacobi");
  BuildContext ctx = ctx_for(*w, 4);
  ctx.mem_model = sim::MemModel::kHostDevice;
  const auto with_copies = w->build(ctx);
  ctx.mem_model = sim::MemModel::kZeroCopy;
  const auto without = w->build(ctx);
  auto count_copies = [](const std::vector<sim::Program>& progs) {
    int n = 0;
    for (const auto& prog : progs) {
      for (const auto& op : prog) {
        if (op.kind == sim::OpKind::kCopyD2H ||
            op.kind == sim::OpKind::kCopyH2D) {
          ++n;
        }
      }
    }
    return n;
  };
  EXPECT_GT(count_copies(with_copies), 0);
  EXPECT_EQ(count_copies(without), 0);
}

TEST(WorkloadBuild, HplCpuOnlyModeHasNoGpuOps) {
  const HplWorkload hpl;
  BuildContext ctx;
  ctx.nodes = 2;
  ctx.ranks = 8;
  ctx.gpu_work_fraction = 0.0;
  ctx.size_scale = 0.02;
  const auto programs = hpl.build(ctx);
  for (const auto& prog : programs) {
    for (const auto& op : prog) {
      EXPECT_NE(op.kind, sim::OpKind::kGpuKernel);
    }
  }
}

TEST(WorkloadBuild, HplColocatedSplitsWork) {
  const HplWorkload hpl;
  BuildContext ctx;
  ctx.nodes = 2;
  ctx.ranks = 8;
  ctx.gpu_work_fraction = 1.0;
  ctx.size_scale = 0.02;
  const auto programs = hpl.build(ctx);
  // GPU ops only on node-leader ranks (0, 4); CPU update work elsewhere.
  for (int r = 0; r < 8; ++r) {
    bool has_gpu = false;
    for (const auto& op : programs[static_cast<std::size_t>(r)]) {
      has_gpu |= op.kind == sim::OpKind::kGpuKernel;
    }
    EXPECT_EQ(has_gpu, r % 4 == 0) << "rank " << r;
  }
}

TEST(WorkloadBuild, SizeScaleReducesWork) {
  const auto w = make_workload("jacobi");
  BuildContext small = ctx_for(*w, 2);
  BuildContext big = small;
  big.size_scale = 4.0 * small.size_scale;
  auto flops_of = [&](const BuildContext& c) {
    double total = 0.0;
    for (const auto& prog : w->build(c)) {
      for (const auto& op : prog) total += op.flops;
    }
    return total;
  };
  EXPECT_GT(flops_of(big), 2.0 * flops_of(small));
}

TEST(WorkloadBuild, ImbalanceFactorBoundsAndDeterminism) {
  for (int r = 0; r < 64; ++r) {
    const double f = imbalance_factor("cg", r, 0.25);
    EXPECT_GE(f, 0.75);
    EXPECT_LE(f, 1.25);
    EXPECT_DOUBLE_EQ(f, imbalance_factor("cg", r, 0.25));
  }
  EXPECT_DOUBLE_EQ(imbalance_factor("anything", 5, 0.0), 1.0);
  EXPECT_THROW(imbalance_factor("x", 0, 1.5), Error);
}

TEST(WorkloadBuild, ImbalancedWorkloadsVaryAcrossRanks) {
  // cg's per-rank compute must actually differ (LB < 1 at measurement).
  std::set<double> factors;
  for (int r = 0; r < 16; ++r) factors.insert(imbalance_factor("cg", r, 0.28));
  EXPECT_GT(factors.size(), 8u);
}

TEST(NpbSpecs, PatternsMatchBenchmarks) {
  EXPECT_EQ(npb_ft_spec().pattern, NpbPattern::kAllToAll);
  EXPECT_EQ(npb_is_spec().pattern, NpbPattern::kAllToAll);
  EXPECT_EQ(npb_lu_spec().pattern, NpbPattern::kPipeline);
  EXPECT_EQ(npb_mg_spec().pattern, NpbPattern::kMultigrid);
  EXPECT_EQ(npb_ep_spec().pattern, NpbPattern::kNone);
  EXPECT_EQ(npb_cg_spec().pattern, NpbPattern::kSparse);
  EXPECT_EQ(npb_bt_spec().pattern, NpbPattern::kNeighbors);
  EXPECT_EQ(npb_sp_spec().pattern, NpbPattern::kNeighbors);
}

TEST(NpbSpecs, ImbalanceLargestForCgAndLu) {
  // The paper's LB analysis: cg and lu are the load-balance-limited codes.
  const double cg = npb_cg_spec().imbalance;
  const double lu = npb_lu_spec().imbalance;
  for (const auto& spec : {npb_bt_spec(), npb_ep_spec(), npb_ft_spec(),
                           npb_is_spec(), npb_mg_spec(), npb_sp_spec()}) {
    EXPECT_LT(spec.imbalance, cg) << spec.tag;
    EXPECT_LT(spec.imbalance, lu) << spec.tag;
  }
}

TEST(WorkloadBuild, EpHasAlmostNoCommunication) {
  const auto w = make_workload("ep");
  const BuildContext ctx = ctx_for(*w, 4);
  const auto programs = w->build(ctx);
  UnitCostModel cost;
  sim::Engine engine(sim::Placement::block(ctx.ranks, ctx.nodes), cost);
  const sim::RunStats stats = engine.run(programs);
  // Only the terminal reduction moves data.
  EXPECT_LT(stats.total_net_bytes, 10 * kKiB);
}

TEST(WorkloadBuild, FtMovesTheMostData) {
  UnitCostModel cost;
  auto net_bytes = [&](const char* name) {
    const auto w = make_workload(name);
    const BuildContext ctx = ctx_for(*w, 4);
    sim::Engine engine(sim::Placement::block(ctx.ranks, ctx.nodes), cost);
    return engine.run(w->build(ctx)).total_net_bytes;
  };
  const Bytes ft = net_bytes("ft");
  EXPECT_GT(ft, net_bytes("bt"));
  EXPECT_GT(ft, net_bytes("cg"));
  EXPECT_GT(ft, net_bytes("mg"));
}

// --- golden op-sequence digests -------------------------------------------

// FNV-1a over every field of every op, rank by rank (the op count of each
// rank is mixed first, so ops cannot migrate between ranks unnoticed).
std::uint64_t op_digest(const std::vector<sim::Program>& programs) {
  Fnv1a h;
  auto mix_double = [&h](double v) {
    h.mix_u64(std::bit_cast<std::uint64_t>(v));
  };
  for (const sim::Program& prog : programs) {
    h.mix_u64(prog.size());
    for (const sim::Op& op : prog) {
      h.mix_byte(static_cast<std::uint8_t>(op.kind));
      h.mix_byte(static_cast<std::uint8_t>(op.mem_model));
      h.mix_byte(op.double_precision ? 1 : 0);
      h.mix_i64(op.phase);
      h.mix_i64(op.peer);
      h.mix_i64(op.tag);
      h.mix_i64(op.profile);
      mix_double(op.instructions);
      mix_double(op.flops);
      mix_double(op.parallelism);
      h.mix_i64(op.dram_bytes);
      h.mix_i64(op.bytes);
      mix_double(op.time_scale);
      mix_double(op.delay_seconds);
    }
  }
  return h.value();
}

// Drains a stream round-robin (one op per rank per turn, as an engine
// interleaves its pulls) into per-rank programs.
std::vector<sim::Program> drain_round_robin(OpStream& stream) {
  std::vector<sim::Program> programs(static_cast<std::size_t>(stream.ranks()));
  std::vector<bool> done(programs.size(), false);
  std::size_t live = programs.size();
  while (live > 0) {
    for (std::size_t r = 0; r < programs.size(); ++r) {
      if (done[r]) continue;
      const sim::Op op = stream.get_next(static_cast<int>(r), 0);
      if (op.kind == sim::OpKind::kEnd) {
        done[r] = true;
        --live;
      } else {
        programs[r].push_back(op);
      }
    }
  }
  return programs;
}

struct GoldenOps {
  const char* workload;
  const char* variant;  // "" | "overlap" | "zerocopy" | "unified" | "colocated"
  int ranks;
  std::uint64_t digest;
};

BuildContext golden_ctx(const GoldenOps& g) {
  BuildContext ctx;
  ctx.ranks = g.ranks;
  ctx.nodes = g.ranks;
  ctx.size_scale = 0.01;
  const std::string v = g.variant;
  if (v == "overlap") ctx.overlap_halos = true;
  if (v == "zerocopy") ctx.mem_model = sim::MemModel::kZeroCopy;
  if (v == "unified") ctx.mem_model = sim::MemModel::kUnified;
  if (v == "colocated") ctx.nodes = g.ranks / 4;
  return ctx;
}

// Generated from the eager whole-program generators before they became
// step-wise streams: every registered workload at 1/2/4/8 ranks (one rank
// per node), plus halo overlap and the zero-copy/unified memory models
// for the codes whose op sequences depend on them, and hpl's colocated
// 4-ranks-per-node split.
constexpr GoldenOps kGoldenOps[] = {
    {"hpl", "", 1, 0x9d373dc5e9ed1e34ull},
    {"hpl", "", 2, 0x8f8795e5cfdd6727ull},
    {"hpl", "", 4, 0x60eefbf8220f3698ull},
    {"hpl", "", 8, 0x722805d40eed3498ull},
    {"jacobi", "", 1, 0xebc3f807e9055cb1ull},
    {"jacobi", "", 2, 0xb58f2eb1dfe70d89ull},
    {"jacobi", "", 4, 0x9a9437771f49e825ull},
    {"jacobi", "", 8, 0x91650aa1217ed525ull},
    {"cloverleaf", "", 1, 0x06a1b5865fdb70bfull},
    {"cloverleaf", "", 2, 0x0d03871852ebb819ull},
    {"cloverleaf", "", 4, 0x7403eddbdeab00a5ull},
    {"cloverleaf", "", 8, 0xf8ca26d27c86bb5dull},
    {"tealeaf2d", "", 1, 0x07cebea3a34ede21ull},
    {"tealeaf2d", "", 2, 0x038ba70d440b87bdull},
    {"tealeaf2d", "", 4, 0xdfc0cef20dca35c5ull},
    {"tealeaf2d", "", 8, 0xb44e6e46ce4b0529ull},
    {"tealeaf3d", "", 1, 0x7e352397d724f3f1ull},
    {"tealeaf3d", "", 2, 0x05ea2e383c633155ull},
    {"tealeaf3d", "", 4, 0x4734bba48d645681ull},
    {"tealeaf3d", "", 8, 0x232688a95a3d193dull},
    {"alexnet", "", 1, 0x8beef2176d7c9938ull},
    {"alexnet", "", 2, 0x6ac44668a9ea8ea1ull},
    {"alexnet", "", 4, 0x97e51686d90268d5ull},
    {"alexnet", "", 8, 0xa92034ad5714f5b5ull},
    {"googlenet", "", 1, 0xfd4cee4cb90c28e0ull},
    {"googlenet", "", 2, 0xb6decb199fabaec5ull},
    {"googlenet", "", 4, 0x4311595dd6e0dd25ull},
    {"googlenet", "", 8, 0xd05f43583c874125ull},
    {"bt", "", 1, 0x31fbf048914fb629ull},
    {"bt", "", 2, 0xdcc66c631efc0c69ull},
    {"bt", "", 4, 0x5067ae6d0d9735a1ull},
    {"bt", "", 8, 0xfbab30d579499b45ull},
    {"cg", "", 1, 0xbc91acbc869819f2ull},
    {"cg", "", 2, 0x65f4431f77dccd93ull},
    {"cg", "", 4, 0x6331260f704f2c53ull},
    {"cg", "", 8, 0x74ba91117baa13f8ull},
    {"ep", "", 1, 0x940edaceb9207a84ull},
    {"ep", "", 2, 0x3f8fd5f3c50415e9ull},
    {"ep", "", 4, 0x09a559a192a3e321ull},
    {"ep", "", 8, 0x1efd13bb2ea449f9ull},
    {"ft", "", 1, 0x28c023160d92a718ull},
    {"ft", "", 2, 0xd588053d484bdc8dull},
    {"ft", "", 4, 0x679062c1da751ba5ull},
    {"ft", "", 8, 0xcfa5ab36311c3cd5ull},
    {"is", "", 1, 0xa2589b2c1361df05ull},
    {"is", "", 2, 0x527f1fe6ddbfe071ull},
    {"is", "", 4, 0x3deae0774210f0b7ull},
    {"is", "", 8, 0xb4c20e34fc9d7737ull},
    {"lu", "", 1, 0xdc5960bd50ceea6cull},
    {"lu", "", 2, 0x95dca5e1323c2d77ull},
    {"lu", "", 4, 0x9955233445400005ull},
    {"lu", "", 8, 0x23a226df57f6ef81ull},
    {"mg", "", 1, 0xec72b4d7e3d7a4a0ull},
    {"mg", "", 2, 0xaaef4ba106b56aa1ull},
    {"mg", "", 4, 0x328f1c39ee5d815dull},
    {"mg", "", 8, 0xa444ca56f8e5ca75ull},
    {"sp", "", 1, 0x804f7a6e66d0699aull},
    {"sp", "", 2, 0x636622e0bfa05121ull},
    {"sp", "", 4, 0x0772c9d1db4f9b1dull},
    {"sp", "", 8, 0x31f2de881702761dull},
    {"hpl", "zerocopy", 1, 0xcc8bc0a303034765ull},
    {"hpl", "zerocopy", 2, 0x7bc7daaa8544f58dull},
    {"hpl", "zerocopy", 4, 0xbc510e51bf1499bcull},
    {"hpl", "zerocopy", 8, 0xabdcf36dccbc26baull},
    {"hpl", "unified", 1, 0x25e3eb5e2d00fcd4ull},
    {"hpl", "unified", 2, 0x781f7ad845b2d3e7ull},
    {"hpl", "unified", 4, 0x9ddfcbd8e44c27b0ull},
    {"hpl", "unified", 8, 0x2f81d17ab906262eull},
    {"jacobi", "overlap", 1, 0xebc3f807e9055cb1ull},
    {"jacobi", "overlap", 2, 0x39b47306d6e95a61ull},
    {"jacobi", "overlap", 4, 0x75dddc71ca7cf845ull},
    {"jacobi", "overlap", 8, 0x3c2c8e2a586b8ee9ull},
    {"jacobi", "zerocopy", 1, 0x62e3e88ddedcdb75ull},
    {"jacobi", "zerocopy", 2, 0xb2b8399429b8ce35ull},
    {"jacobi", "zerocopy", 4, 0xeea64e12bc152f09ull},
    {"jacobi", "zerocopy", 8, 0xea5aee8a8cd489d1ull},
    {"jacobi", "unified", 1, 0x0d228dd743ba1219ull},
    {"jacobi", "unified", 2, 0x8fce3a83544732b5ull},
    {"jacobi", "unified", 4, 0x06b5dab52a6f09d1ull},
    {"jacobi", "unified", 8, 0x94e20f41ff9c5731ull},
    {"tealeaf2d", "overlap", 1, 0x07cebea3a34ede21ull},
    {"tealeaf2d", "overlap", 2, 0x1fa56f617cde3809ull},
    {"tealeaf2d", "overlap", 4, 0xcb98a18ce71f1e21ull},
    {"tealeaf2d", "overlap", 8, 0x686c6c1246e3eea9ull},
    {"tealeaf2d", "zerocopy", 1, 0xaeacb5f06103bf97ull},
    {"tealeaf2d", "zerocopy", 2, 0xc85623f49005a6c5ull},
    {"tealeaf2d", "zerocopy", 4, 0xc992a534abbd46e5ull},
    {"tealeaf2d", "zerocopy", 8, 0x2dfb121a4c6262fdull},
    {"tealeaf2d", "unified", 1, 0x4e5c40228ff11f57ull},
    {"tealeaf2d", "unified", 2, 0x2e0d9999f6fbc575ull},
    {"tealeaf2d", "unified", 4, 0xd854e4c20211a995ull},
    {"tealeaf2d", "unified", 8, 0x88980e335adc08d5ull},
    {"tealeaf3d", "overlap", 1, 0x7e352397d724f3f1ull},
    {"tealeaf3d", "overlap", 2, 0x57ed1e48baf01eb1ull},
    {"tealeaf3d", "overlap", 4, 0x26ed7849aaec3501ull},
    {"tealeaf3d", "overlap", 8, 0xb8c8f3c6f74bfcc1ull},
    {"tealeaf3d", "zerocopy", 1, 0x5971130ae73ea057ull},
    {"tealeaf3d", "zerocopy", 2, 0x79b3b3c0146251edull},
    {"tealeaf3d", "zerocopy", 4, 0x6e88c20a8bf5ea21ull},
    {"tealeaf3d", "zerocopy", 8, 0x05cdd6ad64674c89ull},
    {"tealeaf3d", "unified", 1, 0x9a274f3db1cc3e77ull},
    {"tealeaf3d", "unified", 2, 0xc9e3189f238d8acdull},
    {"tealeaf3d", "unified", 4, 0xee48b1c7f892e7c9ull},
    {"tealeaf3d", "unified", 8, 0xfe9e40ad0d96b929ull},
    {"hpl", "colocated", 4, 0x17f9f78fd21f7a13ull},
    {"hpl", "colocated", 8, 0xb8b91c2f426f3dabull},
};

// Both generation paths must reproduce the pinned sequences: build()'s
// whole programs, and the stream pulled round-robin across ranks.
TEST(WorkloadOps, GoldenDigests) {
  std::set<std::pair<std::string, int>> covered;
  for (const GoldenOps& g : kGoldenOps) {
    const auto w = make_workload(g.workload);
    const BuildContext ctx = golden_ctx(g);
    const std::string what = std::string(g.workload) + " " + g.variant +
                             " @" + std::to_string(g.ranks);
    EXPECT_EQ(op_digest(w->build(ctx)), g.digest) << what;
    const auto stream = w->stream(ctx);
    EXPECT_EQ(op_digest(drain_round_robin(*stream)), g.digest) << what;
    if (std::string(g.variant).empty()) covered.insert({g.workload, g.ranks});
  }
  for (const std::string& name : list()) {
    for (int ranks : {1, 2, 4, 8}) {
      EXPECT_TRUE(covered.count({name, ranks})) << name << " @" << ranks;
    }
  }
}

}  // namespace
}  // namespace soc::workloads
