#include "prof/whatif.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace soc::prof {

namespace {

// The recorded run as the engine's op source and cost model at once.
// next() hands out each rank's recorded ops in program order; a lane op
// is costed in the same dispatch that pulls it, so its recorded service
// time is read at the index of the op its rank pulled last.
class TraceRun final : public sim::OpSource, public sim::CostModel {
 public:
  TraceRun(const RunTrace& trace, const WhatIf& scenario)
      : trace_(trace),
        dvfs_compute_(scenario.dvfs_compute),
        dvfs_dram_(scenario.dvfs_dram),
        cursor_(trace.rank_ops.size(), 0) {
    // Message costs: latency is recorded per message; the wire share is
    // the rest of the *nominal* transfer window (MessageRecord::end
    // excludes port queueing by contract).  Identical (nodes, bytes)
    // keys always carry identical costs (the cost model is
    // deterministic), and any pair that ever communicates has at least
    // one recorded message to take the pair latency from.
    const std::size_t nodes = static_cast<std::size_t>(trace.placement.nodes);
    pairs_.resize(nodes * nodes);
    for (const sim::MessageRecord& m : trace.messages) {
      PairCosts& pair = pairs_[pair_index(node_of(m.src_rank),
                                          node_of(m.dst_rank))];
      pair.latency = m.latency;
      const auto it = find_size(pair, m.bytes);
      if (it == pair.transfer.end() || it->first != m.bytes) {
        pair.transfer.emplace(it, m.bytes, (m.end - m.start) - m.latency);
      }
    }
  }

  int ranks() const override { return trace_.placement.ranks; }

  bool next(int rank, SimTime, sim::Op* op) override {
    const std::size_t r = static_cast<std::size_t>(rank);
    if (cursor_[r] == trace_.rank_ops[r].size()) return false;
    const OpExec& e = op_at(r, cursor_[r]++);
    *op = sim::Op{};
    op->kind = e.kind;
    op->phase = e.phase;
    op->peer = e.peer;
    op->tag = e.tag;
    op->bytes = e.bytes;
    // Injected stalls are not costed by the model: the engine reads the
    // recorded duration back from seconds, which round-trips exactly.
    if (e.kind == sim::OpKind::kDelay) {
      op->delay_seconds = to_seconds(e.busy_end - e.busy_start);
    }
    return true;
  }

  // cpu/gpu lanes follow the compute clocks; the copy engine follows the
  // memory clock.
  SimTime cpu_compute_time(int rank, const sim::Op&) const override {
    return lane_time(rank, dvfs_compute_);
  }
  SimTime gpu_kernel_time(int rank, const sim::Op&) const override {
    return lane_time(rank, dvfs_compute_);
  }
  SimTime copy_time(int rank, const sim::Op&) const override {
    return lane_time(rank, dvfs_dram_);
  }

  SimTime message_latency(int src_node, int dst_node) const override {
    const SimTime t = pairs_[pair_index(src_node, dst_node)].latency;
    SOC_CHECK(t >= 0, "what-if: pair latency not in trace");
    return t;
  }
  SimTime message_transfer_time(int src_node, int dst_node,
                                Bytes bytes) const override {
    const PairCosts& pair = pairs_[pair_index(src_node, dst_node)];
    const auto it = find_size(pair, bytes);
    SOC_CHECK(it != pair.transfer.end() && it->first == bytes,
              "what-if: message cost not in trace");
    return it->second;
  }

  SimTime send_overhead(int rank) const override {
    const SimTime t = trace_.send_overhead[static_cast<std::size_t>(rank)];
    SOC_CHECK(t >= 0, "what-if: send overhead unknown for rank");
    return t;
  }
  SimTime recv_overhead(int rank) const override {
    const SimTime t = trace_.recv_overhead[static_cast<std::size_t>(rank)];
    SOC_CHECK(t >= 0, "what-if: recv overhead unknown for rank");
    return t;
  }

 private:
  /// Recorded costs of one (src node, dst node) pair.
  struct PairCosts {
    SimTime latency = -1;  ///< -1 = the pair never communicated.
    /// (bytes, wire time), sorted by bytes; a workload sends few sizes.
    std::vector<std::pair<Bytes, SimTime>> transfer;
  };

  std::size_t pair_index(int src_node, int dst_node) const {
    return static_cast<std::size_t>(src_node) *
               static_cast<std::size_t>(trace_.placement.nodes) +
           static_cast<std::size_t>(dst_node);
  }
  /// First entry of the pair's table with at least `bytes`.
  static std::vector<std::pair<Bytes, SimTime>>::const_iterator find_size(
      const PairCosts& pair, Bytes bytes) {
    return std::lower_bound(
        pair.transfer.begin(), pair.transfer.end(), bytes,
        [](const std::pair<Bytes, SimTime>& entry, Bytes b) {
          return entry.first < b;
        });
  }

  int node_of(int rank) const {
    return trace_.placement.node_of[static_cast<std::size_t>(rank)];
  }
  const OpExec& op_at(std::size_t rank, std::size_t pc) const {
    return trace_.ops[static_cast<std::size_t>(trace_.rank_ops[rank][pc])];
  }

  /// DVFS duration scaling: a lane clocked at relative frequency f takes
  /// 1/f of its recorded service time.  f == 1.0 skips the divide so the
  /// baseline state reproduces recorded durations bit-exactly.
  SimTime lane_time(int rank, double freq) const {
    const std::size_t r = static_cast<std::size_t>(rank);
    const OpExec& e = op_at(r, cursor_[r] - 1);
    const SimTime t = e.busy_end - e.busy_start;
    if (freq == 1.0) return t;
    return static_cast<SimTime>(std::llround(static_cast<double>(t) / freq));
  }

  const RunTrace& trace_;
  double dvfs_compute_;
  double dvfs_dram_;
  std::vector<std::size_t> cursor_;  ///< Per rank: ops handed out so far.
  std::vector<PairCosts> pairs_;     ///< [src_node * nodes + dst_node].
};

}  // namespace

SimTime evaluate(const RunTrace& trace, const WhatIf& scenario) {
  SOC_CHECK(scenario.dvfs_compute > 0.0 && scenario.dvfs_dram > 0.0,
            "what-if: DVFS frequency scales must be positive");
  SOC_CHECK(scenario.compute_scale.empty() ||
                (scenario.dvfs_compute == 1.0 && scenario.dvfs_dram == 1.0),
            "what-if: compute_scale cannot combine with a DVFS factor "
            "(re-time one at a time)");
  TraceRun run(trace, scenario);
  sim::EngineConfig config = trace.config;
  config.telemetry = nullptr;
  sim::Engine engine(trace.placement, run, config,
                     static_cast<const sim::Scenario&>(scenario));
  return engine.run(run).makespan;
}

}  // namespace soc::prof
