// Critical-path profiler, stage 1: trace reconstruction.
//
// Profiler is an EngineObserver that builds the run's dependency DAG as a
// RunTrace while ONE instrumented run commits: one OpExec per executed op,
// with its wall-clock window, its resource-service window (cpu/gpu/copy
// spans), and — for message ops — the committed MessageRecord plus the
// matching edge to the partner op.
//
// The engine names both endpoints of every transfer by (rank, pc), on the
// MessageRecord and, for a receive that takes an already-arrived payload,
// on the receive's DispatchRecord; the profiler only joins those names to
// its rows, so the matching rules live in sim::Engine alone and every
// annotation is exact: downstream passes assert that reconstructed
// completion times tile the run with zero residual.  Everything here is
// derived from the deterministic committed event stream, so equal
// configurations produce byte-identical traces.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/observers.h"
#include "sim/engine.h"
#include "sim/op.h"
#include "sim/stats.h"

namespace soc::prof {

/// One reconstructed op execution: a node of the dependency DAG.
struct OpExec {
  sim::OpKind kind = sim::OpKind::kCpuCompute;
  int rank = 0;
  int node = 0;
  int phase = 0;
  int peer = -1;   ///< Partner rank (message ops).
  int tag = 0;     ///< Message tag (message ops).
  std::int32_t pc = 0;  ///< Op index in the rank's program.
  Bytes bytes = 0;
  SimTime dispatch = 0;  ///< First dispatch time (the op's window start).
  SimTime complete = 0;  ///< The rank's next dispatch (the window end).
  // Lane-backed ops (cpu/gpu/copy): service window from the span stream;
  // busy_start - dispatch is queue wait on the node's shared lane.
  SimTime busy_start = 0;
  SimTime busy_end = 0;
  // Message-backed ops: the committed transfer and the matching edge.
  int msg = -1;      ///< Index into RunTrace::messages (-1 = none).
  int partner = -1;  ///< Global index of the matching endpoint's op.
  /// When the partner bound this op: the partner's dispatch time.  At
  /// most `dispatch` when the partner acted first; later than `dispatch`
  /// exactly when this op parked waiting for it.
  SimTime partner_ready = 0;
  /// kWaitAll only: the request op (global index) whose completion set
  /// this wait's finish time; -1 when the wait completed instantly.
  int determinant = -1;
};

/// Everything the attribution/what-if passes need from one observed run.
struct RunTrace {
  sim::Placement placement;
  sim::EngineConfig config;
  sim::RunStats stats;
  std::vector<sim::MessageRecord> messages;  ///< In commit order.
  std::vector<OpExec> ops;                   ///< In first-dispatch order.
  std::vector<std::vector<int>> rank_ops;    ///< Per-rank program order.
  std::vector<SimTime> finish;               ///< Per-rank drain time.
  /// Per-rank messaging overhead constants derived from the stream
  /// (-1 = the rank never exercised that overhead, and no pass needs it).
  std::vector<SimTime> send_overhead;
  std::vector<SimTime> recv_overhead;
  obs::LaneUsage usage;  ///< Per-lane busy/blocked totals.
};

/// EngineObserver that builds the RunTrace as records commit.  Reusable
/// across runs (each on_run_begin resets); attach via Engine::set_observer
/// or cluster::RunRequest's profile sinks.
class Profiler : public sim::EngineObserver {
 public:
  void on_run_begin(const sim::Placement& placement,
                    const sim::EngineConfig& config) override;
  void on_dispatch(const sim::DispatchRecord& record) override;
  void on_span(const sim::SpanRecord& span) override;
  void on_message(const sim::MessageRecord& message) override;
  void on_run_end(const sim::RunStats& stats) override;

  /// The reconstructed trace; valid once a run has ended.
  const RunTrace& trace() const;
  /// Moves the reconstructed trace out; trace() is invalid afterwards.
  RunTrace take_trace();

 private:
  /// A matching edge between ops named by (rank, pc).  Records reach
  /// observers in canonical (time, key) order, which within one timestamp
  /// can place a transfer before the dispatch of an endpoint the engine
  /// had already matched, so an edge waits in joins_ until its ops exist.
  struct Join {
    int msg;  ///< Message index; -1 = the send op's (a receive took it).
    int send_rank;
    std::int32_t send_pc;
    int recv_rank;  ///< -1 = eager payload committed before any receive.
    std::int32_t recv_pc;
  };
  int find_op(int rank, std::int32_t pc) const;
  /// Applies the edge once every op it names exists; false = not yet.
  bool try_join(const Join& join);
  void close(int op, SimTime time);
  /// Per-rank passes over the finished rows: overhead constants,
  /// rendezvous window checks, and kWaitAll determinants.
  void finish();

  RunTrace trace_;
  std::vector<int> open_;    ///< Per rank: the op whose window is open.
  std::vector<Join> joins_;  ///< Edges not applied yet (usually none).
  bool built_ = false;
};

}  // namespace soc::prof
