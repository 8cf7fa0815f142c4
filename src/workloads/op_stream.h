// The workload-facing pull API.
//
// workloads::OpStream is the seam the whole runner stack consumes: a
// per-rank `get_next(rank, now) -> Op` where end of stream is the
// OpKind::kEnd sentinel.  It derives from sim::OpSource so the engine can
// pull it directly; the final next() override bridges the sentinel to the
// engine's bool protocol, which guarantees kEnd itself never reaches the
// dispatch loop (the engine SOC_CHECKs on it).
//
// ProgramStream walks materialized programs: a loaded trace replays
// through it (workloads::TraceWorkload).
//
// StepStream is the one generator-backed stream.  A workload computes its
// constants once and hands over a step function that appends step k (one
// outer iteration, or one DNN batch) for every rank to a shared
// msg::ProgramSet.  The stream keeps a read cursor per rank into those
// per-rank buffers; when a rank's buffer runs dry it drops every rank's
// consumed prefix and emits the next step.  Memory therefore follows how
// far the ranks drift apart, not how long the run is, and since the
// buffers keep their capacity the steady state allocates nothing.  Tags
// and phases come from the one ProgramSet in step order, so every rank's
// op sequence is byte-identical to generating all steps up front.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "msg/program_set.h"
#include "sim/op.h"
#include "sim/op_stream.h"

namespace soc::workloads {

class OpStream : public sim::OpSource {
 public:
  /// Pulls `rank`'s next op at simulation time `now`.  Returns an op with
  /// kind == OpKind::kEnd once the rank's stream is exhausted (and keeps
  /// returning it on further calls).
  virtual sim::Op get_next(int rank, SimTime now) = 0;

  /// Bridges the kEnd sentinel to the engine's end-of-stream protocol.
  bool next(int rank, SimTime now, sim::Op* op) final;
};

/// Walks pre-built per-rank programs (a loaded trace) as an OpStream.
/// Non-owning: the programs must outlive the stream.
class ProgramStream final : public OpStream {
 public:
  explicit ProgramStream(const std::vector<sim::Program>& programs)
      : source_(programs) {}

  int ranks() const override { return source_.ranks(); }
  sim::Op get_next(int rank, SimTime now) override {
    sim::Op op;
    return source_.next(rank, now, &op) ? op : sim::end_op();
  }
  bool schedule_independent() const override { return true; }

 private:
  sim::ProgramSource source_;
};

/// Generates a workload one step at a time, on demand.
class StepStream final : public OpStream {
 public:
  /// Appends step `step` (0-based, called in order) for every rank.
  using Step = std::function<void(int step, msg::ProgramSet& ps)>;

  /// A stream of `steps` steps over `ranks` ranks.
  StepStream(int ranks, int steps, Step step);

  int ranks() const override { return ps_.ranks(); }
  sim::Op get_next(int rank, SimTime now) override;
  /// Steps depend on the step index alone, never on `now`.
  bool schedule_independent() const override { return true; }

 private:
  msg::ProgramSet ps_;
  int steps_;
  int next_step_ = 0;
  Step step_;
  std::vector<std::size_t> cursor_;  ///< Per rank: next op in its buffer.
};

}  // namespace soc::workloads
