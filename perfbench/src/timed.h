// Forwarding timers around the simulator's layer interfaces.
//
// Each wrapper implements one public interface by forwarding every call
// to the real implementation and folding the call's host time and count
// into plain accumulators.  They add no behaviour, so a pipeline built
// from them commits the same events as cluster::run; the traced runs
// check that it does.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "sim/engine.h"
#include "workloads/op_stream.h"
#include "workloads/workload.h"

namespace perfbench {

/// Host time and calls folded across one fine-grained boundary.
struct Fold {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t allocs = 0;  ///< operator new calls inside the boundary.
};

/// What the op-fetch boundary saw during one stream's life.
struct PullStats {
  Fold pulls;
  std::uint64_t ops = 0;            ///< Pulls that returned an op.
  std::uint64_t first_pull_ns = 0;  ///< The first pull (lazy generation).
  double first_pull_rss_mb = 0.0;   ///< RSS growth across the first pull.
  double rss_after_first_mb = 0.0;
};

/// Times OpSource::next (through OpStream::get_next).
class TimedStream final : public soc::workloads::OpStream {
 public:
  /// `track_rss` reads the process RSS around the first pull; only
  /// meaningful when one run owns the process.
  TimedStream(std::unique_ptr<soc::workloads::OpStream> inner,
              PullStats* stats, bool track_rss);

  int ranks() const override { return inner_->ranks(); }
  soc::sim::Op get_next(int rank, soc::SimTime now) override;

 private:
  std::unique_ptr<soc::workloads::OpStream> inner_;
  PullStats* stats_;
  bool track_rss_;
  bool first_ = true;
};

/// Times every CostModel query.
class TimedCost final : public soc::sim::CostModel {
 public:
  explicit TimedCost(const soc::sim::CostModel& inner) : inner_(inner) {}

  soc::SimTime cpu_compute_time(int rank,
                                const soc::sim::Op& op) const override;
  soc::SimTime gpu_kernel_time(int rank,
                               const soc::sim::Op& op) const override;
  soc::SimTime copy_time(int rank, const soc::sim::Op& op) const override;
  soc::SimTime message_latency(int src_node, int dst_node) const override;
  soc::SimTime message_transfer_time(int src_node, int dst_node,
                                     soc::Bytes bytes) const override;
  soc::SimTime send_overhead(int rank) const override;
  soc::SimTime recv_overhead(int rank) const override;
  bool memoizable() const override { return inner_.memoizable(); }

  const Fold& fold() const { return fold_; }

 private:
  const soc::sim::CostModel& inner_;
  mutable Fold fold_;
};

/// Times every observer callback and counts the records delivered.
class TimedObserver final : public soc::sim::EngineObserver {
 public:
  explicit TimedObserver(soc::sim::EngineObserver& inner) : inner_(inner) {}

  void on_run_begin(const soc::sim::Placement& placement,
                    const soc::sim::EngineConfig& config) override;
  void on_dispatch(const soc::sim::DispatchRecord& record) override;
  void on_span(const soc::sim::SpanRecord& span) override;
  void on_message(const soc::sim::MessageRecord& message) override;
  void on_pending(int pending_sends, int pending_recvs) override;
  void on_run_end(const soc::sim::RunStats& stats) override;

  const Fold& fold() const { return fold_; }

 private:
  soc::sim::EngineObserver& inner_;
  Fold fold_;
};

/// Records when one engine run began and ended (one per sweep request).
class RunMarker final : public soc::sim::EngineObserver {
 public:
  void on_run_begin(const soc::sim::Placement&,
                    const soc::sim::EngineConfig&) override;
  void on_run_end(const soc::sim::RunStats&) override;

  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Forwards a registry workload for one sweep request and times, from
/// outside SweepRunner, the two calls it makes into the workload: the
/// gap from cpu_profile() (SweepRunner looks up or builds the cost model
/// right after it) to stream() (cluster::run's first call) is that
/// request's cost-model time, and stream() hands out a TimedStream.
/// Touched only by the sweep thread running its request.
class TimedWorkload final : public soc::workloads::Workload {
 public:
  explicit TimedWorkload(std::unique_ptr<soc::workloads::Workload> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  bool gpu_accelerated() const override { return inner_->gpu_accelerated(); }
  soc::arch::WorkloadProfile cpu_profile() const override;
  std::vector<soc::sim::Program> build(
      const soc::workloads::BuildContext& ctx) const override {
    return inner_->build(ctx);
  }
  std::unique_ptr<soc::workloads::OpStream> stream(
      const soc::workloads::BuildContext& ctx) const override;

  /// Where the next stream's pulls and cost-model time accrue (the run
  /// phase, then the replay phase of the sweep).
  void set_phase(PullStats* pulls, std::uint64_t* cost_ns) {
    pulls_ = pulls;
    cost_ns_ = cost_ns;
  }

 private:
  std::unique_ptr<soc::workloads::Workload> inner_;
  PullStats* pulls_ = nullptr;
  std::uint64_t* cost_ns_ = nullptr;
  mutable std::uint64_t profile_ns_ = 0;
};

}  // namespace perfbench
