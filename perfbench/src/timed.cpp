#include "timed.h"

#include "common/alloc_stats.h"
#include "common/error.h"
#include "ledger.h"

namespace perfbench {

namespace {

/// Runs `call` and folds its host time and allocations into `fold`.
template <typename F>
auto timed(Fold& fold, F&& call) {
  const std::uint64_t a0 = soc::allocation_count();
  const std::uint64_t t0 = now_ns();
  auto result = call();
  fold.ns += now_ns() - t0;
  fold.allocs += soc::allocation_count() - a0;
  ++fold.calls;
  return result;
}

template <typename F>
void timed_void(Fold& fold, F&& call) {
  timed(fold, [&] {
    call();
    return 0;
  });
}

}  // namespace

TimedStream::TimedStream(std::unique_ptr<soc::workloads::OpStream> inner,
                         PullStats* stats, bool track_rss)
    : inner_(std::move(inner)), stats_(stats), track_rss_(track_rss) {
  SOC_CHECK(inner_ != nullptr && stats_ != nullptr,
            "TimedStream needs a stream and a sink");
}

soc::sim::Op TimedStream::get_next(int rank, soc::SimTime now) {
  // The first pull runs the workload's lazy generation; besides being
  // folded with the rest, it is timed on its own and its RSS growth read.
  const bool first = first_;
  first_ = false;
  const double rss0 = first && track_rss_ ? rss_mb() : 0.0;
  const std::uint64_t t0 = now_ns();
  const soc::sim::Op op =
      timed(stats_->pulls, [&] { return inner_->get_next(rank, now); });
  if (first) {
    stats_->first_pull_ns += now_ns() - t0;
    if (track_rss_) {
      stats_->rss_after_first_mb = rss_mb();
      stats_->first_pull_rss_mb += stats_->rss_after_first_mb - rss0;
    }
  }
  if (op.kind != soc::sim::OpKind::kEnd) ++stats_->ops;
  return op;
}

soc::SimTime TimedCost::cpu_compute_time(int rank,
                                         const soc::sim::Op& op) const {
  return timed(fold_, [&] { return inner_.cpu_compute_time(rank, op); });
}

soc::SimTime TimedCost::gpu_kernel_time(int rank,
                                        const soc::sim::Op& op) const {
  return timed(fold_, [&] { return inner_.gpu_kernel_time(rank, op); });
}

soc::SimTime TimedCost::copy_time(int rank, const soc::sim::Op& op) const {
  return timed(fold_, [&] { return inner_.copy_time(rank, op); });
}

soc::SimTime TimedCost::message_latency(int src_node, int dst_node) const {
  return timed(fold_,
               [&] { return inner_.message_latency(src_node, dst_node); });
}

soc::SimTime TimedCost::message_transfer_time(int src_node, int dst_node,
                                              soc::Bytes bytes) const {
  return timed(fold_, [&] {
    return inner_.message_transfer_time(src_node, dst_node, bytes);
  });
}

soc::SimTime TimedCost::send_overhead(int rank) const {
  return timed(fold_, [&] { return inner_.send_overhead(rank); });
}

soc::SimTime TimedCost::recv_overhead(int rank) const {
  return timed(fold_, [&] { return inner_.recv_overhead(rank); });
}

void TimedObserver::on_run_begin(const soc::sim::Placement& placement,
                                 const soc::sim::EngineConfig& config) {
  timed_void(fold_, [&] { inner_.on_run_begin(placement, config); });
}

void TimedObserver::on_dispatch(const soc::sim::DispatchRecord& record) {
  timed_void(fold_, [&] { inner_.on_dispatch(record); });
}

void TimedObserver::on_span(const soc::sim::SpanRecord& span) {
  timed_void(fold_, [&] { inner_.on_span(span); });
}

void TimedObserver::on_message(const soc::sim::MessageRecord& message) {
  timed_void(fold_, [&] { inner_.on_message(message); });
}

void TimedObserver::on_pending(int pending_sends, int pending_recvs) {
  timed_void(fold_, [&] { inner_.on_pending(pending_sends, pending_recvs); });
}

void TimedObserver::on_run_end(const soc::sim::RunStats& stats) {
  timed_void(fold_, [&] { inner_.on_run_end(stats); });
}

void RunMarker::on_run_begin(const soc::sim::Placement&,
                             const soc::sim::EngineConfig&) {
  begin_ns = now_ns();
}

void RunMarker::on_run_end(const soc::sim::RunStats&) { end_ns = now_ns(); }

soc::arch::WorkloadProfile TimedWorkload::cpu_profile() const {
  profile_ns_ = now_ns();
  return inner_->cpu_profile();
}

std::unique_ptr<soc::workloads::OpStream> TimedWorkload::stream(
    const soc::workloads::BuildContext& ctx) const {
  SOC_CHECK(pulls_ != nullptr && cost_ns_ != nullptr,
            "TimedWorkload used before set_phase");
  if (profile_ns_ != 0) {
    *cost_ns_ += now_ns() - profile_ns_;
    profile_ns_ = 0;
  }
  return std::make_unique<TimedStream>(inner_->stream(ctx), pulls_,
                                       /*track_rss=*/false);
}

}  // namespace perfbench
