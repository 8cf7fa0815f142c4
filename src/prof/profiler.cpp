#include "prof/profiler.h"

#include <algorithm>

#include "common/error.h"

namespace soc::prof {

namespace {

bool is_lane_op(sim::OpKind kind) {
  switch (kind) {
    case sim::OpKind::kCpuCompute:
    case sim::OpKind::kGpuKernel:
    case sim::OpKind::kCopyH2D:
    case sim::OpKind::kCopyD2H:
    case sim::OpKind::kDelay:
      return true;
    default:
      return false;
  }
}

sim::Lane lane_for(sim::OpKind kind) {
  switch (kind) {
    case sim::OpKind::kCpuCompute:
    case sim::OpKind::kDelay:
      return sim::Lane::kCpu;
    case sim::OpKind::kGpuKernel: return sim::Lane::kGpu;
    default: return sim::Lane::kCopy;
  }
}

}  // namespace

void Profiler::on_run_begin(const sim::Placement& placement,
                            const sim::EngineConfig& config) {
  trace_ = RunTrace{};
  trace_.placement = placement;
  trace_.config = config;
  const std::size_t n = static_cast<std::size_t>(placement.ranks);
  trace_.rank_ops.assign(n, {});
  trace_.finish.assign(n, 0);
  trace_.send_overhead.assign(n, -1);
  trace_.recv_overhead.assign(n, -1);
  open_.assign(n, -1);
  joins_.clear();
  built_ = false;
}

// Op windows: each op runs from its first dispatch to the rank's next
// dispatch (a parked kWaitAll is re-dispatched on wake with the same pc,
// which folds into the open instance; no other op dispatches twice).  The
// 0xFF drain record closes the rank's last window.
void Profiler::on_dispatch(const sim::DispatchRecord& record) {
  int& open = open_[static_cast<std::size_t>(record.rank)];
  if (record.kind == 0xFF) {  // rank drained
    if (open >= 0) close(open, record.time);
    open = -1;
    trace_.finish[static_cast<std::size_t>(record.rank)] = record.time;
    return;
  }
  const auto kind = static_cast<sim::OpKind>(record.kind);
  if (kind == sim::OpKind::kPhase) return;  // zero-width, consumed inline
  if (open >= 0 && trace_.ops[static_cast<std::size_t>(open)].pc == record.pc) {
    return;  // re-dispatch of the parked op (kWaitAll wake)
  }
  if (open >= 0) close(open, record.time);
  OpExec op;
  op.kind = kind;
  op.rank = record.rank;
  op.node = record.node;
  op.phase = record.phase;
  op.peer = record.peer;
  op.tag = record.tag;
  op.pc = record.pc;
  op.bytes = record.bytes;
  op.dispatch = record.time;
  open = static_cast<int>(trace_.ops.size());
  trace_.ops.push_back(op);
  trace_.rank_ops[static_cast<std::size_t>(record.rank)].push_back(open);
  if (record.partner_pc >= 0) {
    joins_.push_back(
        Join{-1, record.peer, record.partner_pc, record.rank, record.pc});
  }
  std::erase_if(joins_, [this](const Join& j) { return try_join(j); });
}

// Lane spans are committed by the dispatch that requested them, so each
// belongs to its rank's open op.  NIC occupancy is reconstructed from
// messages instead.
void Profiler::on_span(const sim::SpanRecord& span) {
  trace_.usage.add(span);
  if (span.lane != sim::Lane::kCpu && span.lane != sim::Lane::kGpu &&
      span.lane != sim::Lane::kCopy) {
    return;
  }
  const int open = open_[static_cast<std::size_t>(span.rank)];
  SOC_CHECK(open >= 0, "profiler: span with no matching op");
  OpExec& op = trace_.ops[static_cast<std::size_t>(open)];
  SOC_CHECK(is_lane_op(op.kind) && lane_for(op.kind) == span.lane,
            "profiler: span lane does not match program order");
  op.busy_start = span.start;
  op.busy_end = span.end;
}

void Profiler::on_message(const sim::MessageRecord& message) {
  const int mi = static_cast<int>(trace_.messages.size());
  trace_.messages.push_back(message);
  joins_.push_back(Join{mi, message.src_rank, message.send_pc,
                        message.recv_pc >= 0 ? message.dst_rank : -1,
                        message.recv_pc});
  std::erase_if(joins_, [this](const Join& j) { return try_join(j); });
}

void Profiler::on_run_end(const sim::RunStats& stats) {
  trace_.stats = stats;
  for (const int open : open_) {
    SOC_CHECK(open < 0, "profiler: rank never drained (deadlock?)");
  }
  SOC_CHECK(joins_.empty(), "profiler: transfer endpoint never dispatched");
  finish();
  built_ = true;
}

const RunTrace& Profiler::trace() const {
  SOC_CHECK(built_, "Profiler::trace() before a run completed");
  return trace_;
}

RunTrace Profiler::take_trace() {
  SOC_CHECK(built_, "Profiler::take_trace() before a run completed");
  built_ = false;
  return std::move(trace_);
}

int Profiler::find_op(int rank, std::int32_t pc) const {
  // rank_ops holds each rank's ops in program (pc) order.
  const std::vector<int>& ops = trace_.rank_ops[static_cast<std::size_t>(rank)];
  const auto it = std::lower_bound(
      ops.begin(), ops.end(), pc, [this](int oi, std::int32_t v) {
        return trace_.ops[static_cast<std::size_t>(oi)].pc < v;
      });
  if (it == ops.end() || trace_.ops[static_cast<std::size_t>(*it)].pc != pc) {
    return -1;
  }
  return *it;
}

bool Profiler::try_join(const Join& j) {
  const int si = find_op(j.send_rank, j.send_pc);
  const int ri = j.recv_rank < 0 ? -1 : find_op(j.recv_rank, j.recv_pc);
  if (si < 0 || (j.recv_rank >= 0 && ri < 0)) return false;
  OpExec& send = trace_.ops[static_cast<std::size_t>(si)];
  const int mi = j.msg >= 0 ? j.msg : send.msg;
  if (mi < 0) return false;  // the payload's commit has not been seen yet
  send.msg = mi;
  if (ri < 0) return true;  // the receive names this send when it posts
  OpExec& recv = trace_.ops[static_cast<std::size_t>(ri)];
  recv.msg = mi;
  recv.partner = si;
  recv.partner_ready = send.dispatch;
  send.partner = ri;
  // An eager sender never waits on its receiver; its window is the local
  // posting overhead and partner_ready stays unset.
  if (!trace_.messages[static_cast<std::size_t>(mi)].eager) {
    send.partner_ready = recv.dispatch;
  }
  return true;
}

void Profiler::close(int oi, SimTime time) {
  OpExec& op = trace_.ops[static_cast<std::size_t>(oi)];
  op.complete = time;
  SOC_CHECK(!is_lane_op(op.kind) || op.busy_end == op.complete,
            "profiler: lane span does not end at op completion");
}

void Profiler::finish() {
  const std::size_t n = trace_.rank_ops.size();
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<int> window;  // isend/irecv since the last kWaitAll
    for (const int oi : trace_.rank_ops[r]) {
      OpExec& op = trace_.ops[oi];
      switch (op.kind) {
        case sim::OpKind::kSend:
          SOC_CHECK(op.msg >= 0, "profiler: unmatched send");
          if (trace_.messages[op.msg].eager) {
            if (trace_.send_overhead[r] < 0) {
              trace_.send_overhead[r] = op.complete - op.dispatch;
            }
          } else {
            // A rendezvous sender runs again when the CTS lands
            // (sender_complete); across nodes that is one wire latency
            // after the match, not the wire end itself.
            SOC_CHECK(op.complete == trace_.messages[op.msg].sender_complete,
                      "profiler: rendezvous send window mismatch");
          }
          break;
        case sim::OpKind::kRecv: {
          SOC_CHECK(op.msg >= 0, "profiler: unmatched recv");
          const sim::MessageRecord& m = trace_.messages[op.msg];
          if (m.eager) {
            // delivery, not the nominal wire end: switch output-port
            // queueing shifts when the payload actually lands.
            if (trace_.recv_overhead[r] < 0) {
              trace_.recv_overhead[r] =
                  op.complete - std::max(op.dispatch, m.delivery);
            }
          } else {
            SOC_CHECK(op.complete == m.delivery,
                      "profiler: rendezvous recv window mismatch");
          }
          break;
        }
        case sim::OpKind::kIsend:
          if (trace_.send_overhead[r] < 0) {
            trace_.send_overhead[r] = op.complete - op.dispatch;
          }
          window.push_back(oi);
          break;
        case sim::OpKind::kIrecv:
          if (trace_.recv_overhead[r] < 0) {
            trace_.recv_overhead[r] = op.complete - op.dispatch;
          }
          window.push_back(oi);
          break;
        case sim::OpKind::kWaitAll: {
          // Request completions, derived per request without needing any
          // cost-model constant: an isend completes locally with its
          // posting; an irecv completes at max(posting done, message
          // arrival + its own posting overhead).
          SimTime best = 0;
          int det = -1;
          for (const int qi : window) {
            const OpExec& q = trace_.ops[qi];
            SimTime done = q.complete;
            if (q.kind == sim::OpKind::kIrecv) {
              SOC_CHECK(q.msg >= 0, "profiler: unmatched irecv");
              done = std::max(done, trace_.messages[q.msg].delivery +
                                        (q.complete - q.dispatch));
            }
            if (done > best) {
              best = done;
              det = qi;
            }
          }
          window.clear();
          if (op.complete > op.dispatch) {
            SOC_CHECK(det >= 0 && best == op.complete,
                      "profiler: waitall completion mismatch");
            op.determinant = det;
          } else {
            SOC_CHECK(best <= op.complete,
                      "profiler: request outlived its waitall");
          }
          break;
        }
        default:
          break;
      }
    }
  }
}

}  // namespace soc::prof
