#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"

namespace soc::sim {

const char* lane_name(Lane lane) {
  switch (lane) {
    case Lane::kCpu: return "cpu";
    case Lane::kGpu: return "gpu";
    case Lane::kCopy: return "copy";
    case Lane::kNicTx: return "nic-tx";
    case Lane::kNicRx: return "nic-rx";
    case Lane::kCount: break;
  }
  return "?";
}

// Default observer callbacks are no-ops so implementations override only
// the streams they consume (and the vtable is anchored here).
void EngineObserver::on_run_begin(const Placement&, const EngineConfig&) {}
void EngineObserver::on_dispatch(const DispatchRecord&) {}
void EngineObserver::on_span(const SpanRecord&) {}
void EngineObserver::on_message(const MessageRecord&) {}
void EngineObserver::on_pending(int, int) {}
void EngineObserver::on_run_end(const RunStats&) {}

Placement Placement::block(int ranks, int nodes) {
  SOC_CHECK(ranks > 0 && nodes > 0, "placement needs positive sizes");
  SOC_CHECK(ranks % nodes == 0, "block placement needs ranks % nodes == 0");
  Placement p;
  p.ranks = ranks;
  p.nodes = nodes;
  p.node_of.resize(static_cast<std::size_t>(ranks));
  const int per_node = ranks / nodes;
  for (int r = 0; r < ranks; ++r) p.node_of[static_cast<std::size_t>(r)] = r / per_node;
  return p;
}

Engine::Engine(Placement placement, const CostModel& cost_model,
               EngineConfig config, Scenario scenario)
    : placement_(std::move(placement)),
      cost_(cost_model),
      config_(config),
      scenario_(std::move(scenario)) {
  SOC_CHECK(placement_.ranks > 0, "no ranks");
  SOC_CHECK(placement_.ranks <= (1 << 16),
            "message keys hold rank ids in 16 bits (at most 65536 ranks)");
  SOC_CHECK(static_cast<int>(placement_.node_of.size()) == placement_.ranks,
            "placement size mismatch");
  SOC_CHECK(scenario_.compute_scale.empty() ||
                static_cast<int>(scenario_.compute_scale.size()) ==
                    placement_.ranks,
            "compute_scale size mismatch");
  SOC_CHECK(config_.shards == 1,
            "EngineConfig::shards must be 1: the engine runs one serial "
            "event loop (run independent configurations in parallel with "
            "sweep::SweepRunner)");
}

std::uint64_t Engine::wake_key(int rank) {
  // Class bit set: wake-ups sort after protocol messages at equal times
  // (a proto can schedule a same-time wake, never the reverse).
  return (1ULL << 63) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 47);
}

std::uint64_t Engine::next_proto_key(int emitter_rank, int dst_rank) {
  // Class bit clear; (emitter, per-emitter seq) makes the key unique among
  // all coexisting events.
  const std::uint32_t seq =
      proto_seq_[static_cast<std::size_t>(emitter_rank)]++;
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst_rank))
          << 47) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(emitter_rank))
          << 32) |
         seq;
}

bool Engine::use_protocol(int src_rank, int dst_rank) const {
  return protocol_ &&
         placement_.node_of[static_cast<std::size_t>(src_rank)] !=
             placement_.node_of[static_cast<std::size_t>(dst_rank)];
}

double Engine::compute_scale_for(int rank) const {
  if (scenario_.compute_scale.empty()) return 1.0;
  return scenario_.compute_scale[static_cast<std::size_t>(rank)];
}

SimTime Engine::scaled(SimTime t, int rank) const {
  const double s = compute_scale_for(rank);
  if (s == 1.0) return t;
  return static_cast<SimTime>(std::llround(static_cast<double>(t) * s));
}

void Engine::add_phase_compute(int rank, SimTime duration) {
  auto& rs = stats_.ranks[static_cast<std::size_t>(rank)];
  rs.phase_compute[states_[static_cast<std::size_t>(rank)].phase] += duration;
}

void Engine::bin_busy(std::vector<double>& lane, SimTime start, SimTime end) {
  if (end <= start) return;
  const std::size_t last_bin = static_cast<std::size_t>(end / bin_ns_);
  if (lane.size() <= last_bin) lane.resize(last_bin + 1, 0.0);
  SimTime t = start;
  while (t < end) {
    const SimTime bin = t / bin_ns_;
    const SimTime bin_end = (bin + 1) * bin_ns_;
    const SimTime chunk = std::min(end, bin_end) - t;
    lane[static_cast<std::size_t>(bin)] += to_seconds(chunk);
    t += chunk;
  }
}

void Engine::bin_value(std::vector<double>& lane, SimTime at, double value) {
  const std::size_t bin = static_cast<std::size_t>(at / bin_ns_);
  if (lane.size() <= bin) lane.resize(bin + 1, 0.0);
  lane[bin] += value;
}

namespace {

// Straggler injection: op.time_scale stretches the cost-model-derived
// duration AFTER memo lookup, so memoized costs stay shared across
// scaled and unscaled ranks.
SimTime apply_time_scale(SimTime t, const Op& op) {
  if (op.time_scale == 1.0) return t;
  return static_cast<SimTime>(
      std::llround(static_cast<double>(t) * op.time_scale));
}

// Pops the front of `key`'s queue and erases the key once the queue
// drains.  Tags are never reused, so a drained entry would otherwise sit
// in the table for the rest of the run; with the erase, a key is present
// exactly while something is queued under it.
template <typename T>
T take_front(flat_map<std::uint64_t, RingQueue<T>>& table, std::uint64_t key,
             RingQueue<T>& queue) {
  T value = queue.front();
  queue.pop_front();
  if (queue.empty()) table.erase(key);
  return value;
}

}  // namespace

RunStats Engine::run(const std::vector<Program>& programs) {
  SOC_CHECK(static_cast<int>(programs.size()) == placement_.ranks,
            "one program per rank required");
  ProgramSource source(programs);
  return run(source);
}

RunStats Engine::run(OpSource& source) {
  SOC_CHECK(source.ranks() == placement_.ranks,
            "one op stream per rank required");
  const std::size_t n = static_cast<std::size_t>(placement_.ranks);
  const std::size_t nodes = static_cast<std::size_t>(placement_.nodes);
  source_ = &source;

  // Self-telemetry attaches for exactly one run; with no sink every
  // instrumentation site below is a single `tel_ != nullptr` test.
  tel_ = config_.telemetry;
  if (tel_ != nullptr) tel_->reset();
  counters_ = ShardCounters{};

  // Cross-node pairs communicate through timestamped protocol messages
  // whenever the network is real.
  protocol_ = !scenario_.ideal_network && placement_.nodes > 1;
  if (protocol_) {
    SOC_CHECK(placement_.ranks < (1 << 15),
              "protocol event keys support < 32768 ranks");
  }

  states_.assign(n, RankState{});
  stats_ = RunStats{};
  stats_.timeline_bin_seconds = config_.timeline_bin_seconds;
  bin_ns_ = static_cast<SimTime>(
      std::llround(config_.timeline_bin_seconds * static_cast<double>(kSecond)));
  stats_.ranks.assign(n, RankStats{});
  stats_.nodes.assign(nodes, NodeTimeline{});
  gpu_free_.assign(nodes, 0);
  copy_free_.assign(nodes, 0);
  nic_tx_free_.assign(nodes, 0);
  nic_rx_free_.assign(nodes, 0);
  port_free_.assign(nodes, 0);
  proto_seq_.assign(n, 0);

  // Reservations only: the queue and tables grow on demand past them.
  const std::size_t reserve = 2 * n + 16;
  queue_.clear();
  queue_.reserve(reserve);
  proto_pool_.clear();
  proto_free_.clear();
  pending_sends_.clear();
  pending_recvs_.clear();
  pending_irecvs_.clear();
  arrivals_.clear();
  pending_sends_.reserve(reserve);
  pending_recvs_.reserve(reserve);
  pending_irecvs_.reserve(reserve);
  arrivals_.reserve(reserve);
  commits_.clear();
  ev_time_ = 0;
  ev_key_ = 0;
  audit_ = Fnv1a{};
  pending_send_depth_ = 0;
  pending_recv_depth_ = 0;
  if (observer_ != nullptr) observer_->on_run_begin(placement_, config_);

  const SimTime horizon = from_seconds(config_.max_sim_seconds);
  for (std::size_t r = 0; r < n; ++r) wake(static_cast<int>(r), 0);

  // Commit records flush in canonical (time, key) order once per
  // completed timestamp: every event at that time has run by then, so
  // sorting the batch is enough.
  SimTime flushed = 0;
  while (!queue_.empty()) {
    if (queue_.top().time != flushed) {
      replay_commits();
      flushed = queue_.top().time;
    }
    const KeyedEvent e = queue_.pop();
    SOC_CHECK(e.time <= horizon, "simulation exceeded max_sim_seconds");
    process_event(e);
  }
  replay_commits();
  source_ = nullptr;

  // Every rank must have drained its stream; otherwise communication
  // deadlocked (a send or recv never found its partner).
  for (std::size_t r = 0; r < n; ++r) {
    if (!states_[r].done) {
      std::ostringstream os;
      os << "deadlock: rank " << r << " stuck at op " << states_[r].pc;
      if (states_[r].have_current) {
        const Op& op = states_[r].current;
        os << " (kind=" << static_cast<int>(op.kind) << " peer=" << op.peer
           << " tag=" << op.tag << ")";
      }
      throw Error(os.str());
    }
  }

  for (std::size_t r = 0; r < n; ++r) {
    const RankStats& rs = stats_.ranks[r];
    stats_.makespan = std::max(stats_.makespan, rs.finish_time);
    stats_.total_net_bytes += rs.net_bytes_sent;
    stats_.total_dram_bytes += rs.dram_bytes;
    stats_.total_gpu_dram_bytes += rs.gpu_dram_bytes;
    stats_.total_flops += rs.flops;
    stats_.total_gpu_flops += rs.gpu_flops;
  }
  stats_.event_checksum = audit_.value();
  if (observer_ != nullptr) observer_->on_run_end(stats_);
  if (tel_ != nullptr) {
    tel_->events_committed = stats_.events_committed;
    tel_->shard.assign(1, counters_);
    tel_ = nullptr;
  }
  return stats_;
}

void Engine::enqueue_proto(const ProtoMsg& p) {
  if (tel_ != nullptr) {
    switch (p.kind) {
      case ProtoKind::kArrival: ++counters_.protos_arrival; break;
      case ProtoKind::kRts: ++counters_.protos_rts; break;
      case ProtoKind::kCts: ++counters_.protos_cts; break;
    }
  }
  std::int32_t slot;
  if (!proto_free_.empty()) {
    slot = proto_free_.back();
    proto_free_.pop_back();
    proto_pool_[static_cast<std::size_t>(slot)] = p;
  } else {
    slot = static_cast<std::int32_t>(proto_pool_.size());
    proto_pool_.push_back(p);
  }
  // Negative payload marks a proto; the slot survives until the event
  // pops.
  queue_.push(p.time, p.key, -(slot + 1));
  if (tel_ != nullptr && queue_.size() > counters_.queue_high_water) {
    counters_.queue_high_water = queue_.size();
  }
}

void Engine::process_event(const KeyedEvent& e) {
  // Commit records emitted while this event executes inherit its
  // canonical (time, key), which replay_commits sorts on.
  ev_time_ = e.time;
  ev_key_ = e.key;
  if (tel_ != nullptr) ++counters_.events_processed;
  if (e.payload < 0) {
    const std::int32_t slot = -(e.payload + 1);
    const ProtoMsg p = proto_pool_[static_cast<std::size_t>(slot)];
    proto_free_.push_back(slot);
    switch (p.kind) {
      case ProtoKind::kArrival: process_arrival(p, e.time); return;
      case ProtoKind::kRts: process_rts(p, e.time); return;
      case ProtoKind::kCts: process_cts(p, e.time); return;
    }
    SOC_CHECK(false, "unknown protocol message kind");
  }
  execute_next(e.payload, e.time);
}

void Engine::replay_commits() {
  // 98.8-100% of batches arrive in order on the benchmark workloads
  // (DESIGN.md §16); checking first skips stable_sort's temporary buffer,
  // one allocation per timestamp.
  const auto earlier = [](const CommitRec& a, const CommitRec& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  };
  if (!std::is_sorted(commits_.begin(), commits_.end(), earlier)) {
    std::stable_sort(commits_.begin(), commits_.end(), earlier);
  }
  for (const CommitRec& rec : commits_) {
    switch (rec.type) {
      case CommitType::kDispatch: {
        const DispatchRecord& d = rec.u.dispatch;
        audit_.mix_i64(d.time)
            .mix_u64(static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(d.rank)))
            .mix_byte(d.kind)
            .mix_i64(d.bytes);
        ++stats_.events_committed;
        if (observer_ != nullptr) observer_->on_dispatch(d);
        break;
      }
      case CommitType::kSpan:
        if (observer_ != nullptr) observer_->on_span(rec.u.span);
        break;
      case CommitType::kMessage:
        if (observer_ != nullptr) observer_->on_message(rec.u.message);
        break;
      case CommitType::kPendingPark:
        pending_send_depth_ += rec.u.pending.sends;
        pending_recv_depth_ += rec.u.pending.recvs;
        if (observer_ != nullptr) {
          observer_->on_pending(pending_send_depth_, pending_recv_depth_);
        }
        break;
      case CommitType::kPendingMatch:
        pending_send_depth_ += rec.u.pending.sends;
        pending_recv_depth_ += rec.u.pending.recvs;
        break;
    }
  }
  if (tel_ != nullptr) tel_->commit_records += commits_.size();
  commits_.clear();
}

Engine::CommitRec& Engine::push_commit(CommitType type) {
  CommitRec& rec = commits_.emplace_back();
  rec.time = ev_time_;
  rec.key = ev_key_;
  rec.type = type;
  return rec;
}

void Engine::commit_dispatch(int rank, SimTime now, std::uint8_t kind,
                             Bytes bytes, int peer, int tag) {
  DispatchRecord& d = push_commit(CommitType::kDispatch).u.dispatch;
  d.time = now;
  d.rank = rank;
  d.node = placement_.node_of[static_cast<std::size_t>(rank)];
  d.phase = states_[static_cast<std::size_t>(rank)].phase;
  d.kind = kind;
  d.bytes = bytes;
  d.pc = static_cast<std::int32_t>(states_[static_cast<std::size_t>(rank)].pc);
  d.peer = peer;
  d.tag = tag;
}

void Engine::commit_span(Lane lane, int rank, int node, std::uint8_t kind,
                         SimTime start, SimTime end, SimTime queue_wait,
                         SimTime fabric_wait, Bytes bytes) {
  if (observer_ == nullptr) return;
  SpanRecord& span = push_commit(CommitType::kSpan).u.span;
  span.lane = lane;
  span.rank = rank;
  span.node = node;
  span.phase = states_[static_cast<std::size_t>(rank)].phase;
  span.kind = kind;
  span.start = start;
  span.end = end;
  span.queue_wait = queue_wait;
  span.fabric_wait = fabric_wait;
  span.bytes = bytes;
}

void Engine::commit_message(const MessageRecord& message) {
  if (observer_ == nullptr) return;
  push_commit(CommitType::kMessage).u.message = message;
}

void Engine::commit_pending(int dsends, int drecvs, bool park) {
  if (observer_ == nullptr) return;
  PendingDelta& delta =
      push_commit(park ? CommitType::kPendingPark : CommitType::kPendingMatch)
          .u.pending;
  delta.sends = dsends;
  delta.recvs = drecvs;
}

void Engine::advance(int rank) {
  auto& st = states_[static_cast<std::size_t>(rank)];
  ++st.pc;
  st.have_current = false;
}

void Engine::wake(int rank, SimTime time) {
  queue_.push(time, wake_key(rank), rank);
  if (tel_ != nullptr) {
    ++counters_.wakes;
    if (queue_.size() > counters_.queue_high_water) {
      counters_.queue_high_water = queue_.size();
    }
  }
}

void Engine::execute_next(int rank, SimTime now) {
  auto& st = states_[static_cast<std::size_t>(rank)];
  st.blocked = false;

  // Zero-cost ops (phase markers) are consumed inline; any op with real
  // duration schedules a wake-up and returns.  A parked op (rendezvous,
  // kWaitAll) stays buffered in st.current, so wake-ups re-dispatch it
  // without pulling the source again.
  for (;;) {
    if (!st.have_current) {
      if (st.exhausted || !source_->next(rank, now, &st.current)) {
        st.exhausted = true;
        break;
      }
      st.have_current = true;
      if (tel_ != nullptr) ++counters_.ops_fetched;
    }
    const Op& op = st.current;
    // Every dispatch — including re-dispatch of a parked op after a
    // wake-up — is one record of the determinism digest.  The dispatch
    // sequence is exactly the engine's canonical total event order, so
    // equal digests mean equal schedules.
    commit_dispatch(rank, now, static_cast<std::uint8_t>(op.kind), op.bytes,
                    op.peer, op.tag);
    switch (op.kind) {
      case OpKind::kPhase:
        st.phase = op.phase;
        advance(rank);
        continue;
      case OpKind::kCpuCompute:
        start_compute(rank, now, op);
        return;
      case OpKind::kGpuKernel:
        start_gpu(rank, now, op);
        return;
      case OpKind::kCopyH2D:
      case OpKind::kCopyD2H:
        start_copy(rank, now, op);
        return;
      case OpKind::kSend:
        start_send(rank, now, op);
        return;
      case OpKind::kRecv:
        start_recv(rank, now, op);
        return;
      case OpKind::kIsend:
        start_isend(rank, now, op);
        return;  // rank re-scheduled after the posting overhead
      case OpKind::kIrecv:
        start_irecv(rank, now, op);
        return;
      case OpKind::kWaitAll:
        start_wait_all(rank, now);
        return;
      case OpKind::kDelay:
        start_delay(rank, now, op);
        return;
      case OpKind::kEnd:
        // End-of-stream is signalled by next() returning false;
        // workloads::OpStream bridges the kEnd sentinel to that.
        SOC_CHECK(false, "kEnd sentinel must not reach the engine");
        return;
    }
  }
  st.done = true;
  commit_dispatch(rank, now, kRankDoneAudit, 0);
  stats_.ranks[static_cast<std::size_t>(rank)].finish_time =
      std::max(stats_.ranks[static_cast<std::size_t>(rank)].finish_time, now);
}

void Engine::start_compute(int rank, SimTime now, const Op& op) {
  auto& rs = stats_.ranks[static_cast<std::size_t>(rank)];
  const int node = placement_.node_of[static_cast<std::size_t>(rank)];
  const SimTime dur =
      scaled(apply_time_scale(cost_.cpu_compute_time(rank, op), op), rank);

  rs.cpu_busy += dur;
  rs.flops += op.flops;
  rs.instructions += op.instructions;
  rs.dram_bytes += op.dram_bytes;
  if (op.profile >= 0) rs.instructions_by_profile[op.profile] += op.instructions;
  add_phase_compute(rank, dur);
  bin_busy(stats_.nodes[static_cast<std::size_t>(node)].cpu_busy, now, now + dur);
  bin_value(stats_.nodes[static_cast<std::size_t>(node)].dram_bytes, now,
            static_cast<double>(op.dram_bytes));
  commit_span(Lane::kCpu, rank, node, static_cast<std::uint8_t>(op.kind),
              now, now + dur, 0, 0, op.dram_bytes);

  advance(rank);
  wake(rank, now + dur);
}

void Engine::start_delay(int rank, SimTime now, const Op& op) {
  auto& rs = stats_.ranks[static_cast<std::size_t>(rank)];
  const int node = placement_.node_of[static_cast<std::size_t>(rank)];
  // An injected stall occupies the host like compute (the core spins or
  // the OS holds it), so it flows through cpu_busy, the per-phase
  // compute ledger, and the node timeline — which is exactly what lets
  // the LB/Ser/Trf decomposition and energy attribution explain the
  // damage with zero residual.  compute_scale (what-if DVFS on replay)
  // applies; op.time_scale does not: a fixed stall is wall-clock.
  const SimTime dur = scaled(from_seconds(op.delay_seconds), rank);

  rs.cpu_busy += dur;
  add_phase_compute(rank, dur);
  bin_busy(stats_.nodes[static_cast<std::size_t>(node)].cpu_busy, now, now + dur);
  commit_span(Lane::kCpu, rank, node, static_cast<std::uint8_t>(op.kind),
              now, now + dur, 0, 0, 0);

  advance(rank);
  wake(rank, now + dur);
}

void Engine::start_gpu(int rank, SimTime now, const Op& op) {
  auto& rs = stats_.ranks[static_cast<std::size_t>(rank)];
  const int node = placement_.node_of[static_cast<std::size_t>(rank)];
  auto& gpu_free = gpu_free_[static_cast<std::size_t>(node)];

  const SimTime start = std::max(now, gpu_free);
  const SimTime dur =
      scaled(apply_time_scale(cost_.gpu_kernel_time(rank, op), op), rank);
  if (!scenario_.uncontended) gpu_free = start + dur;

  rs.gpu_queue_wait += start - now;
  rs.gpu_busy += dur;
  rs.flops += op.flops;
  rs.gpu_flops += op.flops;
  rs.dram_bytes += op.dram_bytes;
  rs.gpu_dram_bytes += op.dram_bytes;
  add_phase_compute(rank, dur);
  bin_busy(stats_.nodes[static_cast<std::size_t>(node)].gpu_busy, start,
           start + dur);
  bin_value(stats_.nodes[static_cast<std::size_t>(node)].dram_bytes, start,
            static_cast<double>(op.dram_bytes));
  commit_span(Lane::kGpu, rank, node, static_cast<std::uint8_t>(op.kind),
              start, start + dur, start - now, 0, op.dram_bytes);

  advance(rank);
  wake(rank, start + dur);
}

void Engine::start_copy(int rank, SimTime now, const Op& op) {
  auto& rs = stats_.ranks[static_cast<std::size_t>(rank)];
  const int node = placement_.node_of[static_cast<std::size_t>(rank)];
  auto& copy_free = copy_free_[static_cast<std::size_t>(node)];

  const SimTime start = std::max(now, copy_free);
  const SimTime dur =
      scaled(apply_time_scale(cost_.copy_time(rank, op), op), rank);
  if (!scenario_.uncontended) copy_free = start + dur;

  rs.copy_busy += dur;
  // An explicit copy reads and writes main memory once each.  Copies are
  // NOT useful compute: they are host/device synchronization, which the
  // efficiency decomposition must see as serialization (§III-B.4).
  const Bytes traffic = op.bytes * 2;
  rs.dram_bytes += traffic;
  rs.gpu_dram_bytes += traffic;
  bin_value(stats_.nodes[static_cast<std::size_t>(node)].dram_bytes, start,
            static_cast<double>(traffic));
  commit_span(Lane::kCopy, rank, node, static_cast<std::uint8_t>(op.kind),
              start, start + dur, start - now, 0, op.bytes);

  advance(rank);
  wake(rank, start + dur);
}

void Engine::start_send(int rank, SimTime now, const Op& op) {
  SOC_CHECK(op.peer >= 0 && op.peer < placement_.ranks && op.peer != rank,
            "invalid send peer");
  auto& st = states_[static_cast<std::size_t>(rank)];
  if (op.bytes <= config_.eager_threshold) {
    const SimTime done = post_eager(rank, now, op);
    advance(rank);
    wake(rank, done);
    return;
  }
  const PendingSend self{rank, static_cast<std::int32_t>(st.pc), now,
                         op.bytes, st.phase, 0};
  if (use_protocol(rank, op.peer)) {
    // Rendezvous: park and announce with an RTS that reaches the
    // receiver one wire latency from now.  The matching receive
    // computes the transfer there and unblocks us with a kCts.
    const int src_node = placement_.node_of[static_cast<std::size_t>(rank)];
    const int dst_node = placement_.node_of[static_cast<std::size_t>(op.peer)];
    ProtoMsg p;
    p.kind = ProtoKind::kRts;
    p.src_rank = rank;
    p.dst_rank = op.peer;
    p.tag = op.tag;
    p.phase = st.phase;
    p.src_pc = self.pc;
    p.bytes = op.bytes;
    p.requested = now;
    p.tx_est = nic_tx_free_[static_cast<std::size_t>(src_node)];
    p.time = now + cost_.message_latency(src_node, dst_node);
    p.key = next_proto_key(rank, op.peer);
    enqueue_proto(p);
    st.blocked = true;
    return;
  }

  // Rendezvous: need a posted receive (blocking or non-blocking).
  const MsgKey key = message_key(rank, op.peer, op.tag);
  auto* pending = pending_recvs_.find(key);
  if (pending != nullptr) {
    const PendingRecv pr = take_front(pending_recvs_, key, *pending);
    commit_pending(0, -1, /*park=*/false);
    complete_rendezvous(self, pr, op.tag);
    return;
  }
  auto* posted = pending_irecvs_.find(key);
  if (posted != nullptr) {
    const PendingRecv recv = take_front(pending_irecvs_, key, *posted);
    commit_pending(0, -1, /*park=*/false);
    const SimTime end = timed_transfer(self, recv, now, op.tag);
    stats_.ranks[static_cast<std::size_t>(rank)].send_blocked += end - now;
    advance(rank);
    wake(rank, end);
    resolve_request(recv.rank, end + cost_.recv_overhead(recv.rank));
    return;
  }
  pending_sends_[key].push_back(self);
  commit_pending(1, 0, /*park=*/true);
  st.blocked = true;
}

void Engine::start_recv(int rank, SimTime now, const Op& op) {
  SOC_CHECK(op.peer >= 0 && op.peer < placement_.ranks && op.peer != rank,
            "invalid recv peer");
  auto& st = states_[static_cast<std::size_t>(rank)];
  auto& rs = stats_.ranks[static_cast<std::size_t>(rank)];
  const MsgKey key = message_key(op.peer, rank, op.tag);
  const PendingRecv self{rank, static_cast<std::int32_t>(st.pc), now};

  // Eager message already delivered?
  auto* arrived = arrivals_.find(key);
  if (arrived != nullptr) {
    const Arrival a = take_arrival(key, *arrived);
    const SimTime complete = std::max(now, a.time) + cost_.recv_overhead(rank);
    rs.recv_blocked += complete - now;
    advance(rank);
    wake(rank, complete);
    return;
  }

  // Rendezvous partner already waiting (parked sender, or its RTS)?
  auto* pending = pending_sends_.find(key);
  if (pending != nullptr) {
    const PendingSend ps = take_front(pending_sends_, key, *pending);
    commit_pending(-1, 0, /*park=*/false);
    if (use_protocol(op.peer, rank)) {
      const SimTime end =
          rendezvous_match(ps, self, now, std::max(ps.ready, now), op.tag);
      rs.recv_blocked += end - now;
      advance(rank);
      wake(rank, end);
    } else {
      complete_rendezvous(ps, self, op.tag);
    }
    return;
  }
  pending_recvs_[key].push_back(self);
  commit_pending(0, 1, /*park=*/true);
  st.blocked = true;
}

void Engine::start_isend(int rank, SimTime now, const Op& op) {
  SOC_CHECK(op.peer >= 0 && op.peer < placement_.ranks && op.peer != rank,
            "invalid isend peer");
  auto& st = states_[static_cast<std::size_t>(rank)];
  // Buffered semantics: the transfer launches now; the sender only pays
  // the posting overhead and its request completes locally.
  const SimTime done = post_eager(rank, now, op);
  st.requests_complete = std::max(st.requests_complete, done);
  advance(rank);
  wake(rank, done);
}

void Engine::start_irecv(int rank, SimTime now, const Op& op) {
  SOC_CHECK(op.peer >= 0 && op.peer < placement_.ranks && op.peer != rank,
            "invalid irecv peer");
  auto& st = states_[static_cast<std::size_t>(rank)];
  const MsgKey key = message_key(op.peer, rank, op.tag);
  const PendingRecv self{rank, static_cast<std::int32_t>(st.pc), now};

  // Already-arrived (eager/isend) message?
  auto* arrived = arrivals_.find(key);
  if (arrived != nullptr) {
    const Arrival a = take_arrival(key, *arrived);
    st.requests_complete =
        std::max(st.requests_complete,
                 std::max(now, a.time) + cost_.recv_overhead(rank));
  } else {
    // A blocking sender already parked in rendezvous (or its RTS landed)?
    auto* pending = pending_sends_.find(key);
    if (pending != nullptr) {
      const PendingSend ps = take_front(pending_sends_, key, *pending);
      commit_pending(-1, 0, /*park=*/false);
      if (use_protocol(op.peer, rank)) {
        const SimTime end = rendezvous_match(ps, self, now,
                                             std::max(ps.ready, now), op.tag);
        st.requests_complete = std::max(st.requests_complete,
                                        end + cost_.recv_overhead(rank));
      } else {
        const SimTime end =
            timed_transfer(ps, self, std::max(ps.ready, now), op.tag);
        auto& send_rs = stats_.ranks[static_cast<std::size_t>(ps.rank)];
        send_rs.send_blocked += end - ps.ready;
        advance(ps.rank);
        wake(ps.rank, end);
        st.requests_complete = std::max(st.requests_complete,
                                        end + cost_.recv_overhead(rank));
      }
    } else {
      ++st.unresolved_requests;
      pending_irecvs_[key].push_back(self);
      commit_pending(0, 1, /*park=*/true);
    }
  }

  advance(rank);
  wake(rank, now + cost_.recv_overhead(rank));
}

void Engine::start_wait_all(int rank, SimTime now) {
  auto& st = states_[static_cast<std::size_t>(rank)];
  if (st.unresolved_requests > 0) {
    st.waiting_all = true;
    st.blocked = true;
    st.wait_park_time = now;
    return;  // resolve_request wakes us
  }
  const SimTime done = std::max(now, st.requests_complete);
  stats_.ranks[static_cast<std::size_t>(rank)].recv_blocked += done - now;
  st.requests_complete = 0;
  advance(rank);
  wake(rank, done);
}

void Engine::resolve_request(int rank, SimTime completion) {
  auto& st = states_[static_cast<std::size_t>(rank)];
  SOC_CHECK(st.unresolved_requests > 0, "resolve with no pending request");
  --st.unresolved_requests;
  st.requests_complete = std::max(st.requests_complete, completion);
  if (st.waiting_all && st.unresolved_requests == 0) {
    st.waiting_all = false;
    st.blocked = false;
    // The whole park-to-completion stretch was spent blocked in kWaitAll;
    // book it here because the re-dispatch below sees a zero residual
    // (its `now` IS requests_complete).
    stats_.ranks[static_cast<std::size_t>(rank)].recv_blocked +=
        st.requests_complete - st.wait_park_time;
    // Re-executes kWaitAll (pc still points at it) at the completion time.
    wake(rank, st.requests_complete);
  }
}

SimTime Engine::timed_transfer(const PendingSend& send,
                               const PendingRecv& recv, SimTime earliest,
                               int tag) {
  // Instant path only: same node, or ideal network (which zeroes both
  // terms).  Cross-node transfers on a real network go through the
  // protocol-message path and never reach here.
  const int src_node = placement_.node_of[static_cast<std::size_t>(send.rank)];
  const int dst_node = placement_.node_of[static_cast<std::size_t>(recv.rank)];
  SimTime latency = 0;
  SimTime duration = 0;
  if (!scenario_.ideal_network) {
    latency = cost_.message_latency(src_node, dst_node);
    duration =
        latency + cost_.message_transfer_time(src_node, dst_node, send.bytes);
  }
  const SimTime end = earliest + duration;
  account_transfer(send.rank, send.pc, recv.rank, recv.pc, earliest, end,
                   send.bytes, /*eager=*/false, tag, latency);
  return end;
}

void Engine::complete_rendezvous(const PendingSend& send,
                                 const PendingRecv& recv, int tag) {
  const SimTime end =
      timed_transfer(send, recv, std::max(send.ready, recv.ready), tag);
  auto& send_rs = stats_.ranks[static_cast<std::size_t>(send.rank)];
  auto& recv_rs = stats_.ranks[static_cast<std::size_t>(recv.rank)];
  send_rs.send_blocked += end - send.ready;
  recv_rs.recv_blocked += end - recv.ready;

  advance(send.rank);
  advance(recv.rank);
  wake(send.rank, end);
  wake(recv.rank, end);
}

SimTime Engine::post_eager(int rank, SimTime now, const Op& op) {
  // Cross-node: fire the payload at the receiver; matching happens
  // receiver-side when the kArrival message lands.
  if (use_protocol(rank, op.peer)) {
    launch_eager_remote(rank, op.peer, now, op.bytes, op.tag);
  } else {
    deliver_eager(rank, now, op);
  }
  const SimTime overhead = cost_.send_overhead(rank);
  stats_.ranks[static_cast<std::size_t>(rank)].msg_overhead += overhead;
  return now + overhead;
}

void Engine::deliver_eager(int rank, SimTime now, const Op& op) {
  const MsgKey key = message_key(rank, op.peer, op.tag);
  auto* pending = pending_recvs_.find(key);
  auto* posted = pending == nullptr ? pending_irecvs_.find(key) : nullptr;
  const std::int32_t recv_pc = pending != nullptr  ? pending->front().pc
                               : posted != nullptr ? posted->front().pc
                                                   : -1;
  const std::int32_t send_pc =
      static_cast<std::int32_t>(states_[static_cast<std::size_t>(rank)].pc);

  SimTime arrival = now;
  SimTime latency = 0;
  if (!scenario_.ideal_network) {
    const int src_node = placement_.node_of[static_cast<std::size_t>(rank)];
    const int dst_node = placement_.node_of[static_cast<std::size_t>(op.peer)];
    const SimTime xfer =
        cost_.message_transfer_time(src_node, dst_node, op.bytes);
    latency = cost_.message_latency(src_node, dst_node);
    arrival = now + latency + xfer;
  }
  account_transfer(rank, send_pc, op.peer, recv_pc, now, arrival, op.bytes,
                   /*eager=*/true, op.tag, latency);

  if (pending != nullptr) {
    const PendingRecv pr = take_front(pending_recvs_, key, *pending);
    commit_pending(0, -1, /*park=*/false);
    const SimTime complete =
        std::max(pr.ready, arrival) + cost_.recv_overhead(pr.rank);
    stats_.ranks[static_cast<std::size_t>(pr.rank)].recv_blocked +=
        complete - pr.ready;
    advance(pr.rank);
    wake(pr.rank, complete);
  } else if (posted != nullptr) {
    const PendingRecv recv = take_front(pending_irecvs_, key, *posted);
    commit_pending(0, -1, /*park=*/false);
    resolve_request(recv.rank, arrival + cost_.recv_overhead(recv.rank));
  } else {
    arrivals_[key].push_back(Arrival{arrival, op.bytes, send_pc});
  }
}

Engine::Arrival Engine::take_arrival(MsgKey key, RingQueue<Arrival>& queue) {
  const Arrival a = take_front(arrivals_, key, queue);
  CommitRec& dispatch = commits_.back();
  SOC_CHECK(dispatch.type == CommitType::kDispatch,
            "an arrival is taken right after its receive's dispatch");
  dispatch.u.dispatch.partner_pc = a.send_pc;
  return a;
}

void Engine::launch_eager_remote(int src_rank, int dst_rank, SimTime now,
                                 Bytes bytes, int tag) {
  const int src_node = placement_.node_of[static_cast<std::size_t>(src_rank)];
  const int dst_node = placement_.node_of[static_cast<std::size_t>(dst_rank)];
  auto& nic_tx = nic_tx_free_[static_cast<std::size_t>(src_node)];
  const SimTime start = std::max(now, nic_tx);
  const SimTime xfer = cost_.message_transfer_time(src_node, dst_node, bytes);
  const SimTime latency = cost_.message_latency(src_node, dst_node);
  const SimTime arrival = start + latency + xfer;
  if (!scenario_.uncontended) nic_tx = start + xfer;

  // Sender-side accounting; the receiver side books when kArrival lands.
  auto& send_rs = stats_.ranks[static_cast<std::size_t>(src_rank)];
  ++send_rs.messages_sent;
  send_rs.dram_bytes += bytes;
  bin_value(stats_.nodes[static_cast<std::size_t>(src_node)].dram_bytes, start,
            static_cast<double>(bytes));
  send_rs.net_bytes_sent += bytes;
  bin_busy(stats_.nodes[static_cast<std::size_t>(src_node)].nic_busy, start,
           arrival);
  commit_span(Lane::kNicTx, src_rank, src_node,
              static_cast<std::uint8_t>(OpKind::kIsend), start, arrival,
              start - now, 0, bytes);

  ProtoMsg p;
  p.kind = ProtoKind::kArrival;
  p.src_rank = src_rank;
  p.dst_rank = dst_rank;
  p.tag = tag;
  p.phase = states_[static_cast<std::size_t>(src_rank)].phase;
  p.src_pc =
      static_cast<std::int32_t>(states_[static_cast<std::size_t>(src_rank)].pc);
  p.bytes = bytes;
  p.requested = now;
  p.start = start;
  p.end = arrival;
  p.latency = latency;
  p.time = arrival;
  p.key = next_proto_key(src_rank, dst_rank);
  enqueue_proto(p);
}

void Engine::process_arrival(const ProtoMsg& p, SimTime now) {
  const int dst = p.dst_rank;
  const int dst_node = placement_.node_of[static_cast<std::size_t>(dst)];
  const MsgKey key = message_key(p.src_rank, dst, p.tag);

  // Switch output-port queueing at the destination shifts delivery (not
  // the nominal wire end, which cost tables derive transfer times from).
  SimTime delivery = p.end;
  SimTime fabric_wait = 0;
  if (config_.bisection_bandwidth > 0.0) {
    auto& port = port_free_[static_cast<std::size_t>(dst_node)];
    delivery = std::max(p.end, port);
    fabric_wait = delivery - p.end;
    if (!scenario_.uncontended) {
      port = delivery + transfer_time(p.bytes, config_.bisection_bandwidth /
                                                   placement_.nodes);
    }
  }
  auto& nic_rx = nic_rx_free_[static_cast<std::size_t>(dst_node)];
  if (!scenario_.uncontended) nic_rx = std::max(nic_rx, delivery);

  // Receiver-side accounting.
  auto& recv_rs = stats_.ranks[static_cast<std::size_t>(dst)];
  ++recv_rs.messages_received;
  recv_rs.dram_bytes += p.bytes;
  bin_value(stats_.nodes[static_cast<std::size_t>(dst_node)].dram_bytes,
            p.start, static_cast<double>(p.bytes));
  recv_rs.net_bytes_received += p.bytes;
  bin_busy(stats_.nodes[static_cast<std::size_t>(dst_node)].nic_busy, p.start,
           p.end);
  auto* pending = pending_recvs_.find(key);
  auto* posted = pending == nullptr ? pending_irecvs_.find(key) : nullptr;
  if (observer_ != nullptr) {
    MessageRecord m;
    m.eager = true;
    m.inter_node = true;
    m.src_rank = p.src_rank;
    m.dst_rank = dst;
    m.phase = p.phase;
    m.tag = p.tag;
    m.send_pc = p.src_pc;
    m.recv_pc = pending != nullptr  ? pending->front().pc
                : posted != nullptr ? posted->front().pc
                                    : -1;
    m.bytes = p.bytes;
    m.start = p.start;
    m.end = p.end;
    m.latency = p.latency;
    m.delivery = delivery;
    m.sender_complete = 0;
    commit_message(m);
    commit_span(Lane::kNicRx, dst, dst_node,
                static_cast<std::uint8_t>(OpKind::kIsend), p.start, delivery,
                p.start - p.requested, fabric_wait, p.bytes);
  }

  if (pending != nullptr) {
    const PendingRecv pr = take_front(pending_recvs_, key, *pending);
    commit_pending(0, -1, /*park=*/false);
    const SimTime complete =
        std::max(pr.ready, delivery) + cost_.recv_overhead(pr.rank);
    stats_.ranks[static_cast<std::size_t>(pr.rank)].recv_blocked +=
        complete - pr.ready;
    advance(pr.rank);
    wake(pr.rank, complete);
  } else if (posted != nullptr) {
    const PendingRecv recv = take_front(pending_irecvs_, key, *posted);
    commit_pending(0, -1, /*park=*/false);
    resolve_request(recv.rank, delivery + cost_.recv_overhead(recv.rank));
  } else {
    arrivals_[key].push_back(Arrival{delivery, p.bytes, p.src_pc});
  }
  (void)now;
}

void Engine::process_rts(const ProtoMsg& p, SimTime now) {
  const int dst = p.dst_rank;
  const MsgKey key = message_key(p.src_rank, dst, p.tag);
  const PendingSend ps{p.src_rank, p.src_pc, p.requested,
                       p.bytes,    p.phase,  p.tx_est};

  auto* pending = pending_recvs_.find(key);
  if (pending != nullptr) {
    const PendingRecv pr = take_front(pending_recvs_, key, *pending);
    commit_pending(0, -1, /*park=*/false);
    const SimTime end =
        rendezvous_match(ps, pr, now, std::max(ps.ready, pr.ready), p.tag);
    stats_.ranks[static_cast<std::size_t>(pr.rank)].recv_blocked +=
        end - pr.ready;
    advance(pr.rank);
    wake(pr.rank, end);
    return;
  }
  auto* posted = pending_irecvs_.find(key);
  if (posted != nullptr) {
    const PendingRecv recv = take_front(pending_irecvs_, key, *posted);
    commit_pending(0, -1, /*park=*/false);
    const SimTime end = rendezvous_match(ps, recv, now, ps.ready, p.tag);
    resolve_request(recv.rank, end + cost_.recv_overhead(recv.rank));
    return;
  }
  // No receive posted yet: park the RTS at the receiver; the matching
  // recv/irecv dispatch picks it out of pending_sends.
  pending_sends_[key].push_back(ps);
  commit_pending(1, 0, /*park=*/true);
}

SimTime Engine::rendezvous_match(const PendingSend& ps,
                                 const PendingRecv& recv, SimTime match_time,
                                 SimTime start_base, int tag) {
  const int recv_rank = recv.rank;
  const int src_node = placement_.node_of[static_cast<std::size_t>(ps.rank)];
  const int dst_node = placement_.node_of[static_cast<std::size_t>(recv_rank)];

  // The wire can start once both endpoints agreed (start_base), the
  // sender's NIC looks free (the tx_est estimate the RTS carried), and
  // the receiver's NIC is free.  Receiver-side state is authoritative;
  // sender-side TX contention is best-effort by design (DESIGN.md §16).
  SimTime start = std::max({start_base, ps.tx_est,
                            nic_rx_free_[static_cast<std::size_t>(dst_node)]});
  SimTime fabric_wait = 0;
  if (config_.bisection_bandwidth > 0.0) {
    const SimTime nic_ready = start;
    auto& port = port_free_[static_cast<std::size_t>(dst_node)];
    start = std::max(start, port);
    fabric_wait = start - nic_ready;
    if (!scenario_.uncontended) {
      port = start + transfer_time(ps.bytes, config_.bisection_bandwidth /
                                                 placement_.nodes);
    }
  }
  const SimTime latency = cost_.message_latency(src_node, dst_node);
  const SimTime xfer =
      cost_.message_transfer_time(src_node, dst_node, ps.bytes);
  const SimTime end = start + latency + xfer;
  if (!scenario_.uncontended) {
    nic_rx_free_[static_cast<std::size_t>(dst_node)] = end;
  }
  // The CTS travels back one forward latency from the match; when the
  // transfer itself is longer it simply rides its tail.  The floor keeps
  // every protocol timestamp at least one latency past its emission.
  const SimTime cts = std::max(end, match_time + latency);

  // Receiver-side accounting; the sender side books when kCts lands.
  auto& recv_rs = stats_.ranks[static_cast<std::size_t>(recv_rank)];
  ++recv_rs.messages_received;
  recv_rs.dram_bytes += ps.bytes;
  bin_value(stats_.nodes[static_cast<std::size_t>(dst_node)].dram_bytes, start,
            static_cast<double>(ps.bytes));
  recv_rs.net_bytes_received += ps.bytes;
  bin_busy(stats_.nodes[static_cast<std::size_t>(dst_node)].nic_busy, start,
           end);
  if (observer_ != nullptr) {
    MessageRecord m;
    m.eager = false;
    m.inter_node = true;
    m.src_rank = ps.rank;
    m.dst_rank = recv_rank;
    m.phase = ps.phase;
    m.tag = tag;
    m.send_pc = ps.pc;
    m.recv_pc = recv.pc;
    m.bytes = ps.bytes;
    m.start = start;
    m.end = end;
    m.latency = latency;
    m.delivery = end;
    m.sender_complete = cts;
    commit_message(m);
    commit_span(Lane::kNicRx, recv_rank, dst_node,
                static_cast<std::uint8_t>(OpKind::kSend), start, end,
                start - start_base, fabric_wait, ps.bytes);
  }

  ProtoMsg cp;
  cp.kind = ProtoKind::kCts;
  cp.src_rank = ps.rank;
  cp.dst_rank = recv_rank;
  cp.tag = tag;
  cp.phase = ps.phase;
  cp.bytes = ps.bytes;
  cp.requested = ps.ready;
  cp.start = start;
  cp.end = end;
  cp.latency = latency;
  cp.fabric_wait = fabric_wait;
  cp.time = cts;
  cp.key = next_proto_key(recv_rank, ps.rank);
  enqueue_proto(cp);
  return end;
}

void Engine::process_cts(const ProtoMsg& p, SimTime now) {
  const int src = p.src_rank;
  const int src_node = placement_.node_of[static_cast<std::size_t>(src)];

  // Sender-side accounting for the transfer the receiver committed.
  auto& send_rs = stats_.ranks[static_cast<std::size_t>(src)];
  send_rs.send_blocked += now - p.requested;
  ++send_rs.messages_sent;
  send_rs.dram_bytes += p.bytes;
  bin_value(stats_.nodes[static_cast<std::size_t>(src_node)].dram_bytes,
            p.start, static_cast<double>(p.bytes));
  send_rs.net_bytes_sent += p.bytes;
  bin_busy(stats_.nodes[static_cast<std::size_t>(src_node)].nic_busy, p.start,
           p.end);
  commit_span(Lane::kNicTx, src, src_node,
              static_cast<std::uint8_t>(OpKind::kSend), p.start, p.end,
              p.start - p.requested, p.fabric_wait, p.bytes);

  // The parked kSend is complete; run the rank from here.
  advance(src);
  wake(src, now);
}

void Engine::account_transfer(int src_rank, std::int32_t send_pc,
                              int dst_rank, std::int32_t recv_pc,
                              SimTime start, SimTime end, Bytes bytes,
                              bool eager, int tag, SimTime latency) {
  const int src_node = placement_.node_of[static_cast<std::size_t>(src_rank)];
  const int dst_node = placement_.node_of[static_cast<std::size_t>(dst_rank)];
  auto& send_rs = stats_.ranks[static_cast<std::size_t>(src_rank)];
  auto& recv_rs = stats_.ranks[static_cast<std::size_t>(dst_rank)];
  ++send_rs.messages_sent;
  ++recv_rs.messages_received;

  if (observer_ != nullptr) {
    MessageRecord message;
    message.eager = eager;
    message.inter_node = src_node != dst_node;
    message.src_rank = src_rank;
    message.dst_rank = dst_rank;
    message.phase = states_[static_cast<std::size_t>(src_rank)].phase;
    message.tag = tag;
    message.send_pc = send_pc;
    message.recv_pc = recv_pc;
    message.bytes = bytes;
    message.start = start;
    message.end = end;
    message.latency = latency;
    message.delivery = end;
    message.sender_complete = eager ? 0 : end;
    commit_message(message);
  }

  // Message payloads traverse main memory on both endpoints (the TX1 has
  // no GPUDirect, so all network data lands in DRAM first — §III-B.2).
  send_rs.dram_bytes += bytes;
  recv_rs.dram_bytes += bytes;
  bin_value(stats_.nodes[static_cast<std::size_t>(src_node)].dram_bytes, start,
            static_cast<double>(bytes));
  bin_value(stats_.nodes[static_cast<std::size_t>(dst_node)].dram_bytes, start,
            static_cast<double>(bytes));

  if (src_node == dst_node) {
    send_rs.intra_bytes_sent += bytes;
    return;
  }
  send_rs.net_bytes_sent += bytes;
  recv_rs.net_bytes_received += bytes;
  bin_busy(stats_.nodes[static_cast<std::size_t>(src_node)].nic_busy, start, end);
  bin_busy(stats_.nodes[static_cast<std::size_t>(dst_node)].nic_busy, start, end);
  const std::uint8_t kind = static_cast<std::uint8_t>(
      eager ? OpKind::kIsend : OpKind::kSend);
  commit_span(Lane::kNicTx, src_rank, src_node, kind, start, end, 0, 0, bytes);
  commit_span(Lane::kNicRx, dst_rank, dst_node, kind, start, end, 0, 0, bytes);
}

double RunStats::flops_per_second() const {
  const double s = seconds();
  return s > 0.0 ? total_flops / s : 0.0;
}

double RunStats::dram_bytes_per_second() const {
  const double s = seconds();
  return s > 0.0 ? static_cast<double>(total_dram_bytes) / s : 0.0;
}

double RunStats::net_bytes_per_second() const {
  const double s = seconds();
  return s > 0.0 ? static_cast<double>(total_net_bytes) / s : 0.0;
}

std::vector<double> ideal_balance_scales(const RunStats& measured) {
  const std::size_t n = measured.ranks.size();
  SOC_CHECK(n > 0, "no ranks in run");
  std::vector<double> compute(n, 0.0);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (const auto& [phase, t] : measured.ranks[r].phase_compute) {
      compute[r] += static_cast<double>(t);
    }
    total += compute[r];
  }
  const double avg = total / static_cast<double>(n);
  std::vector<double> scales(n, 1.0);
  for (std::size_t r = 0; r < n; ++r) {
    if (compute[r] > 0.0) scales[r] = avg / compute[r];
  }
  return scales;
}

}  // namespace soc::sim
