// Deterministic event queue.
//
// Min-heap keyed by (time, sequence).  The monotonically increasing
// sequence number gives a total order even among simultaneous events, so
// replay is bit-reproducible regardless of heap implementation details.
//
// Two hot-path refinements over a plain std::priority_queue, neither of
// which changes the pop order for any push sequence:
//
//  - reserve() pre-sizes the heap storage so steady-state push never
//    reallocates (the engine sizes it off the rank count up front).
//  - Events pushed at exactly the current time (the time of the last
//    pop) bypass the heap into a FIFO ring.  Zero-duration wake-ups —
//    phase markers, ideal-network completions, already-satisfied waits —
//    are common enough that this skips a sift-up/sift-down pair per
//    event.  The ring only ever holds events of one time value, so pop
//    compares its front against the heap top by the same (time, seq) key
//    and the merged order is identical to the pure-heap order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ring_queue.h"
#include "common/units.h"

namespace soc::sim {

/// A scheduled wake-up for a rank (payload is an opaque int).
struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;
  int payload = 0;
};

class EventQueue {
 public:
  /// Schedules `payload` to fire at `time`.  Events at equal times fire in
  /// insertion order.
  void push(SimTime time, int payload);

  bool empty() const { return heap_.empty() && now_.empty(); }
  std::size_t size() const { return heap_.size() + now_.size(); }

  /// Pre-sizes internal storage for about `n` concurrently scheduled
  /// events.  Purely an allocation hint: pop order is unaffected.
  void reserve(std::size_t n);

  /// Resets to the just-constructed state but keeps the storage, so a
  /// re-run over the same queue never reallocates.
  void clear() {
    heap_.clear();
    now_.clear();
    next_seq_ = 0;
    last_pop_time_ = 0;
  }

  /// Returns and removes the earliest event.  Queue must be non-empty.
  Event pop();

  /// Earliest scheduled time; queue must be non-empty.
  SimTime next_time() const;

 private:
  /// Strict (time, seq) ordering — the determinism contract.
  static bool earlier(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Event> heap_;    ///< Binary min-heap by (time, seq).
  RingQueue<Event> now_;       ///< FIFO of events at exactly last_pop_time_.
  std::uint64_t next_seq_ = 0;
  SimTime last_pop_time_ = 0;
};

/// An event ordered by an *intrinsic* 64-bit key instead of insertion
/// order: ties at equal times break on a key derived from the event's
/// identity (protocol class, endpoint ranks, per-rank sequence; see
/// engine.cpp's event_key helpers), so the committed order does not
/// depend on push order.  Keys are unique among coexisting events, making
/// (time, key) a strict total order.
struct KeyedEvent {
  SimTime time = 0;
  std::uint64_t key = 0;
  std::int32_t payload = 0;  ///< Rank for wake-ups; proto-pool slot for
                             ///< protocol messages (engine convention).
};

/// Deterministic min-heap keyed by (time, key).  Unlike EventQueue, pop
/// order is independent of push order by construction, so two engines
/// that schedule the same event set in different orders still pop
/// identically.
class KeyedEventQueue {
 public:
  void push(SimTime time, std::uint64_t key, std::int32_t payload);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Pre-sizes heap storage (allocation hint only).
  void reserve(std::size_t n) { heap_.reserve(n); }

  void clear() { heap_.clear(); }

  /// Returns and removes the earliest event.  Queue must be non-empty.
  KeyedEvent pop();

  /// Earliest scheduled (time, key); queue must be non-empty.
  const KeyedEvent& top() const { return heap_.front(); }

 private:
  /// Strict (time, key) ordering — the partition-invariance contract.
  static bool earlier(const KeyedEvent& a, const KeyedEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<KeyedEvent> heap_;  ///< Binary min-heap by (time, key).
};

}  // namespace soc::sim
