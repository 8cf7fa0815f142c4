// The engine's deterministic event queue: a binary min-heap keyed by
// (time, intrinsic event key).
//
// The engine's loop is "pop the earliest event, run it, push the popped
// rank's next wake", so the queue fuses that pair.  pop() leaves the root
// as a hole instead of refilling it, and the next push() drops its event
// into the hole.  Either way the hole is closed with Floyd's bottom-up
// method: it descends along the earlier child to a leaf (one branch-free
// compare per level), and the incoming event sifts up from there.  Equal
// times are the common case: on cg@64, 77% of pops tie on time with a
// child of the root, so a "compare time, then key" branch would mispredict
// constantly, and earlier() compares without branches.  Pop order is
// fixed by the strict (time, key) order, so the heap's internal layout
// never shows in what pops.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace soc::sim {

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

/// Deterministic min-heap keyed by (time, key).  Pop order is
/// independent of push order by construction, so two engines that
/// schedule the same event set in different orders still pop
/// identically.
class KeyedEventQueue {
 public:
  /// Schedules an event; fills the hole a preceding pop() left, if any.
  void push(SimTime time, std::uint64_t key, std::int32_t payload);

  /// Queued events; an open hole is not an event and is not counted.
  bool empty() const { return size() == 0; }
  std::size_t size() const { return heap_.size() - (hole_ ? 1 : 0); }

  /// Pre-sizes heap storage (allocation hint only).
  void reserve(std::size_t n) { heap_.reserve(n); }

  void clear() {
    heap_.clear();
    hole_ = false;
  }

  /// Returns and removes the earliest event, leaving its slot as a hole
  /// for the next push().  Queue must be non-empty.
  KeyedEvent pop();

  /// Earliest scheduled (time, key); queue must be non-empty.  Closes an
  /// open hole first, hence non-const.
  const KeyedEvent& top();

 private:
  /// Strict (time, key) ordering — the partition-invariance contract.
  /// One comparison without branches: a lower key lifts b's time by one,
  /// so an equal time falls to the key.  Times are non-negative (push()
  /// checks), so the unsigned sum cannot wrap.
  static bool earlier(const KeyedEvent& a, const KeyedEvent& b) {
    return static_cast<std::uint64_t>(a.time) <
           static_cast<std::uint64_t>(b.time) + (a.key < b.key);
  }

  /// Closes an open root hole with the last element.
  void settle();
  /// Places `e` into the root hole (Floyd: hole to a leaf, then sift up).
  void fill_root(KeyedEvent e);
  /// Places `e` at slot `i` or above, moving later parents down.
  void sift_up(std::size_t i, KeyedEvent e);

  std::vector<KeyedEvent> heap_;  ///< Binary min-heap by (time, key).
  bool hole_ = false;  ///< heap_[0] is a popped slot awaiting a refill.
};

}  // namespace soc::sim
