#include "sim/event_queue.h"

#include "common/error.h"

namespace soc::sim {

void KeyedEventQueue::push(SimTime time, std::uint64_t key,
                           std::int32_t payload) {
  SOC_CHECK(time >= 0, "event scheduled at negative time");
  const KeyedEvent e{time, key, payload};
  if (hole_) {
    hole_ = false;
    fill_root(e);
    return;
  }
  heap_.push_back(e);
  sift_up(heap_.size() - 1, e);
}

KeyedEvent KeyedEventQueue::pop() {
  settle();
  SOC_CHECK(!heap_.empty(), "pop from empty event queue");
  hole_ = true;
  return heap_.front();
}

const KeyedEvent& KeyedEventQueue::top() {
  settle();
  SOC_CHECK(!heap_.empty(), "top of empty event queue");
  return heap_.front();
}

void KeyedEventQueue::settle() {
  if (!hole_) return;
  hole_ = false;
  const KeyedEvent last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) fill_root(last);
}

void KeyedEventQueue::fill_root(KeyedEvent e) {
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  std::size_t child = 1;
  while (child + 1 < n) {
    child += earlier(heap_[child + 1], heap_[child]);
    heap_[i] = heap_[child];
    i = child;
    child = 2 * i + 1;
  }
  if (child < n) {  // A lone left child at the bottom level.
    heap_[i] = heap_[child];
    i = child;
  }
  sift_up(i, e);
}

void KeyedEventQueue::sift_up(std::size_t i, KeyedEvent e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

}  // namespace soc::sim
