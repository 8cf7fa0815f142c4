// Deterministic open-addressing flat map.
//
// The replay engine keeps its pending-message tables in these.  Two
// properties make that safe where std::unordered_map is banned (see
// soclint's unordered-in-sim-state rule):
//
//  1. Iteration walks the entries vector, so any walk over the map is a
//     pure function of the insert/erase sequence.  Without erases that
//     is insertion order; erase() moves the last entry into the hole, so
//     after an erase it no longer is (still deterministic).
//  2. Lookups compare full keys, never hashes alone, so a hash collision
//     can change probe counts but never which entry is found.
//
// The trade against std::map: O(1) expected find/insert/erase with zero
// per-node allocation (one vector for entries, one for slots), at the
// cost of no sorted order.  erase() uses backward-shift deletion, so the
// probe table never holds tombstones.  The engine erases a message key
// as soon as its queue drains; tags are never reused, so without that
// its tables would grow by one entry per message for the whole run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"

namespace soc {

/// Default hash: splitmix64 finalizer for integral keys.  Full-width
/// mixing keeps linear probing well distributed even for packed bitfield
/// keys (e.g. sim::message_key) whose low bits carry little entropy.
template <typename Key>
struct FlatMapHash {
  static_assert(std::is_integral_v<Key> || std::is_enum_v<Key>,
                "provide a custom Hash for non-integral keys");
  std::uint64_t operator()(const Key& key) const {
    std::uint64_t x = static_cast<std::uint64_t>(key);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
};

/// Open-addressing hash map over a dense entries vector (linear probing,
/// backward-shift erase, swap-with-last entry removal).
template <typename Key, typename Value, typename Hash = FlatMapHash<Key>>
class flat_map {
 public:
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  flat_map() = default;

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Entries-vector order: insertion order until the first erase.
  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  /// Drops all entries but keeps both allocations for reuse.
  void clear() {
    entries_.clear();
    slots_.assign(slots_.size(), kEmpty);
  }

  /// Pre-sizes for `n` entries so the hot path never rehashes.
  void reserve(std::size_t n) {
    entries_.reserve(n);
    const std::size_t want = slot_count_for(n);
    if (want > slots_.size()) rehash(want);
  }

  /// Pointer to the mapped value, or nullptr when absent.
  Value* find(const Key& key) {
    const std::size_t slot = find_slot(key);
    if (slots_.empty() || slots_[slot] == kEmpty) return nullptr;
    return &entries_[slots_[slot]].second;
  }
  const Value* find(const Key& key) const {
    return const_cast<flat_map*>(this)->find(key);
  }

  /// Value for `key`, default-constructed and inserted when absent.
  Value& operator[](const Key& key) {
    if (slots_.empty()) rehash(kMinSlots);
    std::size_t slot = find_slot(key);
    if (slots_[slot] == kEmpty) {
      if (needs_growth()) {
        rehash(slots_.size() * 2);
        slot = find_slot(key);
      }
      slots_[slot] = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back(key, Value{});
    }
    return entries_[slots_[slot]].second;
  }

  /// Removes `key` if present; returns whether it was.  Invalidates
  /// pointers to the last entry (it moves into the erased one's place).
  bool erase(const Key& key) {
    if (slots_.empty()) return false;
    std::size_t hole = find_slot(key);
    const std::uint32_t index = slots_[hole];
    if (index == kEmpty) return false;

    // Backward shift: walk the probe run after the hole and move back
    // every entry whose home slot does not lie strictly inside (hole,
    // next] — it would otherwise become unreachable.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t next = (hole + 1) & mask; slots_[next] != kEmpty;
         next = (next + 1) & mask) {
      const std::size_t home =
          static_cast<std::size_t>(Hash{}(entries_[slots_[next]].first)) &
          mask;
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        slots_[hole] = slots_[next];
        hole = next;
      }
    }
    slots_[hole] = kEmpty;

    // Keep entries dense: the last entry fills the erased index.
    const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
    if (index != last) {
      std::size_t slot =
          static_cast<std::size_t>(Hash{}(entries_[last].first)) & mask;
      while (slots_[slot] != last) slot = (slot + 1) & mask;
      slots_[slot] = index;
      entries_[index] = std::move(entries_[last]);
    }
    entries_.pop_back();
    return true;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::size_t kMinSlots = 16;

  /// Smallest power-of-two slot table holding `n` entries below the 0.7
  /// load-factor ceiling.
  static std::size_t slot_count_for(std::size_t n) {
    std::size_t slots = kMinSlots;
    while (static_cast<double>(n) >= 0.7 * static_cast<double>(slots)) {
      slots *= 2;
    }
    return slots;
  }

  bool needs_growth() const {
    return static_cast<double>(entries_.size() + 1) >=
           0.7 * static_cast<double>(slots_.size());
  }

  /// Linear probe: slot holding `key`, or the empty slot where it would
  /// be inserted.  Requires a non-empty slot table unless the map is empty.
  std::size_t find_slot(const Key& key) const {
    if (slots_.empty()) return 0;
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(Hash{}(key)) & mask;
    while (slots_[slot] != kEmpty) {
      if (entries_[slots_[slot]].first == key) return slot;
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  void rehash(std::size_t new_slot_count) {
    SOC_CHECK((new_slot_count & (new_slot_count - 1)) == 0,
              "flat_map slot count must be a power of two");
    slots_.assign(new_slot_count, kEmpty);
    const std::size_t mask = new_slot_count - 1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::size_t slot =
          static_cast<std::size_t>(Hash{}(entries_[i].first)) & mask;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<value_type> entries_;     ///< Dense payload.
  std::vector<std::uint32_t> slots_;    ///< Power-of-two probe table.
};

}  // namespace soc
