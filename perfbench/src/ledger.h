// Host-time span ledger for the traced benchmark runs.
//
// Coarse calls into a layer (Engine::run, prof::analyze, one re-timing)
// become spans with a name, start, end and parent, kept in memory until
// the run ends.  Fine-grained boundaries that fire millions of times
// (per-op pulls, cost queries, observer callbacks) are folded into one
// span per layer that carries only a total and a count.  A span's self
// time is its duration minus the part of it its children cover, so the
// self times of a tree sum to the root: the zero-residual split of the
// traced wall time across the simulator's layers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic host time in nanoseconds (std::chrono::steady_clock).
std::uint64_t now_ns();

/// Current resident set of this process in MiB (/proc/self/statm).
double rss_mb();

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// User plus system CPU seconds this process has used (getrusage).
double cpu_seconds();

/// One timed interval of a layer.  Folded spans have no interval of
/// their own (start == end == 0): `folded_ns` is their total and `count`
/// the number of boundary crossings folded into them.
struct Span {
  std::string name;
  int parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  bool folded = false;
  std::uint64_t folded_ns = 0;
  std::uint64_t count = 1;

  std::uint64_t duration_ns() const {
    return folded ? folded_ns : end_ns - start_ns;
  }
};

class Ledger {
 public:
  /// Opens a span as a child of the innermost open span (or as a root).
  int open(std::string name);
  /// Closes span `id`, which must be the innermost open span.
  void close(int id);
  /// Adds a closed span with explicit times under `parent`.
  int add(std::string name, int parent, std::uint64_t start_ns,
          std::uint64_t end_ns);
  /// Adds a folded span (`total_ns` over `count` calls) under `parent`.
  int add_folded(std::string name, int parent, std::uint64_t total_ns,
                 std::uint64_t count);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the union of the child intervals (folded children
  /// count as covering their total).  Negative only when a child claims
  /// more time than its parent lasted — a ledger bug the self-test pins.
  std::int64_t self_ns(int id) const;

  /// Summed duration of every span with this name.
  std::uint64_t total_ns(const std::string& name) const;
  /// Summed count of every span with this name.
  std::uint64_t count(const std::string& name) const;

  /// The JSON array of spans with their self times (written when a
  /// traced run ends).
  std::string json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Ledger& ledger, std::string name)
      : ledger_(ledger), id_(ledger.open(std::move(name))) {}
  ~ScopedSpan() { ledger_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Ledger& ledger_;
  int id_;
};

inline double seconds(std::uint64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

}  // namespace perfbench
