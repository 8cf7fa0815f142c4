#include "ledger.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/error.h"
#include "obs/json.h"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  SOC_CHECK(f != nullptr, "cannot open /proc/self/statm");
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  SOC_CHECK(got == 2, "cannot parse /proc/self/statm");
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

int Ledger::open(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const std::uint64_t t = now_ns();
  const int id = add(std::move(name), parent, t, t);
  open_.push_back(id);
  return id;
}

void Ledger::close(int id) {
  SOC_CHECK(!open_.empty() && open_.back() == id,
            "ledger spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

int Ledger::add(std::string name, int parent, std::uint64_t start_ns,
                std::uint64_t end_ns) {
  SOC_CHECK(end_ns >= start_ns, "span ends before it starts");
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

int Ledger::add_folded(std::string name, int parent, std::uint64_t total_ns,
                       std::uint64_t count) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.folded = true;
  s.folded_ns = total_ns;
  s.count = count;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

std::int64_t Ledger::self_ns(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  std::uint64_t folded = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (const Span& c : spans_) {
    if (c.parent != id) continue;
    if (c.folded) {
      folded += c.folded_ns;
    } else {
      intervals.emplace_back(std::max(c.start_ns, span.start_ns),
                             std::min(c.end_ns, span.end_ns));
    }
  }
  // Union of the child intervals clipped to the parent: siblings that
  // overlap (never the case on one thread) are not double-counted.
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = 0;
  for (const auto& [b, e] : intervals) {
    const std::uint64_t from = std::max(b, reach);
    if (e > from) covered += e - from;
    reach = std::max(reach, e);
  }
  return static_cast<std::int64_t>(span.duration_ns()) -
         static_cast<std::int64_t>(covered + folded);
}

std::uint64_t Ledger::total_ns(const std::string& name) const {
  std::uint64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.duration_ns();
  }
  return total;
}

std::uint64_t Ledger::count(const std::string& name) const {
  std::uint64_t n = 0;
  for (const Span& s : spans_) {
    if (s.name == name) n += s.count;
  }
  return n;
}

std::string Ledger::json() const {
  soc::obs::JsonWriter w;
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.field("id", static_cast<std::int64_t>(i));
    w.field("name", std::string_view(s.name));
    w.field("parent", s.parent);
    w.field("folded", s.folded);
    w.field("start_ns", s.start_ns);
    w.field("end_ns", s.end_ns);
    w.field("duration_s", seconds(s.duration_ns()));
    w.field("self_s", static_cast<double>(self_ns(static_cast<int>(i))) * 1e-9);
    w.field("count", s.count);
    w.end_object();
  }
  w.end_array();
  return w.str();
}

}  // namespace perfbench
