// perfbench_selftest: checks the benchmark's own machinery on small
// inputs (run it through `python3 perfbench/run.py --self-test`).
//
//  - ledger: self time is the span's duration minus what its children
//    cover, never negative, and the self times of a tree sum to its root;
//  - fidelity: the hand-assembled traced pipeline commits what
//    cluster::run commits;
//  - check: a perturbed checksum or a missing reference is a failed
//    operation, not a crash;
//  - readers: RSS and CPU time read back sane values.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "check.h"
#include "ledger.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("  FAIL: %s\n", what.c_str());
  }
}

/// Self times of a ledger: each >= 0, and summing to the root.
void expect_zero_residual_tree(const Ledger& ledger, const std::string& label) {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < ledger.spans().size(); ++i) {
    const std::int64_t self = ledger.self_ns(static_cast<int>(i));
    expect(self >= 0, label + ": span " + ledger.spans()[i].name +
                          " has negative self time " + std::to_string(self));
    sum += self;
  }
  expect(!ledger.spans().empty() && ledger.spans()[0].parent == -1,
         label + ": span 0 is the root");
  expect(sum == static_cast<std::int64_t>(ledger.spans()[0].duration_ns()),
         label + ": self times sum to the root span");
}

void test_ledger_arithmetic() {
  std::puts("ledger self times");
  Ledger l;
  const int root = l.add("root", -1, 0, 100);
  const int a = l.add("a", root, 10, 40);
  l.add("a1", a, 15, 25);
  const int b = l.add("b", root, 50, 90);
  l.add_folded("b.fold", b, 30, 5);
  expect(l.self_ns(root) == 30, "root self = 100 - (30 + 40)");
  expect(l.self_ns(a) == 20, "a self = 30 - 10");
  expect(l.self_ns(b) == 10, "b self = 40 - folded 30");
  expect(l.total_ns("b.fold") == 30 && l.count("b.fold") == 5,
         "folded span keeps its total and count");
  expect_zero_residual_tree(l, "synthetic");

  // Overlapping children cover their union, not their sum.
  Ledger o;
  const int r = o.add("root", -1, 0, 100);
  o.add("c", r, 20, 60);
  o.add("d", r, 40, 80);
  expect(o.self_ns(r) == 40, "overlapping children cover [20, 80)");

  // A child claiming more than its parent shows as negative self time.
  Ledger bad;
  const int p = bad.add("root", -1, 0, 10);
  bad.add_folded("fold", p, 20, 1);
  expect(bad.self_ns(p) < 0, "over-claimed parent reads negative");

  // Spans opened through the clock nest and close innermost first.
  Ledger live;
  {
    ScopedSpan outer(live, "outer");
    { ScopedSpan inner(live, "inner"); }
  }
  expect(live.spans()[1].parent == 0, "scoped spans nest");
  expect_zero_residual_tree(live, "live");
}

void test_fidelity(const std::string& tag, int nodes, bool explain) {
  std::printf("traced pipeline = cluster::run (%s@%d%s)\n", tag.c_str(), nodes,
              explain ? ", explain" : "");
  const Outcome plain = single_run(tag, nodes, explain, false, {});
  const Outcome traced = single_run(tag, nodes, explain, true, {});
  expect(!plain.check.outputs().empty(), "untraced run produced outputs");
  expect(plain.check.outputs() == traced.check.outputs(),
         "traced outputs equal untraced outputs");
  expect_zero_residual_tree(traced.ledger, tag);
  expect(traced.layers.at("sim.events") > 0.0, "traced run counted events");
  expect(traced.layers.at("workloads.ops") > 0.0, "traced run counted ops");
  expect(traced.layers.at("sim.cost_calls") > 0.0,
         "traced run counted cost calls");
  expect(traced.layers.at("bench.residual_s") >= 0.0,
         "residual is not negative");
  if (explain) {
    expect(traced.layers.at("prof.retime_calls") == 4.0, "four re-timings");
    expect(traced.layers.at("obs.records") > 0.0, "observer saw records");
  }
}

void test_perturbed_reference() {
  std::puts("perturbed reference is a failed operation");
  // Record references from one run, then check a second run against them.
  const Outcome first = single_run("jacobi", 4, true, false, {});
  References refs(first.check.outputs().begin(), first.check.outputs().end());
  const Outcome same = single_run("jacobi", 4, true, false, refs);
  expect(same.check.failed() == 0, "identical references pass");
  expect(same.check.attempted() == 7, "1 run + 2 artifacts + 4 re-timings");

  References perturbed = refs;
  std::string& checksum = perturbed.at("run.checksum");
  checksum.back() = checksum.back() == '0' ? '1' : '0';
  Outcome bad;
  try {
    bad = single_run("jacobi", 4, true, false, perturbed);
  } catch (const std::exception& e) {
    expect(false, std::string("perturbed checksum threw: ") + e.what());
    return;
  }
  expect(bad.check.attempted() == same.check.attempted(),
         "every operation still attempted");
  expect(bad.check.failed() == 1, "exactly the run operation failed");
  expect(!bad.check.mismatches().empty() &&
             bad.check.mismatches()[0].starts_with("run.checksum"),
         "the mismatch names run.checksum");

  Checker missing(References{});
  missing.pass("op", {{"k", "v"}});
  missing.fail("thrown", "threw: boom");
  expect(missing.attempted() == 2 && missing.failed() == 2,
         "missing reference and thrown operation both count as failed");
}

void test_readers() {
  std::puts("RSS and CPU readers");
  const double rss0 = rss_mb();
  expect(rss0 > 0.5 && rss0 < 1e6, "RSS is positive and bounded");
  const std::size_t bytes = std::size_t{64} << 20;
  std::vector<char> block(bytes);
  for (std::size_t i = 0; i < bytes; i += 4096) block[i] = static_cast<char>(i);
  const double rss1 = rss_mb();
  expect(rss1 - rss0 > 48.0, "touching 64 MiB grows RSS by most of it");
  expect(peak_rss_mb() >= rss1 - 1.0, "peak RSS is at least the current RSS");

  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  volatile std::uint64_t sink = 0;
  while (now_ns() - t0 < 200'000'000) sink = sink + 1;
  const double cpu = cpu_seconds() - cpu0;
  const double wall = seconds(now_ns() - t0);
  expect(cpu > 0.05, "a 0.2 s busy loop uses CPU time");
  const double cores = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  expect(cpu <= wall * cores + 0.05,
         "CPU time of one thread stays within wall x cores");
  expect(block[4096] == static_cast<char>(4096), "block stays live");
}

}  // namespace

int main() {
  try {
    test_ledger_arithmetic();
    test_readers();
    test_perturbed_reference();
    test_fidelity("jacobi", 4, true);
    test_fidelity("cg", 4, false);
    test_fidelity("tealeaf3d", 2, true);
  } catch (const std::exception& e) {
    std::printf("  FAIL: threw %s\n", e.what());
    ++g_failures;
  }
  std::printf("%s (%d failure%s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
