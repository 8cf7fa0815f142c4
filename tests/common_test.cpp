// Tests for common/: units, deterministic RNG, error macros, tables,
// command-line usage errors.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/args.h"
#include "common/error.h"
#include "common/flat_map.h"
#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"

namespace soc {
namespace {

TEST(Units, SecondsRoundTrip) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.0), 0);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_seconds(500 * kMillisecond), 0.5);
}

TEST(Units, FromSecondsRejectsNegative) {
  EXPECT_THROW(from_seconds(-1.0), Error);
}

TEST(Units, TransferTimeBasics) {
  // 1 GB at 1 GB/s = 1 s.
  EXPECT_EQ(transfer_time(1'000'000'000, 1e9), kSecond);
  EXPECT_EQ(transfer_time(0, 1e9), 0);
  // Any non-empty transfer takes at least 1 ns.
  EXPECT_GE(transfer_time(1, 1e18), 1);
}

TEST(Units, TransferTimeRejectsBadInput) {
  EXPECT_THROW(transfer_time(-1, 1e9), Error);
  EXPECT_THROW(transfer_time(100, 0.0), Error);
}

TEST(Units, GbitConversion) {
  EXPECT_DOUBLE_EQ(gbit_per_s(8.0), 1e9);
  EXPECT_DOUBLE_EQ(gbit_per_s(1.0), 125e6);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Rng, NextBelowCoversValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(123);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
  // Splitting again with the same key reproduces the stream.
  Rng a2 = parent.split(1);
  Rng a3 = parent.split(1);
  EXPECT_EQ(a2.next_u64(), a3.next_u64());
}

TEST(Rng, GaussianMoments) {
  Rng rng(31);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(55);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    SOC_CHECK(1 == 2, "math is broken");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
  }
}

// A malformed command line is a UsageError (tools answer it with usage
// and exit 2), distinct from a failed SOC_CHECK inside the simulator.
TEST(Error, MalformedCommandLinesAreUsageErrors) {
  const auto parse = [](std::vector<const char*> argv) {
    ArgParser p;
    p.add_flag("--nodes", "cluster size", "8");
    p.add_bool("--quick", "smoke subset");
    argv.insert(argv.begin(), "prog");
    p.parse(static_cast<int>(argv.size()), argv.data());
    return p;
  };
  EXPECT_THROW(parse({"run", "--bogus", "4"}), UsageError);
  EXPECT_THROW(parse({"--nodes"}), UsageError);
  EXPECT_THROW(parse({"--quick=yes"}), UsageError);
  EXPECT_THROW(parse({"--nodes", "four"}).get_int("--nodes"), UsageError);
  EXPECT_THROW(parse({"--nodes", "4x"}).get_int("--nodes"), UsageError);
  EXPECT_THROW(parse({"--nodes=0.5x"}).get_double("--nodes"), UsageError);
  EXPECT_THROW(parse_int_list("2,4,x"), UsageError);
  EXPECT_EQ(parse({"--nodes", "16"}).get_int("--nodes"), 16);
  // Internal invariants stay plain errors, not usage errors.
  try {
    SOC_CHECK(false, "internal");
  } catch (const UsageError&) {
    FAIL() << "SOC_CHECK must not raise a usage error";
  } catch (const Error&) {
  }
}

TEST(Table, FormatsAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsRaggedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(TextTable::num(1.234, 2), "1.23");
  EXPECT_EQ(TextTable::num(1.0, 0), "1");
}

TEST(FlatMap, InsertFindAndAbsent) {
  flat_map<int, int> m;
  EXPECT_TRUE(m.empty());
  m[3] = 30;
  m[1] = 10;
  m[3] = 33;  // overwrite through the same slot
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(3), nullptr);
  EXPECT_EQ(*m.find(3), 33);
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 10);
  EXPECT_EQ(m.find(7), nullptr);
}

TEST(FlatMap, IterationFollowsInsertionOrderAcrossRehash) {
  flat_map<int, int> m;
  constexpr int kCount = 1000;  // forces several rehashes from kMinSlots
  for (int i = 0; i < kCount; ++i) m[i * 37] = i;
  int expected = 0;
  for (const auto& [key, value] : m) {
    EXPECT_EQ(key, expected * 37);
    EXPECT_EQ(value, expected);
    ++expected;
  }
  EXPECT_EQ(expected, kCount);
}

TEST(FlatMap, ClearKeepsNothingButStaysUsable) {
  flat_map<int, int> m;
  for (int i = 0; i < 100; ++i) m[i] = i;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(5), nullptr);
  m[5] = 50;
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(*m.find(5), 50);
}

// Sends every key to one of the last three slots of a 16-slot table, so
// probe runs wrap past the end of the table and collide constantly.
struct TailHash {
  std::uint64_t operator()(int key) const {
    return 13 + static_cast<std::uint64_t>(key % 3);
  }
};

// Random insert/find/erase against a std::map oracle.  At most 10 live
// keys keep the table at its 16-slot minimum (growth starts at 0.7 load),
// so backward-shift deletion runs on wrapped, overlapping probe runs.
template <typename Hash>
void check_against_oracle(std::uint64_t seed) {
  flat_map<int, int, Hash> m;
  std::map<int, int> oracle;
  Rng rng(seed);
  for (int step = 0; step < 20000; ++step) {
    const int key = static_cast<int>(rng.next_below(40));
    const std::uint64_t action = rng.next_below(3);
    if (action == 0 && oracle.size() < 10) {
      m[key] = step;
      oracle[key] = step;
    } else if (action == 1) {
      EXPECT_EQ(m.erase(key), oracle.erase(key) == 1) << "step " << step;
    } else {
      const int* found = m.find(key);
      const auto it = oracle.find(key);
      ASSERT_EQ(found != nullptr, it != oracle.end()) << "step " << step;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second) << "step " << step;
      }
    }
    ASSERT_EQ(m.size(), oracle.size()) << "step " << step;
  }
  // Every key, present or not, still resolves as the oracle says.
  for (int key = 0; key < 40; ++key) {
    const int* found = m.find(key);
    ASSERT_EQ(found != nullptr, oracle.count(key) == 1) << key;
    if (found != nullptr) {
      EXPECT_EQ(*found, oracle.at(key)) << key;
    }
  }
}

TEST(FlatMap, EraseMatchesStdMapOnWrappedProbeRuns) {
  check_against_oracle<TailHash>(1);
  check_against_oracle<TailHash>(2);
  check_against_oracle<FlatMapHash<int>>(3);
}

TEST(FlatMap, EraseOfAbsentKeyIsANoOp) {
  flat_map<int, int> m;
  EXPECT_FALSE(m.erase(4));  // empty table, no slots yet
  m[1] = 10;
  m[2] = 20;
  EXPECT_FALSE(m.erase(4));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(*m.find(1), 10);
  EXPECT_EQ(*m.find(2), 20);
}

TEST(FlatMap, SizeReturnsToZeroWhenAllKeysDrain) {
  flat_map<int, int> m;
  for (int i = 0; i < 1000; ++i) m[i * 7] = i;  // several rehashes
  for (int i = 999; i >= 0; i -= 2) EXPECT_TRUE(m.erase(i * 7));
  EXPECT_EQ(m.size(), 500u);
  for (int i = 0; i < 1000; i += 2) {
    ASSERT_NE(m.find(i * 7), nullptr) << i;
    EXPECT_EQ(*m.find(i * 7), i);
    EXPECT_TRUE(m.erase(i * 7));
  }
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.begin(), m.end());
  m[5] = 50;  // still usable after draining
  EXPECT_EQ(*m.find(5), 50);
}

TEST(RingQueue, FifoThroughInlineAndSpill) {
  RingQueue<int> q;
  // Stay within the inline buffer, then force a spill, then wrap.
  for (int round = 0; round < 3; ++round) {
    const int depth = 1 << (round + 1);  // 2, 4, 8
    for (int i = 0; i < depth; ++i) q.push_back(round * 100 + i);
    for (int i = 0; i < depth; ++i) {
      EXPECT_EQ(q.front(), round * 100 + i);
      q.pop_front();
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(RingQueue, GrowthPreservesOrderMidStream) {
  RingQueue<int> q;
  int next_push = 0;
  int next_pop = 0;
  // Interleave so growth happens while head is offset into the ring.
  for (int i = 0; i < 200; ++i) {
    q.push_back(next_push++);
    q.push_back(next_push++);
    EXPECT_EQ(q.front(), next_pop);
    q.pop_front();
    ++next_pop;
  }
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_pop++);
    q.pop_front();
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(RingQueue, EmptyAccessThrows) {
  RingQueue<int> q;
  EXPECT_THROW(q.front(), Error);
  EXPECT_THROW(q.pop_front(), Error);
  q.push_back(1);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.front(), Error);
}

}  // namespace
}  // namespace soc
