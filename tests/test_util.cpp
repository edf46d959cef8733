// Unit tests for src/util: RNG, statistics (incl. Otsu), parallel_for,
// CSV/console output helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/io.hpp"
#include "util/lru.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using eva::Rng;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, IndexBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(17), 17u);
}

TEST(Rng, IndexCoversAllValues) {
  Rng rng(9);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 300; ++i) {
    const int v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMoments) {
  Rng rng(21);
  const int n = 50000;
  double s = 0, s2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    s += x;
    s2 += x * x;
  }
  EXPECT_NEAR(s / n, 0.0, 0.03);
  EXPECT_NEAR(s2 / n, 1.0, 0.05);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng rng(13);
  std::vector<double> w{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIndependentStreams) {
  Rng a(42);
  Rng child = a.fork();
  // Child continues to produce values uncorrelated with the parent.
  EXPECT_NE(a.next(), child.next());
}

// --- stats ---------------------------------------------------------------

TEST(Stats, MeanVariance) {
  std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(eva::mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(eva::variance(xs), 1.25);
  EXPECT_NEAR(eva::stddev(xs), std::sqrt(1.25), 1e-12);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(eva::mean({}), 0.0);
  EXPECT_DOUBLE_EQ(eva::variance({}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{3, 1, 2, 4};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(eva::percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(eva::percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(eva::percentile(xs, 50), 2.5);
}

TEST(Stats, HistogramNormalized) {
  std::vector<double> xs{0.1, 0.1, 0.9};
  const auto h = eva::histogram(xs, 0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_NEAR(h[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(h[1], 1.0 / 3.0, 1e-12);
}

TEST(Stats, HistogramClampsOutliers) {
  std::vector<double> xs{-5.0, 10.0};
  const auto h = eva::histogram(xs, 0.0, 1.0, 4, false);
  EXPECT_DOUBLE_EQ(h.front(), 1.0);
  EXPECT_DOUBLE_EQ(h.back(), 1.0);
}

TEST(Stats, OtsuSeparatesBimodal) {
  // Two clusters at 1.0 and 10.0: the threshold must classify every
  // sample into its own cluster (Otsu may land anywhere in the gap).
  std::vector<double> xs;
  eva::Rng rng(1);
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(1.0, 0.2));
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(10.0, 0.2));
  const double t = eva::otsu_threshold(xs);
  for (std::size_t i = 0; i < 200; ++i) EXPECT_LT(xs[i], t);
  for (std::size_t i = 200; i < 400; ++i) EXPECT_GT(xs[i], t);
}

TEST(Stats, OtsuDegenerateAllEqual) {
  std::vector<double> xs(10, 3.14);
  EXPECT_DOUBLE_EQ(eva::otsu_threshold(xs), 3.14);
}

TEST(Stats, EmaSmoothes) {
  std::vector<double> xs{0, 10, 0, 10};
  const auto y = eva::ema(xs, 0.5);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
  EXPECT_DOUBLE_EQ(y[2], 2.5);
}

// --- parallel ------------------------------------------------------------

TEST(Parallel, ForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  eva::parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ChunksSumCorrect) {
  std::atomic<long> sum{0};
  eva::parallel_chunks(0, 100000, [&](std::size_t b, std::size_t e) {
    long local = 0;
    for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
    sum += local;
  });
  EXPECT_EQ(sum.load(), 100000L * 99999L / 2);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  eva::parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, ThreadOverrideRespected) {
  eva::set_num_threads(1);
  EXPECT_EQ(eva::num_threads(), 1u);
  eva::set_num_threads(0);
  EXPECT_GE(eva::num_threads(), 1u);
}

// RAII helper: force a thread count for one test, restore auto after.
struct ThreadGuard {
  explicit ThreadGuard(std::size_t n) { eva::set_num_threads(n); }
  ~ThreadGuard() { eva::set_num_threads(0); }
};

TEST(Parallel, ExceptionPropagatesToCaller) {
  ThreadGuard guard(4);
  EXPECT_THROW(
      eva::parallel_for(0, 10000,
                        [](std::size_t i) {
                          if (i == 7777) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must stay usable after an exception drained a region.
  std::atomic<int> hits{0};
  eva::parallel_for(0, 1000, [&](std::size_t) { hits++; });
  EXPECT_EQ(hits.load(), 1000);
}

TEST(Parallel, ExceptionInChunksPropagates) {
  ThreadGuard guard(4);
  EXPECT_THROW(eva::parallel_chunks(0, 100000,
                                    [](std::size_t b, std::size_t) {
                                      if (b == 0) throw std::logic_error("c");
                                    }),
               std::logic_error);
}

TEST(Parallel, NestedCallsRunInlineWithoutDeadlock) {
  ThreadGuard guard(4);
  std::vector<std::atomic<int>> hits(64 * 64);
  eva::parallel_for(0, 64, [&](std::size_t i) {
    // Inner parallel regions must not re-enter the pool (deadlock) nor
    // drop indices; they run inline on the calling worker.
    eva::parallel_for(0, 64, [&](std::size_t j) { hits[i * 64 + j]++; });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ChunksDeterministicAcrossThreadCounts) {
  // With the chunk layout fixed by (range, num_threads), per-chunk
  // results must be bitwise identical regardless of which worker ran
  // them — only the thread *count* may change the partition.
  const std::size_t n = 4096;
  auto run = [&](std::size_t threads) {
    eva::set_num_threads(threads);
    std::vector<double> out(n, 0.0);
    eva::parallel_chunks(
        0, n,
        [&](std::size_t b, std::size_t e) {
          double acc = 0.0;
          for (std::size_t i = b; i < e; ++i) {
            acc += std::sin(static_cast<double>(i)) * 1e-3;
            out[i] = acc;
          }
        },
        64);
    return out;
  };
  const auto serial = run(1);
  const auto fixed4_a = run(4);
  const auto fixed4_b = run(4);
  eva::set_num_threads(0);
  // Same thread count twice -> bitwise identical, even though chunk
  // scheduling across workers is nondeterministic.
  EXPECT_EQ(fixed4_a, fixed4_b);
  // Per-element prefix values only depend on the owning chunk's start.
  // The 4-thread layout is chunk = ceil(4096/4) = 1024, and the serial
  // run is one chunk starting at 0, so the first 1024 prefixes agree
  // bitwise between the two layouts.
  for (std::size_t i = 0; i < 1024; ++i) {
    ASSERT_EQ(serial[i], fixed4_a[i]) << "index " << i;
  }
}

TEST(Parallel, ManyDispatchesSmoke) {
  // Hammer the pool with many small regions to exercise the
  // generation-handoff path (stale wakeups, ticket gating).
  ThreadGuard guard(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 200; ++round) {
    eva::parallel_for(0, 64, [&](std::size_t i) {
      sum += static_cast<long>(i);
    });
  }
  EXPECT_EQ(sum.load(), 200L * (64L * 63L / 2));
}

// Read-syscall count of this process, or -1 when /proc/self/io is absent
// or unreadable (non-Linux, restricted procfs).
long read_syscalls() {
  std::ifstream io("/proc/self/io");
  std::string key;
  long value = 0;
  while (io >> key >> value) {
    if (key == "syscr:") return value;
  }
  return -1;
}

TEST(Parallel, InlineCallsDoNotRereadCpuCount) {
  // A single-index range always runs inline, so the only per-call cost
  // left is consulting the worker count. That count must be read once per
  // process: glibc's hardware_concurrency() re-reads the online-CPU list
  // from sysfs on every call, which would cost a read syscall per call on
  // every decode step's GEMMs.
  eva::set_num_threads(0);
  long hits = 0;
  eva::parallel_for(0, 1, [&](std::size_t) { ++hits; });  // first read
  const long before = read_syscalls();
  if (before < 0) GTEST_SKIP() << "/proc/self/io is not readable";
  for (int i = 0; i < 1000; ++i) {
    eva::parallel_for(0, 1, [&](std::size_t) { ++hits; });
  }
  const long after = read_syscalls();
  EXPECT_EQ(hits, 1001);
  EXPECT_LT(after - before, 10) << "read syscalls across 1000 inline calls";
}

// --- io --------------------------------------------------------------------

TEST(Io, CsvEscapesSpecialChars) {
  eva::CsvWriter w({"a", "b"});
  w.add_row({std::string("x,y"), std::string("q\"z")});
  std::ostringstream os;
  w.write(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"q\"\"z\"\n");
}

TEST(Io, CsvNumericRows) {
  eva::CsvWriter w({"v"});
  w.add_row(std::vector<double>{1.5});
  std::ostringstream os;
  w.write(os);
  EXPECT_NE(os.str().find("1.5"), std::string::npos);
}

TEST(Io, FmtTrimsZeros) {
  EXPECT_EQ(eva::fmt(1.5000, 4), "1.5");
  EXPECT_EQ(eva::fmt(2.0, 4), "2");
  EXPECT_EQ(eva::fmt(0.12345, 2), "0.12");
}

TEST(Io, ConsoleTablePrints) {
  eva::ConsoleTable t("Title", {"col1", "col2"});
  t.add_row({"a", "b"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("col1"), std::string::npos);
  EXPECT_NE(s.find("| a"), std::string::npos);
}

TEST(Io, AsciiCurveHandlesData) {
  const std::string s = eva::ascii_curve({1, 2, 3, 2, 1}, "curve");
  EXPECT_NE(s.find("curve"), std::string::npos);
  EXPECT_NE(s.find('*'), std::string::npos);
}

TEST(Io, AsciiCurveEmpty) {
  const std::string s = eva::ascii_curve({}, "none");
  EXPECT_NE(s.find("no data"), std::string::npos);
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  eva::Lru<int, std::string> lru(2);
  EXPECT_FALSE(lru.put(1, "a"));
  EXPECT_FALSE(lru.put(2, "b"));
  ASSERT_NE(lru.get(1), nullptr);  // 1 is now most recent
  EXPECT_TRUE(lru.put(3, "c"));    // evicts 2
  EXPECT_EQ(lru.get(2), nullptr);
  EXPECT_EQ(*lru.get(1), "a");
  EXPECT_FALSE(lru.put(1, "z"));  // overwrite: no eviction
  EXPECT_EQ(*lru.get(1), "z");
  EXPECT_EQ(lru.size(), 2u);
  lru.clear();
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.get(3), nullptr);
}

TEST(Lru, ZeroCapacityHoldsOne) {
  eva::Lru<int, int> lru(0);
  lru.put(1, 1);
  EXPECT_TRUE(lru.put(2, 2));
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(*lru.get(2), 2);
}

}  // namespace
