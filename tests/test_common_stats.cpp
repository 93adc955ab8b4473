// Unit tests for common/stats, common/table, common/rng, common/env,
// common/cli and common/clock.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "common/cli.hpp"
#include "common/clock.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace evmp::common {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(OnlineStats, MeanMinMax) {
  OnlineStats s;
  for (double x : {4.0, 1.0, 7.0, 2.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
}

TEST(OnlineStats, VarianceMatchesTwoPass) {
  OnlineStats s;
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  double mean = 0.0;
  for (double x : xs) {
    s.add(x);
    mean += x;
  }
  mean /= 8.0;
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= 7.0;  // sample variance
  EXPECT_NEAR(s.variance(), var, 1e-12);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats all;
  OnlineStats left;
  OnlineStats right;
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 100.0;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a;
  OnlineStats b;
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(LatencyHistogram, EmptyReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 0.0);
}

TEST(LatencyHistogram, PercentileWithinRelativeError) {
  LatencyHistogram h;
  for (int i = 0; i < 10000; ++i) {
    h.record(1'000'000);  // 1ms
  }
  const auto p50 = static_cast<double>(h.percentile(0.5));
  EXPECT_NEAR(p50, 1e6, 1e6 * 0.13);  // <= 12.5% bucket error + rounding
  EXPECT_DOUBLE_EQ(h.mean_ns(), 1e6);
}

TEST(LatencyHistogram, OrderedPercentiles) {
  LatencyHistogram h;
  Xoshiro256 rng(7);
  for (int i = 0; i < 5000; ++i) {
    h.record(rng.next_below(50'000'000));
  }
  EXPECT_LE(h.percentile(0.5), h.percentile(0.9));
  EXPECT_LE(h.percentile(0.9), h.percentile(0.99));
  EXPECT_LE(h.percentile(0.99), h.percentile(1.0));
}

TEST(LatencyHistogram, ConcurrentRecordingLosesNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&h, t] {
        for (int i = 0; i < kPerThread; ++i) {
          h.record(static_cast<std::uint64_t>(t + 1) * 1000u);
        }
      });
    }
  }
  EXPECT_EQ(h.total_count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyHistogram, BucketRelativeErrorAcrossMagnitudes) {
  // The HDR-style layout promises <= 12.5% relative error per bucket at
  // every magnitude, from single nanoseconds to ~18 minutes.
  for (const std::uint64_t v :
       {1ull, 3ull, 100ull, 999ull, 12'345ull, 1'000'000ull,
        123'456'789ull, 1ull << 40}) {
    LatencyHistogram h;
    h.record(v);
    const auto p = static_cast<double>(h.percentile(1.0));
    const auto want = static_cast<double>(v);
    EXPECT_NEAR(p, want, want * 0.125 + 1.0) << "value " << v;
  }
}

TEST(LatencyHistogram, SnapshotMatchesLiveHistogram) {
  LatencyHistogram h;
  Xoshiro256 rng(21);
  for (int i = 0; i < 4000; ++i) h.record(rng.next_below(10'000'000));
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.total_count(), h.total_count());
  EXPECT_DOUBLE_EQ(snap.mean_ns(), h.mean_ns());
  // The live histogram reports bucket midpoints while the snapshot
  // interpolates, so the two agree only to within one bucket's width.
  for (double q : {0.5, 0.9, 0.99, 1.0}) {
    const auto live = static_cast<double>(h.percentile(q));
    const auto interp = static_cast<double>(snap.percentile(q));
    EXPECT_NEAR(interp, live, live * 0.13 + 1.0) << "q " << q;
  }
}

TEST(LatencyHistogram, SnapshotMergeIsExactAndAssociative) {
  // Bucket-wise merge is lossless: (a+b)+c and a+(b+c) agree with the
  // histogram that saw every sample directly, at every quantile.
  LatencyHistogram all;
  LatencyHistogram parts[3];
  Xoshiro256 rng(33);
  for (int i = 0; i < 9000; ++i) {
    const std::uint64_t v = rng.next_below(100'000'000);
    all.record(v);
    parts[i % 3].record(v);
  }
  HistogramSnapshot left = parts[0].snapshot();   // (a + b) + c
  left.merge(parts[1].snapshot());
  left.merge(parts[2].snapshot());
  HistogramSnapshot bc = parts[1].snapshot();     // a + (b + c)
  bc.merge(parts[2].snapshot());
  HistogramSnapshot right = parts[0].snapshot();
  right.merge(bc);
  const HistogramSnapshot direct = all.snapshot();
  EXPECT_EQ(left.total_count(), direct.total_count());
  EXPECT_EQ(right.total_count(), direct.total_count());
  EXPECT_DOUBLE_EQ(left.mean_ns(), direct.mean_ns());
  EXPECT_DOUBLE_EQ(right.mean_ns(), direct.mean_ns());
  for (double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(left.percentile(q), direct.percentile(q)) << "q " << q;
    EXPECT_EQ(right.percentile(q), direct.percentile(q)) << "q " << q;
  }
  const LatencyQuantiles lq = left.quantiles();
  EXPECT_EQ(lq.p50, direct.percentile(0.5));
  EXPECT_EQ(lq.p999, direct.percentile(0.999));
}

TEST(LatencyHistogram, SnapshotQuantilesInterpolateWithinBucket) {
  // All mass in one bucket: quantiles must move monotonically across the
  // bucket's width instead of snapping to its midpoint.
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(1'000'000);
  const HistogramSnapshot snap = h.snapshot();
  const std::uint64_t p10 = snap.percentile(0.10);
  const std::uint64_t p90 = snap.percentile(0.90);
  EXPECT_LE(p10, p90);
  EXPECT_LT(p90 - p10, static_cast<std::uint64_t>(1e6 * 0.13))
      << "interpolation must stay inside one bucket's width";
  // And an empty snapshot reports zeros rather than garbage.
  const HistogramSnapshot empty;
  EXPECT_EQ(empty.total_count(), 0u);
  EXPECT_EQ(empty.percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(empty.mean_ns(), 0.0);
}

TEST(LatencyHistogram, ConcurrentRecordersMergeToExactTotal) {
  // Stress the wait-free record path: racing writers into one shared
  // histogram plus per-thread histograms merged after the fact must both
  // account for every sample.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  LatencyHistogram shared;
  std::vector<LatencyHistogram> locals(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&shared, &locals, t] {
        Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
        for (int i = 0; i < kPerThread; ++i) {
          const std::uint64_t v = rng.next_below(1'000'000) + 1;
          shared.record(v);
          locals[static_cast<std::size_t>(t)].record(v);
        }
      });
    }
  }
  HistogramSnapshot merged = locals[0].snapshot();
  for (int t = 1; t < kThreads; ++t) merged.merge(locals[t].snapshot());
  const std::uint64_t want =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(shared.total_count(), want);
  EXPECT_EQ(merged.total_count(), want);
  EXPECT_EQ(merged.percentile(0.5), shared.snapshot().percentile(0.5));
}

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram h;
  h.record(123);
  h.reset();
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 0.0);
}

TEST(TextTable, AlignsAndPrints) {
  TextTable t;
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1.50"});
  t.add_row({"b", "20.25"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("20.25"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, CsvEscapesSpecialCells) {
  TextTable t;
  t.set_header({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable t;
  t.set_header({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print(os);  // must not crash; row padded to 3 cells
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt(-1.005, 1), "-1.0");
}

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Xoshiro256 rng(11);
  for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, GaussianMoments) {
  Xoshiro256 rng(13);
  OnlineStats s;
  for (int i = 0; i < 200'000; ++i) s.add(rng.next_gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMean) {
  Xoshiro256 rng(17);
  OnlineStats s;
  for (int i = 0; i < 100'000; ++i) s.add(rng.next_exponential(5.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.2);
  EXPECT_GE(s.min(), 0.0);
}

TEST(Clock, PreciseSleepIsAccurate) {
  const Stopwatch sw;
  precise_sleep(Millis{20});
  const double ms = sw.elapsed_ms();
  EXPECT_GE(ms, 19.0);
  EXPECT_LT(ms, 60.0);  // generous: single-core CI container
}

TEST(Clock, PreciseSleepZeroReturnsImmediately) {
  const Stopwatch sw;
  precise_sleep(Nanos{0});
  precise_sleep(Nanos{-5});
  EXPECT_LT(sw.elapsed_ms(), 5.0);
}

TEST(Clock, BusySpinBurnsAtLeastRequested) {
  const Stopwatch sw;
  (void)busy_spin(Millis{5});
  EXPECT_GE(sw.elapsed_ms(), 4.5);
}

TEST(Env, ParsesLongAndBool) {
  ::setenv("EVMP_TEST_LONG", "123", 1);
  ::setenv("EVMP_TEST_BOOL_T", "yes", 1);
  ::setenv("EVMP_TEST_BOOL_F", "OFF", 1);
  ::setenv("EVMP_TEST_BAD", "12x", 1);
  EXPECT_EQ(env_long("EVMP_TEST_LONG"), 123);
  EXPECT_EQ(env_bool("EVMP_TEST_BOOL_T"), true);
  EXPECT_EQ(env_bool("EVMP_TEST_BOOL_F"), false);
  EXPECT_FALSE(env_long("EVMP_TEST_BAD").has_value());
  EXPECT_FALSE(env_long("EVMP_TEST_UNSET_NEVER").has_value());
}

TEST(Cli, ParsesFlagsAndPositionals) {
  // Greedy binding: positional args go before bare boolean flags.
  const char* argv[] = {"prog",       "--count=5", "--rate", "2.5",
                        "positional", "--verbose", "--list=1,2,3"};
  CliArgs args(7, const_cast<char**>(argv));
  EXPECT_EQ(args.get_long("count", 0), 5);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 2.5);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
  const auto list = args.get_long_list("list", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[2], 3);
}

TEST(Cli, FallbacksWhenAbsentOrMalformed) {
  const char* argv[] = {"prog", "--n=abc"};
  CliArgs args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.get_long("n", 7), 7);
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  const auto list = args.get_long_list("missing", {4, 5});
  ASSERT_EQ(list.size(), 2u);
}

}  // namespace
}  // namespace evmp::common
