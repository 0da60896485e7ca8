#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "util/rng.hpp"

namespace vdep {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(7);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatelyCentered) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(10.0, 20.0);
  EXPECT_NEAR(sum / n, 15.0, 0.1);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceProportion) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0;
  double sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng parent(42);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  Rng a2 = parent.fork(0);
  // Same index reproduces, different indices decorrelate.
  EXPECT_EQ(a.next(), a2.next());
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  // The trial fleet forks one stream per trial from the campaign seed; the
  // parent must be untouched by forking or trial N's stream would depend on
  // how many forks happened before it.
  Rng forked(42);
  for (std::uint64_t i = 0; i < 100; ++i) (void)forked.fork(i);
  Rng untouched(42);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(forked.next(), untouched.next());
}

TEST(Rng, ForkIndicesYieldDistinctStreams) {
  // First outputs of forks 0..999 are pairwise distinct (any collision would
  // alias two trials of a campaign onto the same schedule).
  Rng parent(1);
  std::set<std::uint64_t> firsts;
  for (std::uint64_t i = 0; i < 1000; ++i) firsts.insert(parent.fork(i).next());
  EXPECT_EQ(firsts.size(), 1000u);
}

TEST(Rng, ForkOfForkIsReproducible) {
  // Streams derived as seed.fork(a).fork(b) must reproduce exactly.
  Rng a = Rng(7).fork(3).fork(9);
  Rng b = Rng(7).fork(3).fork(9);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next(), b.next());
}

}  // namespace
}  // namespace vdep
