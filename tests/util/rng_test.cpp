#include "util/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace sturgeon {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng rng(7);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 100000; ++i) {
    ++hits[rng.next_below(10)];
  }
  for (int h : hits) {
    EXPECT_GT(h, 9000);
    EXPECT_LT(h, 11000);
  }
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.005);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(17);
  for (double mean : {0.5, 5.0, 80.0}) {
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.poisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, LognormalMeanCv) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal_mean_cv(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
  // cv=0 degenerates to the mean.
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(3.0, 0.0), 3.0);
}

TEST(Rng, LognormalParamsDrawLikeMeanCv) {
  // Set up once and draw many times: the same draws as lognormal_mean_cv.
  const LognormalParams p = lognormal_params(1.7, 0.9);
  Rng a(31), b(31);
  for (int i = 0; i < 1000; ++i) {
    const double x = a.lognormal_mean_cv(1.7, 0.9);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x),
              std::bit_cast<std::uint64_t>(b.lognormal(p)));
  }
  // cv <= 0 returns the mean and leaves the stream where it was.
  EXPECT_EQ(a.lognormal_mean_cv(1.7, 0.0), 1.7);
  EXPECT_EQ(a.lognormal_mean_cv(1.7, -1.0), 1.7);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(DeriveSeed, StableAndDecorrelated) {
  // Same (root, stream) -> same child seed, always.
  EXPECT_EQ(derive_seed(42, 7), derive_seed(42, 7));
  // Adjacent roots and adjacent streams must land far apart: the cluster
  // layer hands node i the seed derive_seed(cluster_seed, i), so node
  // streams may not collide or correlate for small indices.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t root : {0ULL, 1ULL, 2ULL, 42ULL}) {
    for (std::uint64_t stream = 0; stream < 16; ++stream) {
      seen.push_back(derive_seed(root, stream));
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    for (std::size_t j = i + 1; j < seen.size(); ++j) {
      EXPECT_NE(seen[i], seen[j]) << "i=" << i << " j=" << j;
    }
  }
}

TEST(DeriveSeed, ChildGeneratorsAreIndependent) {
  Rng a(derive_seed(9, 0)), b(derive_seed(9, 1));
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(DeriveSeed, SubstreamOverloadAddsSecondLevel) {
  EXPECT_EQ(derive_seed(5, 2, 3), derive_seed(5, 2, 3));
  EXPECT_NE(derive_seed(5, 2, 3), derive_seed(5, 2, 4));
  EXPECT_NE(derive_seed(5, 2, 3), derive_seed(5, 3, 2));
  EXPECT_NE(derive_seed(5, 2, 3), derive_seed(5, 2));
}

// The trainer seeds each set's profiling campaign with stable_hash(name),
// so these values pin the campaign of every LS and BE set the repository
// trains: the catalog's, and the scaled memcached sets of the benches,
// examples and benchmark workloads.
TEST(StableHash, PinsEverySetName) {
  const std::pair<std::string, std::uint64_t> pinned[] = {
      {"memcached", 0x7cc30727fad722d8ULL},
      {"xapian", 0x28ef8497131043f5ULL},
      {"img-dnn", 0x3be5d7bfb4567878ULL},
      {"memcached-chaos", 0xff5bfa967f689a04ULL},
      {"memcached-fleet", 0x9af5f21e182311c0ULL},
      {"memcached-scale", 0x5367f15517970c94ULL},
      {"memcached-comms", 0xbb66ab38d0533019ULL},
      {"memcached-fleet-demo", 0x2eb68c34099d9290ULL},
      {"bs", 0x2ab28ba16d9b8663ULL},
      {"fa", 0xc1d5a77b47a5dd98ULL},
      {"fe", 0x420677907cff0caeULL},
      {"rt", 0x3ac50b78bf9e015cULL},
      {"sp", 0xb917714384c04f23ULL},
      {"fd", 0x79b1f45582d1ce1eULL},
      {"", 0x553e93901e462a6eULL},
  };
  for (const auto& [name, value] : pinned) {
    EXPECT_EQ(stable_hash(name), value) << '"' << name << '"';
  }
}

#if defined(__GLIBCXX__) && __SIZEOF_SIZE_T__ == 8 && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
// stable_hash is libstdc++'s std::hash<std::string> on this target, so the
// campaigns it seeds are the ones that hash seeded: every tail length and
// every byte value.
TEST(StableHash, EqualsLibstdcxxStdHash) {
  Rng rng(0x5ab1e);
  for (int i = 0; i < 100000; ++i) {
    std::string s(rng.next_below(41), '\0');
    for (char& c : s) c = static_cast<char>(rng.next_below(256));
    ASSERT_EQ(stable_hash(s), std::hash<std::string>{}(s)) << "string " << i;
  }
}
#endif

TEST(Rng, ForkIsIndependentAndStable) {
  Rng parent(99);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(1);
  Rng c3 = parent.fork(2);
  EXPECT_EQ(c1.next_u64(), c2.next_u64());  // same label -> same stream
  EXPECT_NE(c1.next_u64(), c3.next_u64());
}

}  // namespace
}  // namespace sturgeon
