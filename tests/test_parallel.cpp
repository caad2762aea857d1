#include "core/parallel.hpp"

#include <cmath>
#include <mutex>
#include <set>

#include <gtest/gtest.h>

#include "sim/wright_fisher.hpp"

namespace ldla {
namespace {

BitMatrix test_matrix(std::size_t snps, std::size_t samples,
                      std::uint64_t seed) {
  WrightFisherParams p;
  p.n_snps = snps;
  p.n_samples = samples;
  p.seed = seed;
  p.founders = 16;
  return simulate_genotypes(p);
}

void expect_matrices_equal(const LdMatrix& got, const LdMatrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      if (std::isnan(want(i, j))) {
        EXPECT_TRUE(std::isnan(got(i, j))) << i << "," << j;
      } else {
        EXPECT_DOUBLE_EQ(got(i, j), want(i, j)) << i << "," << j;
      }
    }
  }
}

// The invariant the paper's Tables rely on: thread count never changes the
// result, only the wall clock.
class ParallelThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelThreads, SymmetricMatrixMatchesSequential) {
  const BitMatrix g = test_matrix(43, 150, 1);
  const LdMatrix sequential = ld_matrix(g);
  expect_matrices_equal(ld_matrix_parallel(g, {}, GetParam()), sequential);
}

TEST_P(ParallelThreads, CrossMatrixMatchesSequential) {
  const BitMatrix a = test_matrix(19, 90, 2);
  const BitMatrix b = test_matrix(27, 90, 3);
  const LdMatrix sequential = ld_cross_matrix(a, b);
  expect_matrices_equal(ld_cross_matrix(a, b, {}, GetParam()), sequential);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelThreads,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(ParallelStatScan, CoversEveryLowerPairExactlyOnce) {
  const BitMatrix g = test_matrix(37, 70, 4);
  LdOptions opts;
  opts.gemm.mc = 6;  // many chunks for a team of four
  opts.gemm.nc = 8;
  std::mutex mu;
  std::set<std::pair<std::size_t, std::size_t>> seen;
  bool duplicate = false;
  ld_stat_scan(
      g,
      [&](const LdTile& tile) {
        std::lock_guard lock(mu);
        for (std::size_t i = 0; i < tile.rows; ++i) {
          for (std::size_t j = 0; j < tile.cols; ++j) {
            if (!seen.insert({tile.row_begin + i, tile.col_begin + j}).second) {
              duplicate = true;
            }
          }
        }
      },
      opts, 4);
  EXPECT_FALSE(duplicate);
  EXPECT_EQ(seen.size(), ld_pair_count(g.snps()));
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_TRUE(seen.contains({i, j})) << i << "," << j;
    }
  }
}

TEST(ParallelStatScan, AggregateIndependentOfThreadCount) {
  const BitMatrix g = test_matrix(50, 128, 5);
  auto aggregate = [&](unsigned threads) {
    std::mutex mu;
    double sum = 0.0;
    std::uint64_t pairs = 0;
    LdOptions opts;
    opts.gemm.mc = 9;
    opts.gemm.nc = 16;
    ld_stat_scan(
        g,
        [&](const LdTile& tile) {
          double local = 0.0;
          for (std::size_t i = 0; i < tile.rows; ++i) {
            for (std::size_t j = 0; j < tile.cols; ++j) {
              const double v = tile.at(i, j);
              if (std::isfinite(v)) local += v;
            }
          }
          std::lock_guard lock(mu);
          sum += local;
          pairs += tile.rows * tile.cols;
        },
        opts, threads);
    return std::pair{sum, pairs};
  };

  const auto [sum1, pairs1] = aggregate(1);
  EXPECT_EQ(pairs1, ld_pair_count(g.snps()));
  for (unsigned t : {2u, 3u, 5u}) {
    const auto [sum, pairs] = aggregate(t);
    EXPECT_EQ(pairs, pairs1);
    EXPECT_NEAR(sum, sum1, 1e-9);
  }
}

TEST(ParallelDrivers, ZeroThreadsMeansHardwareConcurrency) {
  const BitMatrix g = test_matrix(11, 64, 6);
  const LdMatrix a = ld_matrix_parallel(g, {}, 0);
  const LdMatrix b = ld_matrix(g);
  expect_matrices_equal(a, b);
}

TEST(ParallelDrivers, MoreThreadsThanRows) {
  const BitMatrix g = test_matrix(3, 64, 7);
  const LdMatrix a = ld_matrix_parallel(g, {}, 16);
  expect_matrices_equal(a, ld_matrix(g));
}

}  // namespace
}  // namespace ldla
