#include "core/ld.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/gemm/macro.hpp"
#include "core/parallel.hpp"
#include "sim/rng.hpp"
#include "sim/wright_fisher.hpp"
#include "util/contract.hpp"

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

void expect_matrices_near(const LdMatrix& got, const LdMatrix& want,
                          double tol = 1e-12) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      if (std::isnan(want(i, j))) {
        EXPECT_TRUE(std::isnan(got(i, j))) << "at (" << i << ", " << j << ")";
      } else {
        EXPECT_NEAR(got(i, j), want(i, j), tol)
            << "at (" << i << ", " << j << ")";
      }
    }
  }
}

class LdDriverStat : public ::testing::TestWithParam<LdStatistic> {};

TEST_P(LdDriverStat, MatrixMatchesNaive) {
  const BitMatrix g = test_matrix(31, 200, 1);
  LdOptions opts;
  opts.stat = GetParam();
  expect_matrices_near(ld_matrix(g, opts), naive_ld_matrix(g, GetParam()));
}

TEST_P(LdDriverStat, MatrixMatchesFloatingPointOracle) {
  const BitMatrix g = test_matrix(17, 150, 2);
  LdOptions opts;
  opts.stat = GetParam();
  expect_matrices_near(ld_matrix(g, opts), dgemm_ld_matrix(g, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllStatistics, LdDriverStat,
                         ::testing::Values(LdStatistic::kD,
                                           LdStatistic::kDPrime,
                                           LdStatistic::kRSquared),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case LdStatistic::kD: return "D";
                             case LdStatistic::kDPrime: return "DPrime";
                             default: return "RSquared";
                           }
                         });

TEST(LdMatrixDriver, DiagonalOfPolymorphicSnpsIsOne) {
  const BitMatrix g = test_matrix(20, 100, 3);
  const LdMatrix r2 = ld_matrix(g);
  for (std::size_t i = 0; i < g.snps(); ++i) {
    const std::uint64_t c = g.derived_count(i);
    if (c > 0 && c < g.samples()) {
      EXPECT_DOUBLE_EQ(r2(i, i), 1.0);
    }
  }
}

TEST(LdMatrixDriver, SymmetricResult) {
  const BitMatrix g = test_matrix(25, 130, 4);
  const LdMatrix r2 = ld_matrix(g);
  for (std::size_t i = 0; i < 25; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (!std::isnan(r2(i, j))) {
        EXPECT_DOUBLE_EQ(r2(i, j), r2(j, i));
      }
    }
  }
}

TEST(LdCrossMatrix, MatchesNaivePairCounts) {
  const BitMatrix a = test_matrix(12, 96, 5);
  const BitMatrix b = test_matrix(9, 96, 6);
  const LdMatrix got = ld_cross_matrix(a, b);
  for (std::size_t i = 0; i < a.snps(); ++i) {
    for (std::size_t j = 0; j < b.snps(); ++j) {
      const double want =
          ld_r_squared(a.derived_count(i), b.derived_count(j),
                       naive_pair_count(a, i, b, j), a.samples());
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got(i, j)));
      } else {
        EXPECT_NEAR(got(i, j), want, 1e-12);
      }
    }
  }
}

TEST(LdCrossMatrix, RejectsMismatchedSamples) {
  const BitMatrix a = test_matrix(4, 64, 7);
  const BitMatrix b = test_matrix(4, 128, 8);
  EXPECT_THROW((void)ld_cross_matrix(a, b), ContractViolation);
}

TEST(LdStatScan, CoversEveryLowerPairExactlyOnce) {
  const BitMatrix g = test_matrix(47, 80, 9);
  GemmConfig cfg;
  cfg.mc = 10;  // several cache tiles with a ragged tail
  cfg.nc = 12;
  LdOptions opts;
  opts.gemm = cfg;
  std::map<std::pair<std::size_t, std::size_t>, int> seen;
  ld_stat_scan(g, [&](const LdTile& tile) {
    for (std::size_t i = 0; i < tile.rows; ++i) {
      for (std::size_t j = 0; j < tile.cols; ++j) {
        seen[{tile.row_begin + i, tile.col_begin + j}] += 1;
      }
    }
  }, opts);
  EXPECT_EQ(seen.size(), ld_pair_count(g.snps()));
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const auto key = std::make_pair(i, j);
      EXPECT_EQ(seen.count(key), 1u) << i << "," << j;
      EXPECT_EQ(seen[key], 1) << i << "," << j;
    }
  }
}

TEST(LdStatScan, ValuesMatchDenseDriver) {
  const BitMatrix g = test_matrix(33, 120, 10);
  const LdMatrix dense = ld_matrix(g);
  ld_stat_scan(g, [&](const LdTile& tile) {
    for (std::size_t i = 0; i < tile.rows; ++i) {
      for (std::size_t j = 0; j < tile.cols; ++j) {
        const double want = dense(tile.row_begin + i, tile.col_begin + j);
        const double got = tile.at(i, j);
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(got));
        } else {
          EXPECT_NEAR(got, want, 1e-12);
        }
      }
    }
  });
}

TEST(LdCrossStatScan, ValuesMatchDenseDriver) {
  const BitMatrix a = test_matrix(21, 70, 11);
  const BitMatrix b = test_matrix(13, 70, 12);
  const LdMatrix dense = ld_cross_matrix(a, b);
  std::size_t pairs_seen = 0;
  ld_cross_stat_scan(a, b, [&](const LdTile& tile) {
    pairs_seen += tile.rows * tile.cols;
    for (std::size_t i = 0; i < tile.rows; ++i) {
      for (std::size_t j = 0; j < tile.cols; ++j) {
        const double want = dense(tile.row_begin + i, tile.col_begin + j);
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(tile.at(i, j)));
        } else {
          EXPECT_NEAR(tile.at(i, j), want, 1e-12);
        }
      }
    }
  });
  EXPECT_EQ(pairs_seen, a.snps() * b.snps());
}

TEST(LdInvariants, SamplePermutationDoesNotChangeLd) {
  // LD is a per-pair statistic over unordered samples: any consistent
  // permutation of the sample axis leaves every value untouched.
  const BitMatrix g = test_matrix(20, 90, 20);
  Rng rng(99);
  std::vector<std::size_t> perm(g.samples());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  BitMatrix shuffled(g.snps(), g.samples());
  for (std::size_t s = 0; s < g.snps(); ++s) {
    for (std::size_t i = 0; i < g.samples(); ++i) {
      if (g.get(s, i)) shuffled.set(s, perm[i], true);
    }
  }
  const LdMatrix a = ld_matrix(g);
  const LdMatrix b = ld_matrix(shuffled);
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j < g.snps(); ++j) {
      if (std::isnan(a(i, j))) {
        EXPECT_TRUE(std::isnan(b(i, j)));
      } else {
        EXPECT_DOUBLE_EQ(a(i, j), b(i, j)) << i << "," << j;
      }
    }
  }
}

TEST(LdInvariants, DuplicatingTheCohortDoesNotChangeLd) {
  // Every count and Nseq double, so all frequencies — and therefore D and
  // r^2 — are unchanged.
  const BitMatrix g = test_matrix(15, 70, 21);
  BitMatrix doubled(g.snps(), 2 * g.samples());
  for (std::size_t s = 0; s < g.snps(); ++s) {
    for (std::size_t i = 0; i < g.samples(); ++i) {
      if (g.get(s, i)) {
        doubled.set(s, i, true);
        doubled.set(s, g.samples() + i, true);
      }
    }
  }
  for (LdStatistic stat :
       {LdStatistic::kD, LdStatistic::kRSquared, LdStatistic::kDPrime}) {
    LdOptions opts;
    opts.stat = stat;
    const LdMatrix a = ld_matrix(g, opts);
    const LdMatrix b = ld_matrix(doubled, opts);
    for (std::size_t i = 0; i < g.snps(); ++i) {
      for (std::size_t j = 0; j < g.snps(); ++j) {
        if (std::isnan(a(i, j))) {
          EXPECT_TRUE(std::isnan(b(i, j)));
        } else {
          EXPECT_NEAR(a(i, j), b(i, j), 1e-12) << i << "," << j;
        }
      }
    }
  }
}

// Every value of `got` has exactly the bits of the same value of `want`.
void expect_same_bits(const LdMatrix& got, const LdMatrix& want,
                      const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got(i, j)),
                std::bit_cast<std::uint64_t>(want(i, j)))
          << what << " at (" << i << ", " << j << ")";
    }
  }
}

// A simulated panel whose SNPs 0 and every seventh alternately carry no
// derived allele or only derived alleles, so r^2 and D' hold NaNs.
BitMatrix with_monomorphic(std::size_t snps, std::size_t samples,
                           std::uint64_t seed) {
  BitMatrix g = test_matrix(snps, samples, seed);
  for (std::size_t s = 0; s < snps; s += 7) {
    for (std::size_t i = 0; i < samples; ++i) g.set(s, i, (s / 7) % 2 == 1);
  }
  return g;
}

TEST(LdDrivers, MatrixEqualsStatScanPlusMirror) {
  // The dense drivers write every element of an unzeroed output: the
  // canonical part and its transpose from each tile's sink. They must
  // equal the stat-tile scan poured into a zeroed matrix and mirrored.
  const std::size_t samples = 300;
  for (const KernelArch arch : {KernelArch::kScalar, KernelArch::kAuto}) {
    GemmConfig cfg;
    cfg.arch = arch;
    cfg.kc_words = 2;
    cfg.mc = 16;
    cfg.nc = 32;
    const GemmPlan plan = gemm_plan_for(test_matrix(1, samples, 1).view(), cfg);
    const std::vector<std::size_t> sizes = {1, plan.mr + 1, plan.mc + 5,
                                            plan.nc + plan.mc + 7};
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      const BitMatrix g = with_monomorphic(sizes[k], samples, 40 + k);
      const BitMatrix b =
          with_monomorphic(sizes[(k + 1) % sizes.size()], samples, 50 + k);
      for (const LdStatistic stat :
           {LdStatistic::kD, LdStatistic::kDPrime, LdStatistic::kRSquared}) {
        LdOptions opts;
        opts.stat = stat;
        opts.gemm = cfg;
        const std::string what = kernel_arch_name(arch) + " n=" +
                                 std::to_string(g.snps()) + " " +
                                 ld_statistic_name(stat);
        const auto pour = [](LdMatrix& m) {
          return [&m](const LdTile& t) {
            for (std::size_t i = 0; i < t.rows; ++i) {
              for (std::size_t j = 0; j < t.cols; ++j) {
                m(t.row_begin + i, t.col_begin + j) = t.at(i, j);
              }
            }
          };
        };
        LdMatrix want(g.snps(), g.snps());
        ld_stat_scan(g, pour(want), opts);
        mirror_ld_lower_to_upper(want);
        LdMatrix want_cross(g.snps(), b.snps());
        ld_cross_stat_scan(g, b, pour(want_cross), opts);

        expect_same_bits(ld_matrix(g, opts), want, what + " ld_matrix");
        expect_same_bits(ld_cross_matrix(g, b, opts), want_cross,
                         what + " ld_cross_matrix");
        for (const unsigned threads : {1u, 2u, 3u, 4u}) {
          const std::string team = " threads=" + std::to_string(threads);
          expect_same_bits(ld_matrix_parallel(g, opts, threads), want,
                           what + team + " ld_matrix_parallel");
          expect_same_bits(ld_cross_matrix(g, b, opts, threads), want_cross,
                           what + team + " ld_cross_matrix");
        }
      }
    }
  }
}

TEST(LdStatScan, EmptyMatrixEmitsNothing) {
  const BitMatrix empty;
  const BitMatrix some = test_matrix(3, 64, 13);
  const BitMatrix no_snps(0, some.samples());
  const auto no_tiles = [](const LdTile&) { FAIL() << "no tiles expected"; };
  for (const unsigned threads : {1u, 2u}) {
    ld_stat_scan(empty, no_tiles, {}, threads);
    ld_cross_stat_scan(no_snps, some, no_tiles, {}, threads);
    ld_cross_stat_scan(some, no_snps, no_tiles, {}, threads);
  }
}

}  // namespace
}  // namespace ldla
