#include "core/genotype_ld.hpp"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/band.hpp"
#include "naive_oracle.hpp"
#include "sim/wright_fisher.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

GenotypeMatrix test_genotypes(std::size_t snps, std::size_t haplotypes,
                              std::uint64_t seed) {
  WrightFisherParams p;
  p.n_snps = snps;
  p.n_samples = haplotypes;
  p.seed = seed;
  return GenotypeMatrix::from_haplotypes(simulate_genotypes(p));
}

LdOptions gemm_options(const GemmConfig& cfg) {
  LdOptions opts;
  opts.gemm = cfg;
  return opts;
}

TEST(GenotypeLd, MatchesPairwiseBaselineBitForBit) {
  const GenotypeMatrix g = test_genotypes(35, 200, 1);
  const LdMatrix want = plink_like_matrix(g);
  for (const GemmConfig& cfg : oracle::pair_block_configs()) {
    const LdMatrix got = ld_matrix(g, gemm_options(cfg));
    for (std::size_t i = 0; i < g.snps(); ++i) {
      for (std::size_t j = 0; j < g.snps(); ++j) {
        ASSERT_TRUE(oracle::same_bits(got(i, j), want(i, j)))
            << oracle::describe_plan(cfg) << " at " << i << "," << j;
      }
    }
  }
}

TEST(GenotypeLd, ScanEmitsEachCanonicalPairOnceMatchingBaseline) {
  const GenotypeMatrix g = test_genotypes(41, 150, 2);
  const std::size_t n = g.snps();
  const LdMatrix want = plink_like_matrix(g);
  for (const GemmConfig& cfg : oracle::pair_block_configs()) {
    std::vector<int> seen(n * n, 0);
    ld_stat_scan(
        g,
        [&](const LdTile& tile) {
          ASSERT_LE(tile.row_begin + tile.rows, n);
          ASSERT_LE(tile.col_begin + tile.cols, n);
          for (std::size_t i = 0; i < tile.rows; ++i) {
            for (std::size_t j = 0; j < tile.cols; ++j) {
              const std::size_t gi = tile.row_begin + i;
              const std::size_t gj = tile.col_begin + j;
              ASSERT_LE(gj, gi)
                  << oracle::describe_plan(cfg) << ": above the diagonal";
              ++seen[gi * n + gj];
              ASSERT_TRUE(oracle::same_bits(tile.at(i, j), want(gi, gj)))
                  << oracle::describe_plan(cfg) << " at " << gi << "," << gj;
            }
          }
        },
        gemm_options(cfg));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        ASSERT_EQ(seen[i * n + j], 1)
            << oracle::describe_plan(cfg) << " pair " << i << "," << j;
      }
    }
  }
}

TEST(GenotypeLd, DiagonalIsOneForVariableSnps) {
  const GenotypeMatrix g = test_genotypes(20, 120, 3);
  const LdMatrix m = ld_matrix(g);
  for (std::size_t s = 0; s < g.snps(); ++s) {
    if (!std::isnan(m(s, s))) {
      EXPECT_TRUE(oracle::same_bits(m(s, s), 1.0)) << s;
    }
  }
}

TEST(GenotypeLd, PlanesRoundTripDosages) {
  const GenotypeMatrix g = test_genotypes(10, 60, 4);
  const DosagePlanes planes = extract_dosage_planes(g);
  for (std::size_t s = 0; s < g.snps(); ++s) {
    for (std::size_t ind = 0; ind < g.individuals(); ++ind) {
      const unsigned d = g.dosage(s, ind);
      EXPECT_EQ(planes.lo.get(s, ind), d == 1);
      EXPECT_EQ(planes.hi.get(s, ind), d == 2);
    }
  }
}

TEST(GenotypeLd, RejectsMissingData) {
  GenotypeMatrix g(3, 10);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t i = 0; i < 10; ++i) {
      g.set_dosage(s, i, static_cast<unsigned>((s + i) % 3));
    }
  }
  g.set_missing(1, 4);
  EXPECT_THROW((void)ld_matrix(g), ContractViolation);
  EXPECT_THROW((void)extract_dosage_planes(g), ContractViolation);
}

TEST(GenotypeLd, MonomorphicGenotypeIsNaN) {
  GenotypeMatrix g(2, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    g.set_dosage(0, i, 1);            // zero variance
    g.set_dosage(1, i, i % 2 ? 2 : 0);
  }
  const LdMatrix m = ld_matrix(g);
  EXPECT_TRUE(std::isnan(m(0, 1)));
  EXPECT_TRUE(std::isnan(m(0, 0)));
  EXPECT_TRUE(oracle::same_bits(m(1, 1), 1.0));
}

// SNPs [begin, end) of `g`.
GenotypeMatrix snp_range(const GenotypeMatrix& g, std::size_t begin,
                         std::size_t end) {
  GenotypeMatrix out(end - begin, g.individuals());
  for (std::size_t s = begin; s < end; ++s) {
    for (std::size_t ind = 0; ind < g.individuals(); ++ind) {
      out.set_dosage(s - begin, ind, g.dosage(s, ind));
    }
  }
  return out;
}

TEST(GenotypeLd, CrossMatrixMatchesPairwiseBaselineBitForBit) {
  const GenotypeMatrix g = test_genotypes(30, 160, 5);
  const GenotypeMatrix a = snp_range(g, 0, 13);
  const GenotypeMatrix b = snp_range(g, 13, 30);
  for (const GemmConfig& cfg : oracle::pair_block_configs()) {
    const LdMatrix got = ld_cross_matrix(a, b, gemm_options(cfg));
    ASSERT_EQ(got.rows(), a.snps());
    ASSERT_EQ(got.cols(), b.snps());
    for (std::size_t i = 0; i < a.snps(); ++i) {
      for (std::size_t j = 0; j < b.snps(); ++j) {
        ASSERT_TRUE(oracle::same_bits(got(i, j),
                                      plink_like_r2_pair(g, i, 13 + j)))
            << oracle::describe_plan(cfg) << " at " << i << "," << j;
      }
    }
  }
}

TEST(GenotypeLd, BandScanMatchesPairwiseBaseline) {
  const GenotypeMatrix g = test_genotypes(280, 120, 6);
  const std::size_t n = g.snps();
  const LdMatrix want = plink_like_matrix(g);
  for (const std::size_t bandwidth : {5u, 100u}) {
    std::vector<int> seen(n * n, 0);
    ld_band_scan(g, bandwidth, [&](const LdTile& tile) {
      for (std::size_t i = 0; i < tile.rows; ++i) {
        for (std::size_t j = 0; j < tile.cols; ++j) {
          const std::size_t gi = tile.row_begin + i;
          const std::size_t gj = tile.col_begin + j;
          ++seen[gi * n + gj];
          ASSERT_TRUE(oracle::same_bits(tile.at(i, j), want(gi, gj)))
              << "bandwidth " << bandwidth << " at " << gi << "," << gj;
        }
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i > bandwidth ? i - bandwidth : 0; j <= i; ++j) {
        ASSERT_EQ(seen[i * n + j], 1) << "pair " << i << "," << j;
      }
    }
  }
}

TEST(GenotypeLd, TeamsAreBitIdenticalToATeamOfOne) {
  const GenotypeMatrix g = test_genotypes(140, 300, 7);
  const std::size_t n = g.snps();
  for (const GemmConfig& cfg : oracle::pair_block_configs()) {
    const LdOptions opts = gemm_options(cfg);
    const LdMatrix want = ld_matrix(g, opts);
    for (const unsigned team : {1u, 2u, 4u}) {
      const std::string what =
          oracle::describe_plan(cfg) + " team " + std::to_string(team);
      const LdMatrix got = ld_matrix(g, opts, team);
      std::vector<double> scanned(n * n, 0.0);
      std::vector<int> seen(n * n, 0);
      // Tiles of a team arrive concurrently but are disjoint.
      ld_stat_scan(g, [&](const LdTile& tile) {
        for (std::size_t i = 0; i < tile.rows; ++i) {
          for (std::size_t j = 0; j < tile.cols; ++j) {
            const std::size_t at =
                (tile.row_begin + i) * n + tile.col_begin + j;
            scanned[at] = tile.at(i, j);
            ++seen[at];
          }
        }
      }, opts, team);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_TRUE(oracle::same_bits(got(i, j), want(i, j)))
              << what << " at " << i << "," << j;
          ASSERT_EQ(seen[i * n + j], j <= i ? 1 : 0)
              << what << " pair " << i << "," << j;
          if (j <= i) {
            ASSERT_TRUE(oracle::same_bits(scanned[i * n + j], want(i, j)))
                << what << " scan at " << i << "," << j;
          }
        }
      }
    }
  }
}

TEST(GenotypeLd, RejectsStatisticsOtherThanRSquared) {
  const GenotypeMatrix g = test_genotypes(9, 40, 8);
  const LdTileVisitor ignore = [](const LdTile&) {};
  for (const LdStatistic stat : {LdStatistic::kD, LdStatistic::kDPrime}) {
    LdOptions opts;
    opts.stat = stat;
    EXPECT_THROW((void)ld_matrix(g, opts), ContractViolation);
    EXPECT_THROW(ld_stat_scan(g, ignore, opts), ContractViolation);
    EXPECT_THROW((void)ld_cross_matrix(g, g, opts), ContractViolation);
    BandOptions band;
    band.stat = stat;
    EXPECT_THROW(ld_band_scan(g, 3, ignore, band), ContractViolation);
  }
}

TEST(GenotypeLd, CrossProductOfTwoKindsIsRejected) {
  // 2N haplotypes and their N genotypes: the sample counts differ too, so
  // build a haplotype panel over N samples to isolate the kind check.
  const GenotypeMatrix g = test_genotypes(9, 40, 9);
  const BitMatrix haps(9, g.individuals());
  EXPECT_THROW((void)ld_cross_matrix(g, haps), ContractViolation);
  EXPECT_THROW((void)ld_cross_matrix(haps, g), ContractViolation);
}

TEST(GenotypeLd, EmptyMatrixIsSafe) {
  GenotypeMatrix g;
  const LdMatrix m = ld_matrix(g);
  EXPECT_EQ(m.rows(), 0u);
}

}  // namespace
}  // namespace ldla
