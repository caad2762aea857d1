#include "core/genotype_ld.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

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

TEST(GenotypeLd, MatchesPairwiseBaselineBitForBit) {
  const GenotypeMatrix g = test_genotypes(35, 200, 1);
  const LdMatrix want = plink_like_matrix(g);
  for (const GemmConfig& cfg : oracle::pair_block_configs()) {
    const LdMatrix got = genotype_ld_matrix(g, cfg);
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
    genotype_ld_scan(
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
        cfg);
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
  const LdMatrix m = genotype_ld_matrix(g);
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
  EXPECT_THROW((void)genotype_ld_matrix(g), ContractViolation);
  EXPECT_THROW((void)extract_dosage_planes(g), ContractViolation);
}

TEST(GenotypeLd, MonomorphicGenotypeIsNaN) {
  GenotypeMatrix g(2, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    g.set_dosage(0, i, 1);            // zero variance
    g.set_dosage(1, i, i % 2 ? 2 : 0);
  }
  const LdMatrix m = genotype_ld_matrix(g);
  EXPECT_TRUE(std::isnan(m(0, 1)));
  EXPECT_TRUE(std::isnan(m(0, 0)));
  EXPECT_TRUE(oracle::same_bits(m(1, 1), 1.0));
}

TEST(GenotypeLd, EmptyMatrixIsSafe) {
  GenotypeMatrix g;
  const LdMatrix m = genotype_ld_matrix(g);
  EXPECT_EQ(m.rows(), 0u);
}

}  // namespace
}  // namespace ldla
