#include "core/higher_order.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "naive_oracle.hpp"
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

TEST(ThirdOrder, GemmMatchesPerSampleReference) {
  const BitMatrix g = test_matrix(12, 90, 1);
  const ThirdOrderTensor d3 = third_order_d(g, 0, g.snps());
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j < g.snps(); ++j) {
      for (std::size_t k = 0; k < g.snps(); ++k) {
        EXPECT_TRUE(oracle::same_bits(d3(i, j, k),
                                      third_order_d_reference(g, i, j, k)))
            << i << "," << j << "," << k;
      }
    }
  }
}

TEST(ThirdOrder, SymmetricInAllIndices) {
  const BitMatrix g = test_matrix(8, 120, 2);
  const ThirdOrderTensor d3 = third_order_d(g, 0, g.snps());
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      for (std::size_t k = 0; k < 8; ++k) {
        const double v = d3(i, j, k);
        EXPECT_NEAR(v, d3(i, k, j), 1e-12);
        EXPECT_NEAR(v, d3(j, i, k), 1e-12);
        EXPECT_NEAR(v, d3(k, j, i), 1e-12);
      }
    }
  }
}

TEST(ThirdOrder, WindowOffsetsSelectSubRegion) {
  const BitMatrix g = test_matrix(20, 80, 3);
  const ThirdOrderTensor window = third_order_d(g, 5, 11);
  EXPECT_EQ(window.window(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      for (std::size_t k = 0; k < 6; ++k) {
        EXPECT_TRUE(oracle::same_bits(
            window(i, j, k), third_order_d_reference(g, 5 + i, 5 + j, 5 + k)))
            << i << "," << j << "," << k;
      }
    }
  }
}

TEST(ThirdOrder, IndependentLociGiveNearZero) {
  // Random unlinked SNPs: D_ijk concentrates near 0.
  WrightFisherParams p;
  p.n_snps = 9;
  p.n_samples = 4000;
  p.switch_rate = 1.0;  // every SNP an independent founder draw
  p.seed = 4;
  const BitMatrix g = simulate_genotypes(p);
  const ThirdOrderTensor d3 = third_order_d(g, 0, g.snps());
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      for (std::size_t k = 0; k < j; ++k) {
        EXPECT_LT(std::abs(d3(i, j, k)), 0.05)
            << i << "," << j << "," << k;
      }
    }
  }
}

TEST(ThirdOrder, PerfectlyLinkedTripleHasKnownValue) {
  // All three SNPs identical with frequency p: counts collapse and
  // D_iii = p - 3p*D - p^3 with D = p - p^2, i.e. p(1-p)(1-2p).
  const std::size_t n = 100;
  BitMatrix g(3, n);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t i = 0; i < 25; ++i) g.set(s, i, true);  // p = 0.25
  }
  const ThirdOrderTensor d3 = third_order_d(g, 0, 3);
  const double p = 0.25;
  const double expected = p * (1 - p) * (1 - 2 * p);
  EXPECT_NEAR(d3(0, 1, 2), expected, 1e-12);
  EXPECT_NEAR(third_order_d_reference(g, 0, 1, 2), expected, 1e-12);
}

TEST(ThirdOrder, RejectsBadArguments) {
  const BitMatrix g = test_matrix(10, 64, 5);
  EXPECT_THROW((void)third_order_d(g, 5, 3), ContractViolation);
  EXPECT_THROW((void)third_order_d(g, 0, 11), ContractViolation);
  EXPECT_THROW((void)third_order_d_reference(g, 10, 0, 0),
               ContractViolation);
}

TEST(ThirdOrder, EmptyWindowIsSafe) {
  const BitMatrix g = test_matrix(5, 64, 6);
  const ThirdOrderTensor d3 = third_order_d(g, 2, 2);
  EXPECT_EQ(d3.window(), 0u);
}

}  // namespace
}  // namespace ldla
