#include "core/gemm/dgemm.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/gemm/count_matrix.hpp"
#include "core/gemm/macro.hpp"
#include "count_sink.hpp"
#include "sim/rng.hpp"
#include "sim/wright_fisher.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

std::vector<double> random_doubles(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(count);
  for (auto& v : out) v = rng.next_double() * 2.0 - 1.0;
  return out;
}

void reference_nt(std::size_t m, std::size_t n, std::size_t k,
                  const double* a, const double* b, double* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a[i * k + kk] * b[j * k + kk];
      }
      c[i * n + j] += acc;
    }
  }
}

TEST(Dgemm, MatchesTripleLoopAcrossShapes) {
  for (const auto& [m, n, k] :
       std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
           {1, 1, 1}, {4, 8, 16}, {5, 9, 7}, {17, 23, 65}, {33, 40, 300},
           {12, 100, 4}}) {
    const auto a = random_doubles(m * k, m + k);
    const auto b = random_doubles(n * k, n + k + 1);
    std::vector<double> c(m * n, 0.0), want(m * n, 0.0);
    dgemm_nt(m, n, k, a.data(), k, b.data(), k, c.data(), n);
    reference_nt(m, n, k, a.data(), b.data(), want.data());
    for (std::size_t i = 0; i < m * n; ++i) {
      ASSERT_NEAR(c[i], want[i], 1e-9 * static_cast<double>(k))
          << m << "x" << n << "x" << k << " at " << i;
    }
  }
}

TEST(Dgemm, AccumulatesIntoC) {
  const std::size_t m = 6, n = 10, k = 20;
  const auto a = random_doubles(m * k, 1);
  const auto b = random_doubles(n * k, 2);
  std::vector<double> c(m * n, 0.0);
  dgemm_nt(m, n, k, a.data(), k, b.data(), k, c.data(), n);
  const std::vector<double> once = c;
  dgemm_nt(m, n, k, a.data(), k, b.data(), k, c.data(), n);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c[i], 2.0 * once[i], 1e-12);
  }
}

TEST(Dgemm, BlockingParametersDoNotChangeResult) {
  const std::size_t m = 30, n = 26, k = 120;
  const auto a = random_doubles(m * k, 3);
  const auto b = random_doubles(n * k, 4);
  std::vector<double> want(m * n, 0.0);
  reference_nt(m, n, k, a.data(), b.data(), want.data());

  for (const auto& [kc, mc, nc] :
       std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
           {1, 4, 8}, {7, 12, 16}, {1000, 1000, 1000}}) {
    DgemmPlan plan;
    plan.kc = kc;
    plan.mc = mc;
    plan.nc = nc;
    std::vector<double> c(m * n, 0.0);
    dgemm_nt(m, n, k, a.data(), k, b.data(), k, c.data(), n, plan);
    for (std::size_t i = 0; i < m * n; ++i) {
      ASSERT_NEAR(c[i], want[i], 1e-9 * static_cast<double>(k));
    }
  }
}

TEST(Dgemm, ExpandedBinaryMatrixReproducesPopcountCounts) {
  // The "LD is DLA in disguise" identity: dgemm on the 0.0/1.0 expansion
  // of G computes exactly the popcount-GEMM count matrix.
  WrightFisherParams p;
  p.n_snps = 25;
  p.n_samples = 130;
  p.seed = 5;
  const BitMatrix g = simulate_genotypes(p);
  const std::size_t n = g.snps();
  const std::size_t k = g.samples();

  std::vector<double> dense(n * k);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t i = 0; i < k; ++i) {
      dense[s * k + i] = g.get(s, i) ? 1.0 : 0.0;
    }
  }
  std::vector<double> h(n * n, 0.0);
  dgemm_nt(n, n, k, dense.data(), k, dense.data(), k, h.data(), n);

  const CountMatrix counts = test::count_product(g.view(), g.view());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(static_cast<std::uint32_t>(h[i * n + j] + 0.5),
                counts(i, j))
          << i << "," << j;
    }
  }
}

TEST(Dgemm, RejectsBadLeadingDimensions) {
  std::vector<double> a(4), b(4), c(4);
  EXPECT_THROW(dgemm_nt(2, 2, 2, a.data(), 1, b.data(), 2, c.data(), 2),
               ContractViolation);
  EXPECT_THROW(dgemm_nt(2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 1),
               ContractViolation);
}

TEST(Dgemm, EmptyDimensionsAreNoops) {
  std::vector<double> c(4, 7.0);
  dgemm_nt(0, 2, 2, nullptr, 2, nullptr, 2, c.data(), 2);
  dgemm_nt(2, 0, 2, nullptr, 2, nullptr, 2, c.data(), 2);
  dgemm_nt(2, 2, 0, nullptr, 2, nullptr, 2, c.data(), 2);
  for (const double v : c) EXPECT_EQ(v, 7.0);
}

}  // namespace
}  // namespace ldla
