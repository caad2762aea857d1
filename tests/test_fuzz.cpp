// Randomized GEMM differential fuzz: random shapes, densities, kernels and
// blocking parameters must always match the per-bit oracle.
//
// Parser robustness fuzzing lives in tests/fuzz/ (libFuzzer harnesses with
// a corpus-replay driver), registered with ctest as fuzz_*_replay.
#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/syrk.hpp"
#include "count_sink.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

BitMatrix random_matrix(Rng& rng, std::size_t snps, std::size_t samples,
                        double density) {
  BitMatrix m(snps, samples);
  for (std::size_t s = 0; s < snps; ++s) {
    for (std::size_t b = 0; b < samples; ++b) {
      if (rng.next_bool(density)) m.set(s, b, true);
    }
  }
  return m;
}

TEST(GemmFuzz, RandomShapesMatchOracle) {
  Rng rng(0xF00D);
  const auto kernels = available_kernels();
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t m = 1 + rng.next_below(40);
    const std::size_t n = 1 + rng.next_below(40);
    const std::size_t k = 1 + rng.next_below(700);
    const double density = 0.05 + 0.9 * rng.next_double();
    const BitMatrix a = random_matrix(rng, m, k, density);
    const BitMatrix b = random_matrix(rng, n, k, density);
    const CountMatrix expected = naive_count_matrix(a, b);

    GemmConfig cfg;
    cfg.arch = kernels[rng.next_below(kernels.size())];
    cfg.kc_words = 1 + rng.next_below(64);
    cfg.mc = 1 + rng.next_below(48);
    cfg.nc = 1 + rng.next_below(48);
    if (!rng.next_bool(0.9)) {
      // One in ten: the no-blocking plan (one block on every axis).
      cfg.kc_words = a.view().n_words;
      cfg.mc = m;
      cfg.nc = n;
    }

    const CountMatrix c = test::count_product(a.view(), b.view(), cfg);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(c(i, j), expected(i, j))
            << "trial " << trial << " kernel "
            << kernel_arch_name(cfg.arch) << " m=" << m << " n=" << n
            << " k=" << k << " kc=" << cfg.kc_words << " mc=" << cfg.mc
            << " nc=" << cfg.nc << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(GemmFuzz, RandomSymmetricShapesMatchOracle) {
  Rng rng(0xBEEF);
  const auto kernels = available_kernels();
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.next_below(48);
    const std::size_t k = 1 + rng.next_below(500);
    const BitMatrix g =
        random_matrix(rng, n, k, 0.05 + 0.9 * rng.next_double());
    const CountMatrix expected = naive_count_matrix(g, g);

    GemmConfig cfg;
    cfg.arch = kernels[rng.next_below(kernels.size())];
    cfg.kc_words = 1 + rng.next_below(48);
    cfg.mc = 1 + rng.next_below(32);
    cfg.nc = 1 + rng.next_below(32);

    const CountMatrix c = test::symmetric_product(g.view(), cfg);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(c(i, j), expected(i, j))
            << "trial " << trial << " n=" << n << " k=" << k << " at (" << i
            << "," << j << ")";
      }
    }
  }
}

}  // namespace
}  // namespace ldla
