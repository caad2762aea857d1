#include "core/gemm/syrk.hpp"

#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/gemm/kernel.hpp"
#include "count_sink.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

BitMatrix random_matrix(std::size_t snps, std::size_t samples,
                        std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix m(snps, samples);
  for (std::size_t s = 0; s < snps; ++s) {
    for (std::size_t b = 0; b < samples; ++b) {
      if (rng.next_bool(0.4)) m.set(s, b, true);
    }
  }
  return m;
}

class SyrkKernel : public ::testing::TestWithParam<KernelArch> {};

TEST_P(SyrkKernel, MatchesNaiveOnRaggedShapes) {
  GemmConfig cfg;
  cfg.arch = GetParam();
  for (const auto& [n, k] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {2, 64}, {5, 100}, {16, 64}, {33, 64 * 5 + 3},
           {70, 129}}) {
    const BitMatrix g = random_matrix(n, k, n * 31 + k);
    const CountMatrix expected = naive_count_matrix(g, g);
    const CountMatrix c = test::symmetric_product(g.view(), cfg);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(c(i, j), expected(i, j))
            << "n=" << n << " k=" << k << " at (" << i << ", " << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, SyrkKernel, ::testing::ValuesIn(available_kernels()),
    [](const ::testing::TestParamInfo<KernelArch>& param_info) {
      std::string name = kernel_arch_name(param_info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Syrk, OutputIsSymmetricWithDiagonalCounts) {
  const BitMatrix g = random_matrix(40, 500, 3);
  const CountMatrix c = test::symmetric_product(g.view());
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(c(i, i), g.derived_count(i));
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_EQ(c(i, j), c(j, i));
    }
  }
}

TEST(Syrk, SmallBlockingStillCorrect) {
  // Tiny mc/nc/kc force many diagonal-crossing and edge tiles.
  const BitMatrix g = random_matrix(23, 300, 4);
  const CountMatrix expected = naive_count_matrix(g, g);
  GemmConfig cfg;
  cfg.kc_words = 2;
  cfg.mc = 8;
  cfg.nc = 8;
  const CountMatrix c = test::symmetric_product(g.view(), cfg);
  for (std::size_t i = 0; i < 23; ++i) {
    for (std::size_t j = 0; j < 23; ++j) {
      ASSERT_EQ(c(i, j), expected(i, j)) << i << "," << j;
    }
  }
}

TEST(Syrk, OverwritesPreviousContents) {
  const BitMatrix g = random_matrix(10, 64, 5);
  CountMatrix c(10, 10);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) c(i, j) = 777;
  }
  const PackedBitMatrix p = PackedBitMatrix::pack(g.view());
  syrk_count_packed(p, 0, g.snps(), c.ref());
  const CountMatrix expected = naive_count_matrix(g, g);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      ASSERT_EQ(c(i, j), expected(i, j));
    }
  }
}

TEST(Syrk, RejectsTooSmallOutput) {
  const BitMatrix g = random_matrix(5, 64, 7);
  const PackedBitMatrix p = PackedBitMatrix::pack(g.view());
  CountMatrix c(4, 5);
  EXPECT_THROW(syrk_count_packed(p, 0, g.snps(), c.ref()), ContractViolation);
}

TEST(Syrk, EmptyRangeIsANoop) {
  const BitMatrix g = random_matrix(5, 64, 7);
  const PackedBitMatrix p = PackedBitMatrix::pack(g.view());
  CountMatrix c(0, 0);
  syrk_count_packed(p, 3, 3, c.ref());
}

}  // namespace
}  // namespace ldla
