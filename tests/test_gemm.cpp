#include "core/gemm/macro.hpp"

#include <limits>
#include <tuple>

#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/gemm/kernel.hpp"
#include "count_sink.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

BitMatrix random_matrix(std::size_t snps, std::size_t samples,
                        std::uint64_t seed, double density = 0.4) {
  Rng rng(seed);
  BitMatrix m(snps, samples);
  for (std::size_t s = 0; s < snps; ++s) {
    for (std::size_t b = 0; b < samples; ++b) {
      if (rng.next_bool(density)) m.set(s, b, true);
    }
  }
  return m;
}

void expect_equal_counts(const CountMatrix& got, const CountMatrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      ASSERT_EQ(got(i, j), want(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

// (kernel, m, n, samples) sweep — shapes chosen to stress register-tile
// edges (m, n not multiples of mr/nr), word-boundary samples, and multiple
// kc panels.
using GemmCase = std::tuple<KernelArch, std::size_t, std::size_t, std::size_t>;

class GemmOracle : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmOracle, MatchesNaiveBitLoop) {
  const auto [arch, m, n, samples] = GetParam();
  const BitMatrix a = random_matrix(m, samples, 42 + m);
  const BitMatrix b = random_matrix(n, samples, 99 + n);

  GemmConfig cfg;
  cfg.arch = arch;
  const CountMatrix c = test::count_product(a.view(), b.view(), cfg);

  const CountMatrix expected = naive_count_matrix(a, b);
  expect_equal_counts(c, expected);
}

std::vector<GemmCase> oracle_cases() {
  std::vector<GemmCase> cases;
  for (KernelArch arch : available_kernels()) {
    for (const auto& [m, n, k] :
         std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
             {1, 1, 1},      // minimal
             {4, 4, 64},     // one exact tile, one word
             {3, 5, 64},     // sub-tile edges
             {17, 9, 100},   // ragged everything
             {16, 16, 1000}, // multiple words, word tail
             {33, 47, 64 * 9 + 7},  // several kc chunks for vector kernels
             {8, 70, 129},   // n wider than a B sliver row
         }) {
      cases.emplace_back(arch, m, n, k);
    }
  }
  return cases;
}

std::string oracle_case_name(const ::testing::TestParamInfo<GemmCase>& info) {
  std::string name = kernel_arch_name(std::get<0>(info.param)) + "_m" +
                     std::to_string(std::get<1>(info.param)) + "_n" +
                     std::to_string(std::get<2>(info.param)) + "_k" +
                     std::to_string(std::get<3>(info.param));
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmOracle,
                         ::testing::ValuesIn(oracle_cases()),
                         oracle_case_name);

TEST(Gemm, AllKernelsAgreeOnLargerProblem) {
  const BitMatrix a = random_matrix(53, 64 * 40 + 13, 7);
  const BitMatrix b = random_matrix(61, 64 * 40 + 13, 8);
  const auto kernels = available_kernels();
  ASSERT_FALSE(kernels.empty());

  GemmConfig ref_cfg;
  ref_cfg.arch = kernels.front();
  const CountMatrix reference =
      test::count_product(a.view(), b.view(), ref_cfg);
  for (std::size_t ki = 1; ki < kernels.size(); ++ki) {
    GemmConfig cfg;
    cfg.arch = kernels[ki];
    const CountMatrix c = test::count_product(a.view(), b.view(), cfg);
    SCOPED_TRACE(kernel_arch_name(kernels[ki]));
    expect_equal_counts(c, reference);
  }
}

TEST(Gemm, ResultInvariantUnderBlockingParameters) {
  const BitMatrix a = random_matrix(40, 2000, 11);
  const BitMatrix b = random_matrix(35, 2000, 12);
  const CountMatrix expected = naive_count_matrix(a, b);

  for (const auto& [kc, mc, nc] :
       std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
           {8, 8, 8}, {16, 12, 20}, {1024, 64, 64}, {3, 4, 4}}) {
    GemmConfig cfg;
    cfg.kc_words = kc;
    cfg.mc = mc;
    cfg.nc = nc;
    const CountMatrix c = test::count_product(a.view(), b.view(), cfg);
    SCOPED_TRACE("kc=" + std::to_string(kc) + " mc=" + std::to_string(mc) +
                 " nc=" + std::to_string(nc));
    expect_equal_counts(c, expected);
  }
}

TEST(Gemm, SingleBlockPlanMatches) {
  // "Blocking off" is a degenerate plan of the same nest: kc spans all of
  // k and one cache tile spans the whole output — given as the exact
  // extents or as SIZE_MAX (clamped, never wrapped by the tile rounding).
  const BitMatrix a = random_matrix(21, 500, 15);
  const BitMatrix b = random_matrix(19, 500, 16);
  const CountMatrix expected = naive_count_matrix(a, b);

  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  for (const auto& [kc, mc, nc] :
       std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
           {a.view().n_words, 21, 19}, {huge, huge, huge}}) {
    GemmConfig cfg;
    cfg.kc_words = kc;
    cfg.mc = mc;
    cfg.nc = nc;
    expect_equal_counts(test::count_product(a.view(), b.view(), cfg),
                        expected);
  }
}

TEST(Gemm, TilesPartitionTheWindow) {
  // Every element of a ragged window arrives in exactly one tile, and no
  // tile reaches outside the window.
  const BitMatrix g = random_matrix(37, 200, 17);
  GemmConfig cfg;
  cfg.mc = 8;
  cfg.nc = 8;
  const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), cfg);
  const std::size_t a0 = 3, a1 = 30, b0 = 5, b1 = 36;
  CountMatrix hits(g.snps(), g.snps());
  gemm_count_fused(p, a0, a1, p, b0, b1, [&](const CountTile& t) {
    ASSERT_GE(t.row_begin, a0);
    ASSERT_LE(t.row_begin + t.rows, a1);
    ASSERT_GE(t.col_begin, b0);
    ASSERT_LE(t.col_begin + t.cols, b1);
    for (std::size_t i = 0; i < t.rows; ++i) {
      for (std::size_t j = 0; j < t.cols; ++j) {
        ++hits(t.row_begin + i, t.col_begin + j);
      }
    }
  });
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j < g.snps(); ++j) {
      const bool inside = i >= a0 && i < a1 && j >= b0 && j < b1;
      ASSERT_EQ(hits(i, j), inside ? 1u : 0u) << i << "," << j;
    }
  }
}

TEST(Gemm, PaddingBitsNeverLeakIntoCounts) {
  // samples = 1: rows are 1/64th full; any kernel reading padding would
  // inflate counts.
  const BitMatrix a = random_matrix(9, 1, 19, 1.0);  // all ones (1 bit)
  const CountMatrix c = test::count_product(a.view(), a.view());
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_EQ(c(i, j), 1u);
    }
  }
}

TEST(Gemm, RowRangesComputeSubBlocks) {
  const BitMatrix g = random_matrix(20, 300, 20);
  const CountMatrix full = naive_count_matrix(g, g);

  const PackedBitMatrix p = PackedBitMatrix::pack(g.view());
  CountMatrix c(5, 8);
  test::add_count_tiles(p, 10, 15, p, 2, 10, c.ref());
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_EQ(c(i, j), full(10 + i, 2 + j));
    }
  }
}

void fail_on_tile(const CountTile&) { FAIL() << "unexpected tile"; }

TEST(Gemm, RejectsMismatchedOperands) {
  const BitMatrix a = random_matrix(4, 64, 21);
  const BitMatrix b = random_matrix(4, 128, 22);
  const PackedBitMatrix pa = PackedBitMatrix::pack(a.view(), {}, PackSides::kA);
  const PackedBitMatrix pb = PackedBitMatrix::pack(b.view(), {}, PackSides::kB);
  EXPECT_THROW(gemm_count_fused(pa, 0, 4, pb, 0, 4, fail_on_tile),
               ContractViolation);
}

TEST(Gemm, RejectsOutOfRangeRows) {
  const BitMatrix a = random_matrix(4, 64, 23);
  const PackedBitMatrix p = PackedBitMatrix::pack(a.view());
  EXPECT_THROW(gemm_count_fused(p, 0, 5, p, 0, 4, fail_on_tile),
               ContractViolation);
  EXPECT_THROW(gemm_count_fused(p, 0, 4, p, 3, 2, fail_on_tile),
               ContractViolation);
}

TEST(Gemm, EmptyRangesAreNoops) {
  const BitMatrix a = random_matrix(4, 64, 24);
  const PackedBitMatrix p = PackedBitMatrix::pack(a.view());
  gemm_count_fused(p, 2, 2, p, 0, 4, fail_on_tile);
  gemm_count_fused(p, 0, 4, p, 4, 4, fail_on_tile);
}

// Threaded counts: a team pack, then the in-nest team with a count sink.
void nest_count(const BitMatrix& a, const BitMatrix& b, CountMatrix& c,
                unsigned threads) {
  const PackedBitMatrix pa =
      PackedBitMatrix::pack(a.view(), {}, PackSides::kA, threads);
  const PackedBitMatrix pb =
      PackedBitMatrix::pack(b.view(), {}, PackSides::kB, threads);
  gemm_count_fused(
      pa, 0, a.snps(), pb, 0, b.snps(),
      [&](const CountTile& t) {
        for (std::size_t i = 0; i < t.rows; ++i) {
          for (std::size_t j = 0; j < t.cols; ++j) {
            c(t.row_begin + i, t.col_begin + j) = t.row(i)[j];
          }
        }
      },
      threads);
}

TEST(GemmParallel, MatchesNaiveAcrossThreadCounts) {
  const BitMatrix a = random_matrix(45, 900, 31);
  const BitMatrix b = random_matrix(38, 900, 32);
  const CountMatrix expected = naive_count_matrix(a, b);
  for (unsigned t : {1u, 2u, 3u, 8u}) {
    CountMatrix c(45, 38);
    nest_count(a, b, c, t);
    SCOPED_TRACE(t);
    expect_equal_counts(c, expected);
  }
}

TEST(GemmParallel, SingleRowAndEmptyAreSafe) {
  const BitMatrix a = random_matrix(1, 64, 33);
  CountMatrix c(1, 1);
  nest_count(a, a, c, 4);
  EXPECT_EQ(c(0, 0), static_cast<std::uint32_t>(a.derived_count(0)));
  BitMatrix empty;
  nest_count(empty, a, c, 4);
}

TEST(GemmTuner, ReturnsValidConfigThatComputesCorrectly) {
  const BitMatrix g = random_matrix(60, 3000, 34);
  const GemmConfig tuned = tune_gemm_config(g.view());
  EXPECT_GT(tuned.kc_words, 0u);
  EXPECT_GT(tuned.mc, 0u);
  const CountMatrix c = test::count_product(g.view(), g.view(), tuned);
  const CountMatrix expected = naive_count_matrix(g, g);
  expect_equal_counts(c, expected);
}

TEST(GemmTuner, EmptySampleReturnsBase) {
  BitMatrix empty;
  GemmConfig base;
  base.kc_words = 123;
  const GemmConfig tuned = tune_gemm_config(empty.view(), base);
  EXPECT_EQ(tuned.kc_words, 123u);
}

TEST(GemmPlan, ForcedUnavailableKernelThrows) {
  // kStrawman requires AVX2; if this machine lacks it the resolve must
  // throw rather than silently fall back.
  GemmConfig cfg;
  cfg.arch = KernelArch::kStrawman;
  if (!kernel_available(KernelArch::kStrawman)) {
    EXPECT_THROW(resolve_plan(cfg, 10), ContractViolation);
  } else {
    EXPECT_EQ(resolve_plan(cfg, 10).arch, KernelArch::kStrawman);
  }
}

TEST(GemmPlan, AutoResolvesToAvailableKernel) {
  const GemmPlan plan = resolve_plan(GemmConfig{}, 100);
  EXPECT_NE(plan.arch, KernelArch::kAuto);
  EXPECT_TRUE(kernel_available(plan.arch));
  EXPECT_GT(plan.kc_words, 0u);
  EXPECT_EQ(plan.kc_words % plan.ku, 0u);
  EXPECT_EQ(plan.mc % plan.mr, 0u);
  EXPECT_EQ(plan.nc % plan.nr, 0u);
}

TEST(GemmPlan, RespectsExplicitParameters) {
  GemmConfig cfg;
  cfg.arch = KernelArch::kScalar;
  cfg.kc_words = 100;
  cfg.mc = 32;
  cfg.nc = 64;
  const GemmPlan plan = resolve_plan(cfg, 1000);
  EXPECT_EQ(plan.kc_words, 100u);  // ku = 1 for scalar, no rounding needed
  EXPECT_EQ(plan.mc, 32u);
  EXPECT_EQ(plan.nc, 64u);
}

}  // namespace
}  // namespace ldla
