// Property sweep for the persistent packed operand (PackedBitMatrix): the
// packed-sliver drivers must match the naive oracle bit-for-bit across
// kernel arch x blocking params x non-multiple-of-tile shapes x padding,
// including ranged (sliver-boundary-crossing) windows and caller-held
// packs.
#include "core/gemm/packed_bit_matrix.hpp"

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/band.hpp"
#include "core/gemm/kernel.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/syrk.hpp"
#include "core/ld.hpp"
#include "count_sink.hpp"
#include "naive_oracle.hpp"
#include "omega/sweep_scan.hpp"
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

// Ragged shapes: none a multiple of any register tile, sample counts off
// word boundaries (padding words in play) and spanning 1..16 words.
const std::vector<std::pair<std::size_t, std::size_t>> kShapes = {
    {5, 100}, {33, 323}, {70, 129}, {128, 1000}};

// Blocking sweeps: auto, tiny blocks (many panels and edge tiles), kc that
// forces several k panels on multi-word samples, and the no-blocking plan
// (one block spanning every shape here on all three axes).
std::vector<GemmConfig> blocking_configs(KernelArch arch) {
  std::vector<GemmConfig> cfgs(4);
  cfgs[1].kc_words = 2;
  cfgs[1].mc = 8;
  cfgs[1].nc = 8;
  cfgs[2].kc_words = 3;
  cfgs[2].mc = 24;
  cfgs[2].nc = 16;
  cfgs[3].kc_words = 4096;
  cfgs[3].mc = 4096;
  cfgs[3].nc = 4096;
  for (GemmConfig& cfg : cfgs) cfg.arch = arch;
  return cfgs;
}

using oracle::same_bits;
using oracle::same_value;

class PackReuse : public ::testing::TestWithParam<KernelArch> {};

TEST_P(PackReuse, PackedGemmMatchesNaive) {
  for (const auto& [n, k] : kShapes) {
    const BitMatrix a = random_matrix(n, k, n * 57 + k);
    const BitMatrix b = random_matrix((n * 2) / 3 + 1, k, n * 91 + k);
    const CountMatrix expected = naive_count_matrix(a, b);
    for (const GemmConfig& cfg : blocking_configs(GetParam())) {
      // Caller-held packs, one per side, reused by two products.
      const PackedBitMatrix pa =
          PackedBitMatrix::pack(a.view(), cfg, PackSides::kA);
      const PackedBitMatrix pb =
          PackedBitMatrix::pack(b.view(), cfg, PackSides::kB);
      CountMatrix packed(n, b.snps());
      test::add_count_tiles(pa, 0, n, pb, 0, b.snps(), packed.ref());
      CountMatrix again(n, b.snps());
      test::add_count_tiles(pa, 0, n, pb, 0, b.snps(), again.ref());

      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < b.snps(); ++j) {
          ASSERT_EQ(packed(i, j), expected(i, j))
              << "n=" << n << " k=" << k << " at (" << i << "," << j << ")";
          ASSERT_EQ(again(i, j), expected(i, j));
        }
      }
    }
  }
}

TEST_P(PackReuse, RangedPackedGemmMatchesSubmatrix) {
  const std::size_t n = 70, k = 129;
  const BitMatrix g = random_matrix(n, k, 11);
  const CountMatrix expected = naive_count_matrix(g, g);
  for (const GemmConfig& cfg : blocking_configs(GetParam())) {
    const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), cfg);
    // Ranges chosen to start/end off every register-tile boundary.
    for (const auto& [a0, a1, b0, b1] :
         std::vector<std::array<std::size_t, 4>>{
             {0, n, 0, n}, {3, 11, 1, 70}, {17, 42, 29, 30},
             {63, 70, 5, 64}}) {
      CountMatrix c(a1 - a0, b1 - b0);
      test::add_count_tiles(p, a0, a1, p, b0, b1, c.ref());
      for (std::size_t i = a0; i < a1; ++i) {
        for (std::size_t j = b0; j < b1; ++j) {
          ASSERT_EQ(c(i - a0, j - b0), expected(i, j))
              << "range [" << a0 << "," << a1 << ")x[" << b0 << "," << b1
              << ") at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST_P(PackReuse, RangedPackedSyrkMatchesWindow) {
  const std::size_t n = 67, k = 200;
  const BitMatrix g = random_matrix(n, k, 23);
  const CountMatrix expected = naive_count_matrix(g, g);
  for (const GemmConfig& cfg : blocking_configs(GetParam())) {
    const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), cfg);
    for (const auto& [r0, r1] : std::vector<std::pair<std::size_t,
                                                      std::size_t>>{
             {0, n}, {5, 37}, {30, 31}, {62, 67}}) {
      const std::size_t w = r1 - r0;
      CountMatrix full(w, w);
      syrk_count_packed(p, r0, r1, full.ref());
      for (std::size_t i = 0; i < w; ++i) {
        for (std::size_t j = 0; j < w; ++j) {
          ASSERT_EQ(full(i, j), expected(r0 + i, r0 + j))
              << "window [" << r0 << "," << r1 << ") at (" << i << "," << j
              << ")";
        }
      }

      // triangular_only: valid lower triangle, upper unspecified (must not
      // pay the mirror) — seed with a sentinel and check only j <= i.
      CountMatrix tri(w, w);
      for (std::size_t i = 0; i < w; ++i) {
        for (std::size_t j = 0; j < w; ++j) tri(i, j) = 0xdeadbeef;
      }
      syrk_count_packed(p, r0, r1, tri.ref(), /*triangular_only=*/true);
      for (std::size_t i = 0; i < w; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          ASSERT_EQ(tri(i, j), expected(r0 + i, r0 + j));
        }
      }
    }
  }
}

TEST_P(PackReuse, TeamPackedNestMatchesNaive) {
  const std::size_t n = 61, k = 323;
  const BitMatrix a = random_matrix(n, k, 31);
  const BitMatrix b = random_matrix(45, k, 37);
  const CountMatrix expected = naive_count_matrix(a, b);
  for (const GemmConfig& cfg : blocking_configs(GetParam())) {
    for (const unsigned threads : {1u, 2u, 3u}) {
      // Team pack + in-nest team over the shared slivers.
      const PackedBitMatrix pa =
          PackedBitMatrix::pack(a.view(), cfg, PackSides::kA, threads);
      const PackedBitMatrix pb =
          PackedBitMatrix::pack(b.view(), cfg, PackSides::kB, threads);
      CountMatrix c(n, b.snps());
      gemm_count_fused(
          pa, 0, n, pb, 0, b.snps(),
          [&](const CountTile& t) {
            for (std::size_t i = 0; i < t.rows; ++i) {
              for (std::size_t j = 0; j < t.cols; ++j) {
                c(t.row_begin + i, t.col_begin + j) = t.row(i)[j];
              }
            }
          },
          threads);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < b.snps(); ++j) {
          ASSERT_EQ(c(i, j), expected(i, j)) << "threads=" << threads;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, PackReuse, ::testing::ValuesIn(available_kernels()),
    [](const ::testing::TestParamInfo<KernelArch>& param_info) {
      std::string name = kernel_arch_name(param_info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- driver-level: one pack per call, checked against the oracle -------

TEST(PackReuseDrivers, StatScanMatchesNaive) {
  const BitMatrix g = random_matrix(93, 323, 41);
  const LdMatrix want = naive_ld_matrix(g);
  // Per-call pack, then a caller-held pack.
  LdOptions opts;
  const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), opts.gemm);
  const std::array<const PackedBitMatrix*, 2> packs = {nullptr, &p};
  for (const PackedBitMatrix* held : packs) {
    opts.packed = held;
    std::size_t pairs = 0;
    ld_stat_scan(g, [&](const LdTile& tile) {
      for (std::size_t i = 0; i < tile.rows; ++i) {
        const std::size_t gi = tile.row_begin + i;
        for (std::size_t j = 0; j < tile.cols; ++j) {
          const std::size_t gj = tile.col_begin + j;
          ASSERT_LE(gj, gi) << "non-canonical entry emitted";
          ASSERT_TRUE(same_value(tile.at(i, j), want(gi, gj)))
              << "(" << gi << "," << gj << ")";
          ++pairs;
        }
      }
    }, opts);
    EXPECT_EQ(pairs, ld_pair_count(g.snps()));
  }
}

TEST(PackReuseDrivers, BandScanMatchesNaive) {
  // 600 SNPs in the driver's 256-row slabs: a ragged last slab, and a
  // bandwidth of 300 that reaches past one slab.
  const BitMatrix g = random_matrix(600, 129, 43);
  const LdMatrix want = naive_ld_matrix(g);
  for (const std::size_t w : {11ul, 300ul}) {
    std::size_t pairs = 0;
    ld_band_scan(g, w, [&](const LdTile& tile) {
      for (std::size_t i = 0; i < tile.rows; ++i) {
        const std::size_t gi = tile.row_begin + i;
        for (std::size_t j = 0; j < tile.cols; ++j) {
          const std::size_t gj = tile.col_begin + j;
          if (gj > gi || gi - gj > w) continue;
          ASSERT_TRUE(same_value(tile.at(i, j), want(gi, gj)))
              << "w=" << w << " (" << gi << "," << gj << ")";
          ++pairs;
        }
      }
    });
    // Every in-band canonical pair exactly once: n(w+1) - w(w+1)/2.
    EXPECT_EQ(pairs, g.snps() * (w + 1) - w * (w + 1) / 2) << "w=" << w;
  }
}

TEST(PackReuseDrivers, OmegaScanMatchesNaive) {
  const BitMatrix g = random_matrix(160, 100, 47);
  std::vector<double> positions(g.snps());
  for (std::size_t s = 0; s < g.snps(); ++s) {
    positions[s] =
        (static_cast<double>(s) + 0.5) / static_cast<double>(g.snps());
  }
  SweepScanParams params;
  params.grid_points = 12;
  params.window_snps = 14;
  params.window_candidates = {7, 25};
  const std::vector<OmegaPoint> want =
      oracle::naive_omega_scan(g, positions, params);

  // Per-call pack, then a caller-held pack sliced by every window.
  const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), params.gemm);
  const std::array<const PackedBitMatrix*, 2> packs = {nullptr, &p};
  for (const PackedBitMatrix* held : packs) {
    SweepScanParams run = params;
    run.packed = held;
    const std::vector<OmegaPoint> got = omega_scan(g, positions, run);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(same_bits(got[i].omega, want[i].omega)) << "point " << i;
      EXPECT_EQ(got[i].window_begin, want[i].window_begin);
      EXPECT_EQ(got[i].window_end, want[i].window_end);
      EXPECT_EQ(got[i].best_split, want[i].best_split);
    }
  }
}

TEST(PackReuseDrivers, CallerSuppliedPackAcceptedAndShapeChecked) {
  const BitMatrix g = random_matrix(40, 200, 53);
  const LdOptions base;
  const LdMatrix want = ld_matrix(g, base);

  LdOptions opts;
  const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), opts.gemm);
  opts.packed = &p;
  const LdMatrix got = ld_matrix(g, opts);
  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      ASSERT_TRUE(same_bits(got(i, j), want(i, j))) << i << "," << j;
    }
  }

  // A pack of a different matrix shape must be rejected up front.
  const BitMatrix other = random_matrix(41, 200, 59);
  EXPECT_THROW((void)ld_matrix(other, opts), ContractViolation);
}

}  // namespace
}  // namespace ldla
