// Property sweep for the MAF-adaptive sparse/hybrid dispatch: with any
// sparse threshold — disabled, 1, auto, all-sparse — every driver must
// produce bit-identical D/D'/r² to the dense-only control, across stat x
// kernel arch x blocking x ragged shapes x unaligned band/omega windows x
// thread counts, plus the pack-time classification
// boundaries (popcount == threshold, complement columns, mixed slivers)
// and exactly-once tile coverage under hybrid dispatch.
//
// The bit-identity argument is structural — counts are exact integers, so
// list merges and dense popcounts agree term by term — which means any
// mismatch here points at the sparse kernels or the dispatch plumbing, not
// at floating-point noise.
#include "core/gemm/sparse.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/band.hpp"
#include "core/gemm/kernel.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/packed_bit_matrix.hpp"
#include "core/gemm/syrk.hpp"
#include "core/ld.hpp"
#include "core/parallel.hpp"
#include "naive_oracle.hpp"
#include "omega/sweep_scan.hpp"
#include "sim/maf_spectrum.hpp"
#include "sim/rng.hpp"
#include "util/sync.hpp"
#include "util/trace.hpp"

namespace ldla {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_matrix(const LdMatrix& got, const LdMatrix& want,
                        const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      ASSERT_TRUE(same_bits(got(i, j), want(i, j)))
          << what << " at (" << i << "," << j << ")";
    }
  }
}

/// Rare-variant-dominated panel: most columns under the auto threshold,
/// the rest common — every sliver mix (all-sparse, all-dense, hybrid)
/// occurs with high probability.
BitMatrix rare_panel(std::size_t snps, std::size_t samples,
                     std::uint64_t seed) {
  MafSpectrumParams p;
  p.n_snps = snps;
  p.n_samples = samples;
  p.rare_fraction = 0.8;
  p.rare_max_maf = 0.01;
  p.seed = seed;
  return simulate_maf_spectrum(p);
}

/// Hand-built classification extremes: all-zero, single-bit, all-ones,
/// all-but-one, exactly-at-threshold, one-past-threshold, complement at
/// threshold, and a dense half-ones row — cycled so sparse and dense rows
/// interleave within slivers (mixed slivers stay dense) and, with 8 patterns,
/// also align into uniform slivers for mr in {2, 4, 8}.
BitMatrix extreme_matrix(std::size_t snps, std::size_t samples,
                         std::size_t threshold, std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix m(snps, samples);
  const std::size_t thr = std::min(threshold, samples - 1);
  for (std::size_t s = 0; s < snps; ++s) {
    const auto set_first = [&](std::size_t count) {
      for (std::size_t b = 0; b < count && b < samples; ++b) {
        m.set(s, b, true);
      }
    };
    switch (s % 8) {
      case 0: break;                      // all-zero: empty list
      case 1: set_first(1); break;        // single carrier
      case 2: set_first(samples); break;  // fixed: empty complement list
      case 3: set_first(samples - 1); break;  // one-away complement
      case 4: set_first(thr); break;          // popcount == threshold
      case 5: set_first(thr + 1); break;      // one past (dense unless comp)
      case 6: set_first(samples - thr); break;  // zeros == threshold
      default:                                  // dense random half-ones
        for (std::size_t b = 0; b < samples; ++b) {
          if (rng.next_bool(0.5)) m.set(s, b, true);
        }
    }
  }
  return m;
}

// Ragged shapes off every register-tile and word boundary.
const std::vector<std::pair<std::size_t, std::size_t>> kShapes = {
    {1, 70}, {5, 100}, {33, 323}, {70, 129}};

constexpr std::array<LdStatistic, 3> kStats = {
    LdStatistic::kD, LdStatistic::kDPrime, LdStatistic::kRSquared};

/// Blocking variants: derived, tiny multi-panel (kc=2 words forces the
/// panel-cursor logic of the list×dense gather), and a mid-size config.
std::vector<GemmConfig> blocking_configs(KernelArch arch) {
  std::vector<GemmConfig> cfgs(3);
  cfgs[1].kc_words = 2;
  cfgs[1].mc = 8;
  cfgs[1].nc = 8;
  cfgs[2].kc_words = 3;
  cfgs[2].mc = 24;
  cfgs[2].nc = 16;
  for (GemmConfig& cfg : cfgs) cfg.arch = arch;
  return cfgs;
}

/// Threshold arms swept against the dense-only control: off, boundary 1,
/// the auto crossover, and larger-than-n (every column list-classified).
std::vector<std::size_t> threshold_arms(std::size_t samples) {
  return {1, kSparseThresholdAuto, samples + 1};
}

// ---- pack-time classification ------------------------------------------

TEST(SparseColumns, ClassifiesAtThresholdBoundaries) {
  const std::size_t samples = 130;  // two words + 2 bits of tail
  const std::size_t thr = 9;
  const BitMatrix m = extreme_matrix(16, samples, thr, 7);
  const SparseColumns sc = build_sparse_columns(m.view(), thr);
  ASSERT_EQ(sc.kind.size(), 16u);
  for (std::size_t s = 0; s < 16; ++s) {
    ASSERT_EQ(sc.popcount[s], m.derived_count(s)) << "row " << s;
  }
  EXPECT_EQ(sc.kind[0], ColumnKind::kList);        // all-zero
  EXPECT_EQ(sc.list_size(0), 0u);
  EXPECT_EQ(sc.kind[1], ColumnKind::kList);        // single bit
  ASSERT_EQ(sc.list_size(1), 1u);
  EXPECT_EQ(sc.list(1)[0], 0u);
  EXPECT_EQ(sc.kind[2], ColumnKind::kComplement);  // fixed
  EXPECT_EQ(sc.list_size(2), 0u);
  EXPECT_EQ(sc.kind[3], ColumnKind::kComplement);  // all-but-one
  ASSERT_EQ(sc.list_size(3), 1u);
  EXPECT_EQ(sc.list(3)[0], static_cast<std::uint32_t>(samples - 1));
  EXPECT_EQ(sc.kind[4], ColumnKind::kList);        // popcount == thr
  EXPECT_EQ(sc.list_size(4), thr);
  EXPECT_EQ(sc.kind[5], ColumnKind::kDense);       // popcount == thr + 1
  EXPECT_EQ(sc.list_size(5), 0u);
  EXPECT_EQ(sc.kind[6], ColumnKind::kComplement);  // zeros == thr
  EXPECT_EQ(sc.list_size(6), thr);
  EXPECT_EQ(sc.kind[7], ColumnKind::kDense);       // half-ones
  // Complement lists index ZERO bits and never include row padding.
  for (std::size_t e = 0; e < sc.list_size(6); ++e) {
    const std::uint32_t idx = sc.list(6)[e];
    EXPECT_LT(idx, samples);
    EXPECT_FALSE(m.get(6, idx));
  }
}

TEST(SparseColumns, ThresholdZeroDisablesListsButKeepsPopcounts) {
  const BitMatrix m = rare_panel(40, 200, 11);
  const SparseColumns sc = build_sparse_columns(m.view(), 0);
  EXPECT_FALSE(sc.enabled());
  EXPECT_EQ(sc.sparse_count, 0u);
  EXPECT_TRUE(sc.index.empty());
  for (std::size_t s = 0; s < m.snps(); ++s) {
    EXPECT_EQ(sc.kind[s], ColumnKind::kDense);
    EXPECT_EQ(sc.popcount[s], m.derived_count(s));
  }
}

TEST(SparseColumns, ListsReproduceTheRow) {
  const BitMatrix m = rare_panel(60, 323, 13);
  const SparseColumns sc = build_sparse_columns(m.view(), 323);  // all sparse
  for (std::size_t s = 0; s < m.snps(); ++s) {
    ASSERT_NE(sc.kind[s], ColumnKind::kDense);
    std::vector<bool> bits(m.samples(), sc.kind[s] == ColumnKind::kComplement);
    for (std::size_t e = 0; e < sc.list_size(s); ++e) {
      const std::uint32_t idx = sc.list(s)[e];
      if (e > 0) {
        ASSERT_LT(sc.list(s)[e - 1], idx) << "list not sorted";
      }
      bits[idx] = sc.kind[s] == ColumnKind::kList;
    }
    for (std::size_t b = 0; b < m.samples(); ++b) {
      ASSERT_EQ(bits[b], m.get(s, b)) << "row " << s << " bit " << b;
    }
  }
}

TEST(SparseColumns, PackRecordsSliverFlags) {
  // 8 rows/pattern-cycle: rows 0..6 sparse-classified at thr, row 7 dense,
  // so every full sliver containing a row ≡ 7 (mod 8) must stay dense.
  const std::size_t thr = 5;
  const BitMatrix m = extreme_matrix(64, 190, thr, 17);
  GemmConfig cfg;
  cfg.sparse_threshold = thr;
  const PackedBitMatrix pack = PackedBitMatrix::pack(m.view(), cfg);
  ASSERT_TRUE(pack.hybrid_dispatch());
  const std::size_t mr = pack.plan().mr;
  for (std::size_t s = 0; s * mr < m.snps(); ++s) {
    bool all_sparse = true;
    for (std::size_t i = s * mr; i < std::min((s + 1) * mr, m.snps()); ++i) {
      all_sparse &= pack.sparse_columns().kind[i] != ColumnKind::kDense;
    }
    EXPECT_EQ(pack.a_sliver_sparse(s), all_sparse) << "sliver " << s;
  }
  GemmConfig off = cfg;
  off.sparse_threshold = 0;
  EXPECT_FALSE(PackedBitMatrix::pack(m.view(), off).hybrid_dispatch());
}

// ---- kernel-level identities -------------------------------------------

TEST(SparseKernel, ListIntersectCountMatchesPopcountAnd) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t samples = 64 + rng.next_below(300);
    BitMatrix m(2, samples);
    const double pa = 0.02 + 0.3 * rng.next_double();
    for (std::size_t s = 0; s < 2; ++s) {
      for (std::size_t b = 0; b < samples; ++b) {
        if (rng.next_bool(pa)) m.set(s, b, true);
      }
    }
    const SparseColumns sc = build_sparse_columns(m.view(), samples);
    std::uint32_t want = 0;
    for (std::size_t b = 0; b < samples; ++b) {
      want += static_cast<std::uint32_t>(m.get(0, b) && m.get(1, b));
    }
    EXPECT_EQ(oracle::list_intersect_count(sc.list(0), sc.list_size(0),
                                           sc.list(1), sc.list_size(1)),
              want);
  }
}

// ---- driver sweeps vs the dense-only control ---------------------------

class SparseDispatch : public ::testing::TestWithParam<KernelArch> {};

TEST_P(SparseDispatch, LdMatrixBitIdenticalAcrossThresholds) {
  for (const auto& [n, k] : kShapes) {
    const BitMatrix g = rare_panel(n, k, n * 57 + k);
    for (const GemmConfig& base : blocking_configs(GetParam())) {
      for (const LdStatistic stat : kStats) {
        LdOptions dense;
        dense.gemm = base;
        dense.gemm.sparse_threshold = 0;
        dense.stat = stat;
        const LdMatrix want = ld_matrix(g, dense);
        for (const std::size_t thr : threshold_arms(k)) {
          LdOptions sparse = dense;
          sparse.gemm.sparse_threshold = thr;
          expect_same_matrix(ld_matrix(g, sparse), want,
                             ld_statistic_name(stat).c_str());
        }
      }
    }
  }
}

TEST_P(SparseDispatch, ExtremeColumnsBitIdenticalAcrossThresholds) {
  for (const std::size_t thr : {std::size_t{1}, std::size_t{9}}) {
    // Sample counts with full tail words and 1-bit / 62-bit tails, so the
    // complement mask runs at every alignment.
    for (const std::size_t samples : {128ul, 129ul, 190ul}) {
      const BitMatrix g = extreme_matrix(35, samples, thr, samples + thr);
      for (const GemmConfig& base : blocking_configs(GetParam())) {
        LdOptions dense;
        dense.gemm = base;
        dense.gemm.sparse_threshold = 0;
        const LdMatrix want = ld_matrix(g, dense);
        LdOptions sparse = dense;
        sparse.gemm.sparse_threshold = thr;
        expect_same_matrix(ld_matrix(g, sparse), want, "extreme columns");
        LdOptions all = dense;
        all.gemm.sparse_threshold = samples + 1;
        expect_same_matrix(ld_matrix(g, all), want, "all-sparse");
      }
    }
  }
}

TEST_P(SparseDispatch, CrossMatrixMixedPacksBitIdentical) {
  const BitMatrix a = rare_panel(33, 323, 67);
  const BitMatrix b = rare_panel(23, 323, 71);
  for (const GemmConfig& base : blocking_configs(GetParam())) {
    for (const LdStatistic stat : kStats) {
      LdOptions dense;
      dense.gemm = base;
      dense.gemm.sparse_threshold = 0;
      dense.stat = stat;
      const LdMatrix want = ld_cross_matrix(a, b, dense);
      for (const std::size_t thr : threshold_arms(323)) {
        LdOptions sparse = dense;
        sparse.gemm.sparse_threshold = thr;
        expect_same_matrix(ld_cross_matrix(a, b, sparse), want,
                           ld_statistic_name(stat).c_str());
      }
    }
  }
}

TEST_P(SparseDispatch, StatScanCoversCanonicalPairsExactlyOnceHybrid) {
  const BitMatrix g = rare_panel(70, 129, 73);
  for (const GemmConfig& base : blocking_configs(GetParam())) {
    LdOptions dense;
    dense.gemm = base;
    dense.gemm.sparse_threshold = 0;
    const LdMatrix want = ld_matrix(g, dense);
    LdOptions sparse = dense;
    sparse.gemm.sparse_threshold = kSparseThresholdAuto;
    std::map<std::pair<std::size_t, std::size_t>, double> seen;
    ld_stat_scan(g, [&](const LdTile& tile) {
      for (std::size_t i = 0; i < tile.rows; ++i) {
        for (std::size_t j = 0; j < tile.cols; ++j) {
          const auto key = std::pair(tile.row_begin + i, tile.col_begin + j);
          ASSERT_LE(key.second, key.first) << "non-canonical entry emitted";
          ASSERT_EQ(seen.count(key), 0u) << "duplicate pair";
          seen[key] = tile.at(i, j);
        }
      }
    }, sparse);
    ASSERT_EQ(seen.size(), g.snps() * (g.snps() + 1) / 2);
    for (const auto& [key, v] : seen) {
      ASSERT_TRUE(same_bits(v, want(key.first, key.second)))
          << "(" << key.first << "," << key.second << ")";
    }
  }
}

TEST_P(SparseDispatch, BandScanBitIdenticalAtUnalignedWindows) {
  // 600 SNPs in 256-row slabs: a ragged last slab, and a bandwidth of 300
  // that reaches past one slab.
  const BitMatrix g = rare_panel(600, 129, 79);
  for (const GemmConfig& base : blocking_configs(GetParam())) {
    for (const std::size_t bandwidth : {1ul, 11ul, 37ul, 300ul}) {
      BandOptions dense;
      dense.gemm = base;
      dense.gemm.sparse_threshold = 0;
      BandOptions sparse = dense;
      sparse.gemm.sparse_threshold = kSparseThresholdAuto;

      // Every emitted entry, keyed by index (test_band holds the emitted
      // set to exactly the band).
      const auto collect = [&](const BandOptions& o) {
        std::map<std::pair<std::size_t, std::size_t>, double> vals;
        ld_band_scan(g, bandwidth, [&](const LdTile& t) {
          for (std::size_t i = 0; i < t.rows; ++i) {
            for (std::size_t j = 0; j < t.cols; ++j) {
              vals[{t.row_begin + i, t.col_begin + j}] = t.at(i, j);
            }
          }
        }, o);
        return vals;
      };
      const auto want = collect(dense);
      const auto got = collect(sparse);
      ASSERT_EQ(got.size(), want.size());
      for (const auto& [key, v] : want) {
        const auto it = got.find(key);
        ASSERT_NE(it, got.end());
        ASSERT_TRUE(same_bits(it->second, v))
            << "(" << key.first << "," << key.second << ") bw " << bandwidth;
      }
    }
  }
}

TEST_P(SparseDispatch, OmegaScanBitIdenticalOnRarePanel) {
  const BitMatrix g = rare_panel(120, 190, 83);
  std::vector<double> positions(g.snps());
  Rng rng(89);
  for (double& p : positions) p = rng.next_double();
  std::sort(positions.begin(), positions.end());
  SweepScanParams dense;
  dense.gemm.arch = GetParam();
  dense.gemm.sparse_threshold = 0;
  dense.grid_points = 9;
  dense.window_snps = 17;  // off every sliver boundary
  SweepScanParams sparse = dense;
  sparse.gemm.sparse_threshold = kSparseThresholdAuto;
  const auto want = omega_scan(g, positions, dense);
  const auto got = omega_scan(g, positions, sparse);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(same_bits(got[i].omega, want[i].omega)) << "point " << i;
  }
}

TEST_P(SparseDispatch, NestParallelHybridMatchesNaive) {
  const BitMatrix g = rare_panel(96, 258, 97);
  for (const LdStatistic stat : kStats) {
    const LdMatrix want = naive_ld_matrix(g, stat);
    LdOptions dense;
    dense.gemm.arch = GetParam();
    dense.gemm.sparse_threshold = 0;
    dense.stat = stat;
    LdOptions sparse = dense;
    sparse.gemm.sparse_threshold = kSparseThresholdAuto;
    for (const unsigned threads : {1u, 2u, 4u}) {
      for (const LdOptions& opts : {dense, sparse}) {
        const LdMatrix got = ld_matrix_parallel(g, opts, threads);
        for (std::size_t i = 0; i < want.rows(); ++i) {
          for (std::size_t j = 0; j < want.cols(); ++j) {
            ASSERT_TRUE(oracle::same_value(got(i, j), want(i, j)))
                << "threads " << threads << " threshold "
                << opts.gemm.sparse_threshold << " at (" << i << "," << j
                << ")";
          }
        }
      }
    }
  }
}

TEST_P(SparseDispatch, TraceCountersAttributeHybridWork) {
  if (!trace::compiled()) GTEST_SKIP() << "built with LDLA_TRACE=OFF";
  const BitMatrix g = rare_panel(64, 190, 101);
  LdOptions sparse;
  sparse.gemm.arch = GetParam();
  sparse.gemm.sparse_threshold = kSparseThresholdAuto;
  const trace::TraceSnapshot before = trace::snapshot();
  (void)ld_matrix(g, sparse);
  const trace::TraceSnapshot mid = trace::snapshot().since(before);
  // An 80%-rare panel must dispatch sparse tiles beside the dense walk of
  // the mixed remainder; the sparse routes show up in the attribution
  // counters.
  EXPECT_GT(mid.counters.sparse_ll_tiles + mid.counters.sparse_ld_tiles, 0u);
  EXPECT_GT(mid.counters.list_intersections, 0u);

  LdOptions dense = sparse;
  dense.gemm.sparse_threshold = 0;
  const trace::TraceSnapshot before2 = trace::snapshot();
  (void)ld_matrix(g, dense);
  const trace::TraceSnapshot after = trace::snapshot().since(before2);
  EXPECT_EQ(after.counters.sparse_ll_tiles, 0u);
  EXPECT_EQ(after.counters.sparse_ld_tiles, 0u);
  EXPECT_EQ(after.counters.list_intersections, 0u);
}

// ---- chunk-local list×list product vs the oracle -----------------------

/// Every kind pair in every chunk: rows cycle through list (10% ones),
/// complement (90%), all-zero (empty list), all-ones (empty complement),
/// and two mid densities, except rows [8, 16), which are monomorphic
/// only: with mc = 8 that chunk's list×list index holds no entry at all,
/// yet its all-ones rows still need the complement correction.
BitMatrix kind_mix_matrix(std::size_t snps, std::size_t samples,
                          std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix m(snps, samples);
  constexpr std::array<double, 6> kDensity = {0.1, 0.9, 0.0, 1.0, 0.3, 0.7};
  for (std::size_t s = 0; s < snps; ++s) {
    const double d = s >= 8 && s < 16 ? static_cast<double>(s % 2)
                                      : kDensity[s % kDensity.size()];
    for (std::size_t b = 0; b < samples; ++b) {
      if (d == 1.0 || (d > 0.0 && rng.next_bool(d))) m.set(s, b, true);
    }
  }
  return m;
}

using CountCells =
    std::map<std::pair<std::size_t, std::size_t>, std::uint32_t>;

/// Every count a fused driver emits, by global (row, col); each cell must
/// be emitted once.
template <typename Run>
CountCells collect_cells(const Run& run) {
  CountCells cells;
  Mutex mu;
  bool duplicate = false;
  run([&](const CountTile& t) {
    MutexLock lock(mu);
    for (std::size_t i = 0; i < t.rows; ++i) {
      for (std::size_t j = 0; j < t.cols; ++j) {
        duplicate |= !cells.emplace(std::pair(t.row_begin + i,
                                              t.col_begin + j),
                                    t.row(i)[j])
                          .second;
      }
    }
  });
  EXPECT_FALSE(duplicate) << "a cell was emitted twice";
  return cells;
}

GemmConfig chunk_config(KernelArch arch, std::size_t threshold) {
  GemmConfig cfg;
  cfg.arch = arch;
  cfg.kc_words = 2;
  cfg.mc = 8;
  cfg.nc = 16;
  cfg.sparse_threshold = threshold;
  return cfg;
}

TEST_P(SparseDispatch, ChunkProductSyrkMatchesNaiveAndDensePack) {
  for (const std::size_t samples : {130ul, 67ul}) {
    const BitMatrix g = kind_mix_matrix(45, samples, samples);
    const CountMatrix want = naive_count_matrix(g, g);
    const PackedBitMatrix sparse = PackedBitMatrix::pack(
        g.view(), chunk_config(GetParam(), samples / 2));
    const PackedBitMatrix dense =
        PackedBitMatrix::pack(g.view(), chunk_config(GetParam(), 0));
    for (std::size_t i = 0; i < g.snps(); ++i) {
      ASSERT_NE(sparse.sparse_columns().kind[i], ColumnKind::kDense);
    }
    const std::size_t mr = sparse.plan().mr;
    const std::size_t nr = sparse.plan().nr;
    for (const unsigned threads : {1u, 2u, 4u}) {
      const auto syrk = [&](const PackedBitMatrix& p) {
        return collect_cells([&](const CountTileSink& sink) {
          syrk_count_fused(p, 0, p.snps(), sink, threads);
        });
      };
      const trace::TraceSnapshot before = trace::snapshot();
      const CountCells got = syrk(sparse);
      const trace::PhaseCounters routed =
          trace::snapshot().since(before).counters;
      if (trace::compiled()) {
        // Every column is sparse: every computed tile is list×list.
        EXPECT_GT(routed.sparse_ll_tiles, 0u);
        EXPECT_EQ(routed.sparse_ld_tiles, 0u);
      }
      EXPECT_EQ(got, syrk(dense)) << "threads " << threads;
      for (std::size_t i = 0; i < g.snps(); ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          ASSERT_EQ(got.count({i, j}), 1u) << "(" << i << "," << j << ")";
        }
      }
      for (const auto& [key, v] : got) {
        const auto [i, j] = key;
        // Register tiles strictly above the diagonal read as zeros.
        const bool above = i / mr * mr + mr <= j / nr * nr;
        ASSERT_EQ(v, above ? 0u : want(i, j))
            << "threads " << threads << " samples " << samples << " at ("
            << i << "," << j << ")";
      }
    }
  }
}

TEST_P(SparseDispatch, ChunkProductCrossMatchesNaiveAndDensePack) {
  const std::size_t samples = 130;
  const BitMatrix a = kind_mix_matrix(45, samples, 3);
  const BitMatrix b = kind_mix_matrix(29, samples, 5);
  const CountMatrix want = naive_count_matrix(a, b);
  const auto packs = [&](std::size_t threshold) {
    const GemmConfig cfg = chunk_config(GetParam(), threshold);
    return std::pair(PackedBitMatrix::pack(a.view(), cfg, PackSides::kA),
                     PackedBitMatrix::pack(b.view(), cfg, PackSides::kB));
  };
  const auto [sa, sb] = packs(samples / 2);
  const auto [da, db] = packs(0);
  for (const unsigned threads : {1u, 2u, 4u}) {
    // The whole product, then windows off the sliver grid on both sides.
    for (const auto& [a0, b0] : {std::pair(0ul, 0ul), std::pair(3ul, 5ul)}) {
      const auto cross = [&](const PackedBitMatrix& pa,
                             const PackedBitMatrix& pb) {
        return collect_cells([&](const CountTileSink& sink) {
          gemm_count_fused(pa, a0, a.snps(), pb, b0, b.snps(), sink, threads);
        });
      };
      const CountCells got = cross(sa, sb);
      EXPECT_EQ(got, cross(da, db)) << "threads " << threads;
      ASSERT_EQ(got.size(), (a.snps() - a0) * (b.snps() - b0));
      for (const auto& [key, v] : got) {
        ASSERT_EQ(v, want(key.first, key.second))
            << "threads " << threads << " at (" << key.first << ","
            << key.second << ")";
      }
      // A hybrid pack against a threshold-0 pack, which carries no
      // transpose: the call builds the dense partner's from its slivers.
      ASSERT_FALSE(db.has_sample_major());
      ASSERT_FALSE(da.has_sample_major());
      EXPECT_EQ(cross(sa, db), got) << "(sa, db) threads " << threads;
      EXPECT_EQ(cross(da, sb), got) << "(da, sb) threads " << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, SparseDispatch, ::testing::ValuesIn(available_kernels()),
    [](const ::testing::TestParamInfo<KernelArch>& param) {
      std::string name = kernel_arch_name(param.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ldla
