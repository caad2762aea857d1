// The popcount-GEMM driver: GotoBLAS loop nest over the (AND, POPCNT, +)
// semiring, run over packed operands with the k panel loop innermost per
// cache tile, so each finished count tile goes to a sink while it is hot.
//
//     C[i][j] += sum_k POPCNT(a.row(i)[k] & b.row(j)[k])
//
// a supplies m rows, b supplies n rows (C = A · Bᵀ in row terms; with
// a == b this is the paper's  H·Nseq = Gᵀ G  haplotype-count matrix).
// Callers zero C first for assignment semantics; the driver accumulates.
//
// gemm_count_fused and syrk_count_fused (syrk.hpp) are the only tile
// drivers. Both run one tile enumerator (macro.cpp), parameterized by the
// shape and the team size. The shape is the rectangle, or a band of one
// operand against itself (the pairs with 0 <= i - j <= width): the lower
// triangle is the unbounded band, the banded scan's stripes a bounded one.
// Every count matrix and LD statistic is a sink of it. Callers pack the
// operands (PackedBitMatrix) and pass row ranges of the packs.
#pragma once

#include <cstdint>
#include <functional>

#include "core/bit_matrix.hpp"
#include "core/gemm/config.hpp"
#include "core/gemm/count_matrix.hpp"
#include "core/gemm/packed_bit_matrix.hpp"

namespace ldla {

/// One finalized cache tile of haplotype counts, delivered by the fused
/// drivers while it is still hot. Indices are global operand row numbers
/// (row_begin in A space, col_begin in B space); `counts` points at the
/// in-range corner of a tile-local scratch buffer with leading dimension
/// `ld`, valid only for the duration of the sink call.
struct CountTile {
  std::size_t row_begin = 0;
  std::size_t col_begin = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  const std::uint32_t* counts = nullptr;
  std::size_t ld = 0;

  const std::uint32_t* row(std::size_t i) const { return counts + i * ld; }
};

/// Consumer of finalized count tiles (the fused statistics epilogue).
using CountTileSink = std::function<void(const CountTile&)>;

/// The loop nest itself: the k (panel) loop runs innermost per (ic, jc)
/// cache tile — legal and cheap over persistently packed slivers — so
/// every tile of C is final exactly once, accumulated in a tile-local
/// scratch buffer and handed to `sink` while still hot. No count matrix is
/// ever materialized: peak intermediate storage is O(mc·nc) per team
/// member. Tiles partition [a_begin, a_end) x [b_begin, b_end); each
/// in-range element appears in exactly one tile.
///
/// `threads` sizes the team (0 = default_thread_count()). A team of one
/// delivers whole mc x nc cache tiles in jc-major order from the calling
/// thread. A larger team works inside the nest: every jc panel is cut into
/// mc x (q·nr) chunks that per-member work-stealing deques drain on
/// global_pool(), and `sink` is called concurrently, so it must be
/// thread-safe (tiles stay disjoint). Counts are identical at any team
/// size; do not call with threads != 1 from inside a global_pool() task.
void gemm_count_fused(const PackedBitMatrix& a, std::size_t a_begin,
                      std::size_t a_end, const PackedBitMatrix& b,
                      std::size_t b_begin, std::size_t b_end,
                      const CountTileSink& sink, unsigned threads = 1);

/// Statistics of the most recent plan resolution (for bench reporting).
GemmPlan gemm_plan_for(const BitMatrixView& a, const GemmConfig& cfg = {});

/// Empirically pick blocking parameters: runs short trials of candidate
/// (kc, mc) pairs on a problem-shaped sample and returns cfg with the
/// fastest combination filled in. Intended for long-running pipelines
/// where a few hundred milliseconds of tuning amortizes.
GemmConfig tune_gemm_config(const BitMatrixView& sample,
                            const GemmConfig& base = {});

}  // namespace ldla
