// Symmetric (SYRK-like) count driver: H·Nseq = GᵀG for a single genomic
// matrix, exploiting  POPCNT(s_i & s_j) = POPCNT(s_j & s_i)  to compute only
// register tiles that touch the lower triangle, then mirroring. The same
// tile enumerator as the rectangular driver (macro.hpp) walks the lower
// triangle as its unbounded band, and a bounded band (SyrkBand) for the
// banded scan; a count matrix is one sink of it (syrk_count_packed).
#pragma once

#include <cstddef>
#include <limits>

#include "core/gemm/count_matrix.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/packed_bit_matrix.hpp"

namespace ldla {

/// Symmetric count matrix over rows [row_begin, row_end) of a pre-packed
/// operand (needs both A and B sides); C[i][i] is the derived-allele count
/// of SNP i. C is local: entry (i - row_begin, j - row_begin), overwritten
/// (not accumulated), and must be at least n x n. With triangular_only
/// only the lower triangle and diagonal are guaranteed valid (the upper
/// triangle is unspecified) — consumers that read C(i, j) with i >= j only
/// skip the cache-blocked mirror pass entirely. The range may start
/// anywhere; windowed consumers slice one persistent packed copy instead
/// of gathering and re-packing each window. A count sink over
/// syrk_count_fused.
void syrk_count_packed(const PackedBitMatrix& a, std::size_t row_begin,
                       std::size_t row_end, CountMatrixRef c,
                       bool triangular_only = false);

/// A band width that bounds nothing: the lower triangle.
inline constexpr std::size_t kUnboundedBand =
    std::numeric_limits<std::size_t>::max();

/// The band of a symmetric call beyond its row window's own lower
/// triangle: columns start `col_lead` rows before the row window (at most
/// row_begin), and only pairs with 0 <= row - col <= `width` are computed.
/// The default is the window's lower triangle, the unbounded band.
struct SyrkBand {
  std::size_t col_lead = 0;
  std::size_t width = kUnboundedBand;
};

/// The symmetric loop nest over rows [row_begin, row_end) against columns
/// [row_begin - band.col_lead, row_end): the panel loop runs innermost per
/// cache tile, and each finalized tile is handed to `sink` from tile-local
/// scratch — no count matrix is materialized (peak intermediate storage is
/// O(mc·nc) per team member). Tiles cover the cache-tile grid restricted
/// to tiles that meet the band; within a delivered tile only entries with
/// 0 <= row - col <= band.width (global operand rows) are specified:
/// register tiles wholly above the diagonal or wholly beyond the band edge
/// are skipped and read as zero. Each in-band element appears in exactly
/// one tile. `threads` works as in gemm_count_fused: a larger team
/// enqueues only chunks that meet the band, and calls `sink` concurrently.
void syrk_count_fused(const PackedBitMatrix& a, std::size_t row_begin,
                      std::size_t row_end, const CountTileSink& sink,
                      unsigned threads = 1, const SyrkBand& band = {});

}  // namespace ldla
