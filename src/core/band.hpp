// Banded LD: only pairs within a SNP-index bandwidth.
//
// Real scans rarely need all N(N+1)/2 pairs — LD decays with distance, and
// tools bound the pair set (PLINK's --ld-window, OmegaPlus's per-window
// evaluation; the paper notes OmegaPlus computes "only the LD values
// required"). The banded driver keeps the GEMM formulation: each row slab
// multiplies against just the column range its band intersects, so work is
// O(n · W) instead of O(n²) while every tile still goes through the packed
// micro-kernels.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ld.hpp"

namespace ldla {

struct BandOptions {
  LdStatistic stat = LdStatistic::kRSquared;
  GemmConfig gemm;
  /// Optional persistent packed operand for `g`'s rows (see
  /// LdOptions::packed).
  /// Consecutive slabs read overlapping column stripes, so one pack —
  /// this one, or one made per call — serves the whole band.
  const PackedBitMatrix* packed = nullptr;
  /// Team size for in-nest parallel stripes: 1 (default) runs the stripes
  /// sequentially, 0 means default_thread_count(). The team cooperates
  /// *inside* each stripe's nest (work-stealing macro-tile chunks), so the
  /// visitor still fires sequentially from the calling thread — decay
  /// accumulators need no locking.
  unsigned threads = 1;
};

/// Streaming banded scan: emits tiles covering every pair (i, j) with
/// j <= i and i - j <= bandwidth exactly once (tiles may also carry values
/// outside the band — consumers filter by index, the values are valid LD).
/// Tile columns start at col_begin (not 0), unlike the full scan. Any
/// operand kind (core/ld.hpp's LdOperand) runs the same stripe loop.
void ld_band_scan(const LdOperand& g, std::size_t bandwidth,
                  const LdTileVisitor& visit, const BandOptions& opts = {});

/// Mean finite LD per distance bin, computed with one banded scan.
struct DecayProfile {
  /// Upper edge of each bin; bin b covers distances (bin_upper[b-1],
  /// bin_upper[b]] (first bin starts just above 0 — self-pairs excluded).
  std::vector<double> bin_upper;
  std::vector<double> mean;          ///< mean finite statistic per bin
  std::vector<std::uint64_t> count;  ///< finite pairs per bin
};

/// LD decay as a function of SNP-index distance, up to max_distance.
DecayProfile ld_decay_profile(const BitMatrix& g, std::size_t max_distance,
                              std::size_t bins, const BandOptions& opts = {});

/// LD decay as a function of *genetic position* distance: pairs within
/// `snp_bandwidth` indices are binned by |pos_i - pos_j| up to max_dist.
DecayProfile ld_decay_by_position(const BitMatrix& g,
                                  const std::vector<double>& positions,
                                  std::size_t snp_bandwidth, double max_dist,
                                  std::size_t bins,
                                  const BandOptions& opts = {});

}  // namespace ldla
