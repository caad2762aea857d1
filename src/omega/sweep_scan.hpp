// Whole-region selective-sweep scan: omega evaluated on a grid of positions
// (OmegaPlus's main loop), with each window's pairwise r^2 matrix produced
// by the GEMM engine.
#pragma once

#include <cstddef>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/gemm/config.hpp"
#include "core/gemm/packed_bit_matrix.hpp"

namespace ldla {

struct SweepScanParams {
  std::size_t grid_points = 100;   ///< evaluation positions across [0, 1)
  std::size_t window_snps = 40;    ///< SNPs on EACH side of the grid point
  /// OmegaPlus-style window search: when non-empty, every grid point also
  /// evaluates these half-window sizes and reports the maximizing one
  /// (window_snps is always included).
  std::vector<std::size_t> window_candidates;
  GemmConfig gemm;
  /// Optional persistent packed operand for `g` (see LdOptions::packed).
  /// Windows are tiny relative to the region and neighbouring grid points
  /// overlap heavily, so the scan slices one pack instead of gathering and
  /// re-packing every window; when null, the scan packs once per call.
  const PackedBitMatrix* packed = nullptr;
};

struct OmegaPoint {
  double position = 0.0;
  double omega = 0.0;
  std::size_t window_begin = 0;  ///< SNP range the window covered
  std::size_t window_end = 0;
  std::size_t best_split = 0;    ///< split (SNPs left of it) maximizing omega
};

/// Scan a region. `positions` are the sorted SNP coordinates in [0, 1)
/// (as produced by the simulators or parsed from input files).
std::vector<OmegaPoint> omega_scan(const BitMatrix& g,
                                   const std::vector<double>& positions,
                                   const SweepScanParams& params = {});

/// Same scan with `threads` workers (0 = default_thread_count()): grid
/// points are split into contiguous ranges, one per worker, each window
/// evaluated whole on its worker. (A team inside each window's nest loses
/// here: windows of ~80 SNPs leave it almost nothing to steal.) Results
/// identical to omega_scan.
std::vector<OmegaPoint> omega_scan_parallel(
    const BitMatrix& g, const std::vector<double>& positions,
    const SweepScanParams& params = {}, unsigned threads = 0);

/// Highest-omega grid point of a scan (the sweep candidate).
OmegaPoint omega_scan_peak(const std::vector<OmegaPoint>& scan);

}  // namespace ldla
