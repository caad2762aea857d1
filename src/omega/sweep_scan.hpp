// Whole-region selective-sweep scan: omega evaluated on a grid of positions
// (OmegaPlus's main loop). The r^2 values come from one sliding band of the
// GEMM engine's output, computed once per pair and read by every window.
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
  /// The scan fills its r^2 band slab by slab from slices of one pack;
  /// when null, the scan packs once per call.
  const PackedBitMatrix* packed = nullptr;
  /// Team size (0 = default_thread_count()). The grid is split into
  /// contiguous runs, one per member, and each run slides its own band, so
  /// only the pairs at run edges are computed twice. Results are identical
  /// at every team size; do not set threads != 1 from inside a
  /// global_pool() task.
  unsigned threads = 1;
};

struct OmegaPoint {
  double position = 0.0;
  double omega = 0.0;
  std::size_t window_begin = 0;  ///< SNP range the window covered
  std::size_t window_end = 0;
  std::size_t best_split = 0;    ///< split (SNPs left of it) maximizing omega
};

/// Scan a region. `positions` are the sorted SNP coordinates in [0, 1)
/// (as produced by the simulators or parsed from input files). Grid point
/// g sits at x = (g + 0.5) / grid_points; each half-width h centres a
/// window of up to h SNPs on each side of the first SNP at or after x.
/// Monomorphic SNPs are dropped (as OmegaPlus does) and windows left with
/// fewer than 4 SNPs are skipped; a grid point reports its best window.
std::vector<OmegaPoint> omega_scan(const BitMatrix& g,
                                   const std::vector<double>& positions,
                                   const SweepScanParams& params = {});

/// Highest-omega grid point of a scan (the sweep candidate).
OmegaPoint omega_scan_peak(const std::vector<OmegaPoint>& scan);

}  // namespace ldla
