// Missing-data / alignment-gap extension (Section VII, "Considering
// alignment gaps").
//
// Each SNP carries a validity bit-vector c alongside its state vector s.
// For a pair (i, j) the joint validity mask is c_ij = c_i & c_j, and the
// paper gives the masked inner products
//
//   allele counts:    POPCNT(c_ij & s_i),  POPCNT(c_ij & s_j)
//   haplotype count:  POPCNT(c_ij & s_i & s_j)
//   valid samples:    POPCNT(c_ij)
//
// Key reformulation (DESIGN.md): with the *cleaned* state matrix
// X = S & C (state bits zeroed where invalid, an invariant enforced at
// construction),
//
//   POPCNT(c_ij & s_i & s_j) = POPCNT(x_i & x_j)      -> GEMM(X, X)
//   POPCNT(c_ij & s_i)       = POPCNT(x_i & c_j)      -> GEMM(X, C)
//   POPCNT(c_ij)             = POPCNT(c_i & c_j)      -> GEMM(C, C)
//
// so missing-data LD is still dense linear algebra. A MaskedBitMatrix is an
// LdOperand (core/ld.hpp): it interleaves X and C by row (row 2i = x_i, row
// 2i+1 = c_i), and every LD driver (ld_matrix, ld_cross_matrix,
// ld_stat_scan, ld_cross_stat_scan, ld_band_scan) makes one fused call over
// that 2n-row pack, whose tiles hold each pair's whole 2x2 block of these
// counts; a per-pair row conversion turns them into statistics
// (core/detail/ld_stats_row.hpp). Pairs whose joint valid-sample count is
// zero (or whose conditional frequencies are degenerate) yield NaN.
#pragma once

#include "core/bit_matrix.hpp"
#include "core/ld.hpp"

namespace ldla {

/// A genomic matrix with per-sample validity masks.
class MaskedBitMatrix {
 public:
  MaskedBitMatrix() = default;

  /// Takes ownership of states and masks; both must have identical
  /// dimensions. State bits at invalid positions are cleared (the X = S & C
  /// invariant).
  MaskedBitMatrix(BitMatrix states, BitMatrix valid);

  /// Build from per-SNP strings over {'0', '1', '-', 'N'} ('-' and 'N' mark
  /// missing data).
  static MaskedBitMatrix from_snp_strings(std::span<const std::string> snps);

  [[nodiscard]] const BitMatrix& states() const noexcept { return states_; }
  [[nodiscard]] const BitMatrix& valid() const noexcept { return valid_; }
  [[nodiscard]] std::size_t snps() const noexcept { return states_.snps(); }
  [[nodiscard]] std::size_t samples() const noexcept {
    return states_.samples();
  }

  /// Number of valid (non-missing) samples at a SNP.
  [[nodiscard]] std::uint64_t valid_count(std::size_t snp) const {
    return valid_.derived_count(snp);
  }

 private:
  BitMatrix states_;
  BitMatrix valid_;
};

/// The statistic of one pair from the masked counts defined above: the
/// missing-data row conversion, and the tests' per-sample oracle.
double ld_value_missing(LdStatistic stat, std::uint64_t ci_masked,
                        std::uint64_t cj_masked, std::uint64_t cij_masked,
                        std::uint64_t n_valid);

}  // namespace ldla
