// Higher-order (three-locus) linkage disequilibrium — the "more specialized
// use case" the paper's Related Work points at (Slatkin 2008, ref [28]).
//
// Bennett's third-order disequilibrium coefficient for loci i, j, k:
//
//   D_ijk = P_ijk − P_i·D_jk − P_j·D_ik − P_k·D_ij − P_i·P_j·P_k
//
// where D_xy are the pairwise coefficients (Eq. 1) and P_ijk is the
// three-way haplotype frequency. The DLA formulation extends naturally:
// for a fixed conditioning SNP k, the counts
//
//   c_ijk = POPCNT(s_i & s_j & s_k)  =  POPCNT((s_i & s_k) & s_j)
//
// for all (i, j) are one popcount product between the k-masked matrix
// X_k = S & s_k and S itself. The window is packed once (its pairwise
// counts are one symmetric product over that pack); each X_k is packed as
// the A side only and multiplied with the window's B side through the fused
// nest, whose count tiles become D_ijk in place.
#pragma once

#include <cstdint>

#include "core/bit_matrix.hpp"
#include "core/gemm/config.hpp"
#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"

namespace ldla {

/// Dense w x w x w tensor of third-order values for a SNP window.
class ThirdOrderTensor {
 public:
  ThirdOrderTensor() = default;
  explicit ThirdOrderTensor(std::size_t w) : w_(w), buf_(w * w * w) {
    buf_.zero();
  }

  [[nodiscard]] std::size_t window() const noexcept { return w_; }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j,
                                  std::size_t k) const {
    LDLA_ASSERT(i < w_ && j < w_ && k < w_);
    return buf_[(i * w_ + j) * w_ + k];
  }
  [[nodiscard]] double& operator()(std::size_t i, std::size_t j,
                                   std::size_t k) {
    LDLA_ASSERT(i < w_ && j < w_ && k < w_);
    return buf_[(i * w_ + j) * w_ + k];
  }

 private:
  std::size_t w_ = 0;
  AlignedBuffer<double> buf_;
};

/// All D_ijk for the SNP window [snp_begin, snp_end): one pack of the
/// window and one fused product per conditioning SNP. Every entry equals
/// third_order_d_reference bit for bit.
/// The result is symmetric in all three indices; entries with repeated
/// indices reduce to lower-order quantities and are computed consistently.
/// Window width is capped (the tensor is O(w^3) doubles).
ThirdOrderTensor third_order_d(const BitMatrix& g, std::size_t snp_begin,
                               std::size_t snp_end,
                               const GemmConfig& cfg = {});

/// Scalar reference for one triple straight from the per-sample definition
/// (the oracle the GEMM version is tested against).
double third_order_d_reference(const BitMatrix& g, std::size_t i,
                               std::size_t j, std::size_t k);

/// Maximum supported window width for third_order_d.
inline constexpr std::size_t kMaxThirdOrderWindow = 256;

}  // namespace ldla
