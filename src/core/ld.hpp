// Linkage-disequilibrium statistics on top of the popcount-GEMM engine.
//
// Section II of the paper: with allele count c_i = s_i^T s_i, haplotype
// count c_ij = s_i^T s_j and sample size Nseq,
//
//   P_i  = c_i  / Nseq                (allele frequency, Eq. 3)
//   P_ij = c_ij / Nseq                (haplotype frequency, Eq. 4)
//   D    = P_ij - P_i P_j             (Eq. 1/5)
//   r^2  = D^2 / (P_i P_j (1-P_i)(1-P_j))   (Eq. 2)
//
// plus the conventional normalized D' = D / D_max. Monomorphic SNPs make
// r^2 and D' undefined; those entries are reported as NaN.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/gemm/config.hpp"
#include "core/gemm/packed_bit_matrix.hpp"
#include "util/aligned_buffer.hpp"

namespace ldla {

enum class LdStatistic {
  kD,         ///< raw disequilibrium coefficient D
  kDPrime,    ///< D normalized by its theoretical extreme, in [-1, 1]
  kRSquared,  ///< squared Pearson correlation, in [0, 1]
};

std::string ld_statistic_name(LdStatistic s);

/// Scalar formulas (building blocks; exposed for tests and baselines).
/// All take raw counts plus the sample size.
double ld_d(std::uint64_t ci, std::uint64_t cj, std::uint64_t cij,
            std::uint64_t nseq);
double ld_r_squared(std::uint64_t ci, std::uint64_t cj, std::uint64_t cij,
                    std::uint64_t nseq);
double ld_d_prime(std::uint64_t ci, std::uint64_t cj, std::uint64_t cij,
                  std::uint64_t nseq);
double ld_value(LdStatistic stat, std::uint64_t ci, std::uint64_t cj,
                std::uint64_t cij, std::uint64_t nseq);

struct LdOptions {
  LdStatistic stat = LdStatistic::kRSquared;
  GemmConfig gemm;
  /// Optional persistent packed operand for the primary matrix (`g`, or
  /// `a` in the cross drivers). Must be packed from the same matrix with
  /// the same GemmConfig (shape is checked, content is the caller's
  /// responsibility). Repeated-call workloads pack once per dataset and
  /// pass it here; when null, drivers pack internally per call.
  const PackedBitMatrix* packed = nullptr;
  /// Same for the second matrix of the cross drivers (needs a B side).
  const PackedBitMatrix* packed_b = nullptr;
};

namespace detail {
struct LdOutput;  // core/ld.cpp: the dense drivers' output construction
}  // namespace detail

/// Dense row-major matrix of doubles (LD values).
class LdMatrix {
 public:
  LdMatrix() = default;
  /// A zero-filled rows x cols matrix; throws std::bad_alloc when
  /// rows * cols doubles cannot be addressed.
  LdMatrix(std::size_t rows, std::size_t cols)
      : LdMatrix(rows, cols, Unzeroed{}) {
    buf_.zero();
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    return buf_[i * cols_ + j];
  }
  [[nodiscard]] double& operator()(std::size_t i, std::size_t j) {
    return buf_[i * cols_ + j];
  }
  [[nodiscard]] const double* data() const noexcept { return buf_.data(); }
  [[nodiscard]] double* data() noexcept { return buf_.data(); }

 private:
  friend struct detail::LdOutput;
  struct Unzeroed {};
  // Contents unspecified: for the dense drivers, which write every element
  // from the team, so the first touch of each page happens there.
  LdMatrix(std::size_t rows, std::size_t cols, Unzeroed)
      : rows_(rows), cols_(cols), buf_(detail::checked_size_mul(rows, cols)) {}

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedBuffer<double> buf_;
};

/// All-pairs LD within one genomic matrix (full symmetric n x n result,
/// diagonal = LD of a SNP with itself). Intended for moderate n; for large
/// regions stream the pairs with ld_stat_scan (or ld_matrix_stream when
/// the panel itself does not fit in memory).
LdMatrix ld_matrix(const BitMatrix& g, const LdOptions& opts = {});

/// LD between every SNP of `a` and every SNP of `b` (the Fig. 4 / long-range
/// association use case). Both matrices must cover the same samples.
/// `threads` sizes the team of the in-nest parallel drivers (0 =
/// default_thread_count(); see core/parallel.hpp); the result is identical
/// at every team size.
LdMatrix ld_cross_matrix(const BitMatrix& a, const BitMatrix& b,
                         const LdOptions& opts = {}, unsigned threads = 1);

/// A tile of LD values streamed out of a scan. Row/col indices are SNP
/// indices in the input matrices; `values` is row-major with leading
/// dimension `ld` and valid only for the duration of the visitor call.
struct LdTile {
  std::size_t row_begin = 0;
  std::size_t col_begin = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  const double* values = nullptr;
  std::size_t ld = 0;

  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    return values[i * ld + j];
  }
};

using LdTileVisitor = std::function<void(const LdTile&)>;

/// Streaming all-pairs LD: emits stat tiles straight from the fused
/// epilogue, covering every canonical pair (j <= i, including the
/// diagonal) exactly once and emitting no other entries. Tile geometry
/// follows the cache blocking (at most mc x nc); diagonal-crossing cache
/// tiles are delivered as per-row fragments so every emitted value is
/// valid. Resident memory is O(mc·nc) per team member, independent of n.
///
/// `threads` sizes the team (0 = default_thread_count()). A team of one
/// calls `visit` from the calling thread, in tile order; a larger team
/// calls it CONCURRENTLY on disjoint tiles, so a visitor writing disjoint
/// output ranges needs no lock and any shared accumulator does. The values
/// are identical at every team size; only the tile order and geometry may
/// differ. Do not call with threads != 1 from inside a global_pool() task.
void ld_stat_scan(const BitMatrix& g, const LdTileVisitor& visit,
                  const LdOptions& opts = {}, unsigned threads = 1);

/// Cross-matrix variant of ld_stat_scan: every (row of a, row of b) pair
/// exactly once, with the same tile and team contract.
void ld_cross_stat_scan(const BitMatrix& a, const BitMatrix& b,
                        const LdTileVisitor& visit, const LdOptions& opts = {},
                        unsigned threads = 1);

/// Mirror the lower triangle (j < i) of a square LdMatrix into the upper
/// triangle, cache-blocked. All three statistics are symmetric in (i, j)
/// operation-for-operation, so mirroring stats equals computing them from
/// mirrored counts bit-for-bit.
void mirror_ld_lower_to_upper(LdMatrix& m);

/// Number of LD values a full symmetric analysis of n SNPs produces,
/// N(N+1)/2 including the diagonal — the paper's "50M pairwise LDs" figure
/// counts exactly this for N = 10,000.
[[nodiscard]] constexpr std::uint64_t ld_pair_count(std::uint64_t n) {
  return n * (n + 1) / 2;
}

}  // namespace ldla
