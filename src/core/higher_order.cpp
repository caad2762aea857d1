#include "core/higher_order.hpp"

#include <vector>

#include "core/gemm/count_matrix.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/packed_bit_matrix.hpp"
#include "core/gemm/syrk.hpp"

namespace ldla {

namespace {

double d3_from_counts(double n, double ci, double cj, double ck, double cij,
                      double cik, double cjk, double cijk) {
  const double pi = ci / n;
  const double pj = cj / n;
  const double pk = ck / n;
  const double dij = cij / n - pi * pj;
  const double dik = cik / n - pi * pk;
  const double djk = cjk / n - pj * pk;
  const double pijk = cijk / n;
  return pijk - pi * djk - pj * dik - pk * dij - pi * pj * pk;
}

}  // namespace

double third_order_d_reference(const BitMatrix& g, std::size_t i,
                               std::size_t j, std::size_t k) {
  LDLA_EXPECT(i < g.snps() && j < g.snps() && k < g.snps(),
              "SNP index out of range");
  double ci = 0, cj = 0, ck = 0, cij = 0, cik = 0, cjk = 0, cijk = 0;
  for (std::size_t s = 0; s < g.samples(); ++s) {
    const bool a = g.get(i, s);
    const bool b = g.get(j, s);
    const bool c = g.get(k, s);
    ci += a;
    cj += b;
    ck += c;
    cij += a && b;
    cik += a && c;
    cjk += b && c;
    cijk += a && b && c;
  }
  return d3_from_counts(static_cast<double>(g.samples()), ci, cj, ck, cij,
                        cik, cjk, cijk);
}

ThirdOrderTensor third_order_d(const BitMatrix& g, std::size_t snp_begin,
                               std::size_t snp_end, const GemmConfig& cfg) {
  LDLA_EXPECT(snp_begin <= snp_end && snp_end <= g.snps(),
              "window out of range");
  const std::size_t w = snp_end - snp_begin;
  LDLA_EXPECT(w <= kMaxThirdOrderWindow,
              "third-order window exceeds the supported width");
  ThirdOrderTensor out(w);
  if (w == 0) return out;
  LDLA_EXPECT(g.samples() > 0, "matrix has no samples");

  const BitMatrixView window = g.view(snp_begin, snp_end);
  const double n = static_cast<double>(g.samples());

  // The window is packed once; its pairwise counts are one symmetric
  // product over that pack.
  const PackedBitMatrix packed = PackedBitMatrix::pack(window, cfg);
  CountMatrix pair(w, w);
  syrk_count_packed(packed, 0, w, pair.ref());

  // Three-way counts: one product per conditioning SNP k of the k-masked
  // window X_k = S & s_k (packed as the A side only) against the window's
  // B side; each count tile becomes D_ijk in place.
  BitMatrix masked(w, g.samples());
  for (std::size_t k = 0; k < w; ++k) {
    const std::uint64_t* sk = window.row(k);
    for (std::size_t r = 0; r < w; ++r) {
      const std::uint64_t* src = window.row(r);
      std::uint64_t* dst = masked.row_data(r);
      for (std::size_t word = 0; word < window.n_words; ++word) {
        dst[word] = src[word] & sk[word];
      }
    }
    const PackedBitMatrix xk =
        PackedBitMatrix::pack(masked.view(), cfg, PackSides::kA);
    gemm_count_fused(xk, 0, w, packed, 0, w, [&](const CountTile& t) {
      for (std::size_t r = 0; r < t.rows; ++r) {
        const std::size_t i = t.row_begin + r;
        const std::uint32_t* triple = t.row(r);
        for (std::size_t c = 0; c < t.cols; ++c) {
          const std::size_t j = t.col_begin + c;
          out(i, j, k) = d3_from_counts(n, pair(i, i), pair(j, j),
                                        pair(k, k), pair(i, j), pair(i, k),
                                        pair(j, k), triple[c]);
        }
      }
    });
  }
  return out;
}

}  // namespace ldla
