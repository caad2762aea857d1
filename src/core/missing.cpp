#include "core/missing.hpp"

#include <limits>

#include "core/detail/ld_stats_row.hpp"
#include "util/contract.hpp"

namespace ldla {

MaskedBitMatrix::MaskedBitMatrix(BitMatrix states, BitMatrix valid)
    : states_(std::move(states)), valid_(std::move(valid)) {
  LDLA_EXPECT(states_.snps() == valid_.snps() &&
                  states_.samples() == valid_.samples(),
              "state and validity matrices must have identical dimensions");
  // Enforce X = S & C so the GEMM reformulation holds.
  for (std::size_t s = 0; s < states_.snps(); ++s) {
    std::uint64_t* x = states_.row_data(s);
    const std::uint64_t* c = valid_.row_data(s);
    for (std::size_t w = 0; w < states_.words_per_snp(); ++w) {
      x[w] &= c[w];
    }
  }
}

MaskedBitMatrix MaskedBitMatrix::from_snp_strings(
    std::span<const std::string> snps) {
  if (snps.empty()) return {};
  const std::size_t samples = snps.front().size();
  BitMatrix states(snps.size(), samples);
  BitMatrix valid(snps.size(), samples);
  for (std::size_t s = 0; s < snps.size(); ++s) {
    const std::string& str = snps[s];
    if (str.size() != samples) {
      throw ParseError("SNP " + std::to_string(s) +
                       " length mismatch in masked matrix");
    }
    for (std::size_t i = 0; i < samples; ++i) {
      switch (str[i]) {
        case '1':
          states.set(s, i, true);
          valid.set(s, i, true);
          break;
        case '0':
          valid.set(s, i, true);
          break;
        case '-':
        case 'N':
          break;  // missing: invalid, state stays 0
        default:
          throw ParseError(std::string("invalid state '") + str[i] +
                           "' in masked SNP " + std::to_string(s));
      }
    }
  }
  return MaskedBitMatrix(std::move(states), std::move(valid));
}

double ld_value_missing(LdStatistic stat, std::uint64_t ci_masked,
                        std::uint64_t cj_masked, std::uint64_t cij_masked,
                        std::uint64_t n_valid) {
  if (n_valid == 0) return std::numeric_limits<double>::quiet_NaN();
  return ld_value(stat, ci_masked, cj_masked, cij_masked, n_valid);
}

namespace {

// Row conversion of the interleaved (x_i, c_i) panel: the pair block of
// SNPs (i, j) is [[x_i·x_j, x_i·c_j], [c_i·x_j, c_i·c_j]], the haplotype
// count, both masked marginals and the valid-pair count.
auto missing_rows(LdStatistic stat, bool symmetric) {
  const auto pair = [stat](std::size_t, std::size_t,
                           const detail::PairCounts& k) {
    return ld_value_missing(stat, k.ab, k.ba, k.aa, k.bb);
  };
  return detail::PairRows<decltype(pair)>{pair, symmetric};
}

PackedBitMatrix pack_interleaved(const MaskedBitMatrix& g,
                                 const GemmConfig& cfg, PackSides sides) {
  const BitMatrix xc = detail::interleave_rows({g.states(), g.valid()});
  return PackedBitMatrix::pack(xc.view(), cfg, sides);
}

}  // namespace

LdMatrix ld_matrix_missing(const MaskedBitMatrix& g, const LdOptions& opts) {
  LdMatrix out(g.snps(), g.snps());
  if (g.snps() == 0) return out;
  LDLA_EXPECT(g.samples() > 0, "matrix has no samples");
  detail::symmetric_stats<2>(pack_interleaved(g, opts.gemm, PackSides::kBoth),
                             missing_rows(opts.stat, true), out);
  return out;
}

void ld_scan_missing(const MaskedBitMatrix& g, const LdTileVisitor& visit,
                     const LdOptions& opts) {
  if (g.snps() == 0) return;
  LDLA_EXPECT(g.samples() > 0, "matrix has no samples");
  LDLA_EXPECT(visit != nullptr, "stat-tile scan needs a visitor");
  detail::symmetric_scan<2>(pack_interleaved(g, opts.gemm, PackSides::kBoth),
                            missing_rows(opts.stat, true), visit);
}

LdMatrix ld_cross_matrix_missing(const MaskedBitMatrix& a,
                                 const MaskedBitMatrix& b,
                                 const LdOptions& opts) {
  LDLA_EXPECT(a.samples() == b.samples(),
              "cross-matrix LD needs matching sample sets");
  LdMatrix out(a.snps(), b.snps());
  if (a.snps() == 0 || b.snps() == 0) return out;
  LDLA_EXPECT(a.samples() > 0, "matrices have no samples");
  detail::cross_stats<2>(pack_interleaved(a, opts.gemm, PackSides::kA),
                         pack_interleaved(b, opts.gemm, PackSides::kB),
                         missing_rows(opts.stat, false), out);
  return out;
}

}  // namespace ldla
