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

LdOperand::LdOperand(const MaskedBitMatrix& g)
    : interleaved_(detail::interleave_rows({g.states(), g.valid()})),
      snps_(g.snps()),
      kind_(Masked{}) {
  LDLA_EXPECT(g.snps() == 0 || g.samples() > 0, "matrix has no samples");
}

}  // namespace ldla
