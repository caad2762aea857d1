#include "core/fsm.hpp"

#include <cctype>
#include <cmath>
#include <limits>
#include <vector>

#include "core/detail/ld_stats_row.hpp"
#include "util/contract.hpp"

namespace ldla {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

int nucleotide_from_char(char c) {
  switch (std::toupper(static_cast<unsigned char>(c))) {
    case 'A': return kA;
    case 'C': return kC;
    case 'G': return kG;
    case 'T': return kT;
    case '-':
    case 'N': return -1;
    default: return -2;
  }
}

// Eq. 6 from one SNP pair's joint state counts P_ab, its masked marginals
// (M_i[a] = sum_b P_ab, M_j[b] = sum_a P_ab), its valid-pair count and the
// two state counts v_i, v_j. The r^2_ab terms add a-outer, b-inner, in the
// same order as fsm_t_pair_reference, which keeps its own copy of the
// arithmetic so the two are checked against each other.
double zaykin_t(const std::uint64_t (&pair_count)[4][4],
                const std::uint64_t (&margin_i)[4],
                const std::uint64_t (&margin_j)[4], std::uint64_t vij,
                unsigned vi, unsigned vj) {
  if (vij == 0 || vi < 2 || vj < 2) return kNaN;
  double sum_r2 = 0.0;
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      const double r2 =
          ld_r_squared(margin_i[a], margin_j[b], pair_count[a][b], vij);
      if (std::isfinite(r2)) sum_r2 += r2;
    }
  }
  const double factor =
      (static_cast<double>(vi) - 1.0) * (static_cast<double>(vj) - 1.0) *
      static_cast<double>(vij) /
      (static_cast<double>(vi) * static_cast<double>(vj));
  return factor * sum_r2;
}

// Row conversion of the interleaved nucleotide pack (rows 4i + a hold plane
// a of SNP i): the 4x4 block of SNP pair (i, j) is P_ab = POPCNT(plane_a_i &
// plane_b_j). The planes are disjoint (set_state clears the others), so the
// masked marginals and the valid-pair count are exact block sums.
auto t_rows(const std::vector<unsigned>& v_states) {
  return [&v_states](const CountTile& t, std::size_t i, std::size_t cols,
                     double* out) {
    const std::size_t gi = t.row_begin + i;
    const std::size_t plane_ld = t.ld / 4;
    const std::uint32_t* block_row = t.row(i);
    for (std::size_t j = 0; j < cols; ++j) {
      std::uint64_t pair_count[4][4];
      std::uint64_t margin_i[4] = {};
      std::uint64_t margin_j[4] = {};
      std::uint64_t vij = 0;
      for (std::size_t a = 0; a < 4; ++a) {
        const std::uint32_t* p = block_row + a * plane_ld + 4 * j;
        for (std::size_t b = 0; b < 4; ++b) {
          pair_count[a][b] = p[b];
          margin_i[a] += p[b];
          margin_j[b] += p[b];
        }
        vij += margin_i[a];
      }
      out[j] = zaykin_t(pair_count, margin_i, margin_j, vij, v_states[gi],
                        v_states[t.col_begin + j]);
    }
  };
}
}  // namespace

FsmMatrix::FsmMatrix(std::size_t n_snps, std::size_t n_samples)
    : planes_{BitMatrix(n_snps, n_samples), BitMatrix(n_snps, n_samples),
              BitMatrix(n_snps, n_samples), BitMatrix(n_snps, n_samples)} {}

FsmMatrix FsmMatrix::from_snp_strings(std::span<const std::string> snps) {
  if (snps.empty()) return {};
  const std::size_t samples = snps.front().size();
  FsmMatrix out(snps.size(), samples);
  for (std::size_t s = 0; s < snps.size(); ++s) {
    const std::string& str = snps[s];
    if (str.size() != samples) {
      throw ParseError("FSM SNP " + std::to_string(s) + " length mismatch");
    }
    for (std::size_t i = 0; i < samples; ++i) {
      const int nuc = nucleotide_from_char(str[i]);
      if (nuc == -2) {
        throw ParseError(std::string("invalid nucleotide '") + str[i] +
                         "' in FSM SNP " + std::to_string(s));
      }
      if (nuc >= 0) {
        out.set_state(s, i, static_cast<Nucleotide>(nuc));
      }
    }
  }
  return out;
}

void FsmMatrix::set_state(std::size_t snp, std::size_t sample,
                          Nucleotide nuc) {
  for (std::size_t p = 0; p < 4; ++p) {
    planes_[p].set(snp, sample, p == nuc);
  }
}

void FsmMatrix::set_gap(std::size_t snp, std::size_t sample) {
  for (auto& plane : planes_) plane.set(snp, sample, false);
}

int FsmMatrix::state(std::size_t snp, std::size_t sample) const {
  for (std::size_t p = 0; p < 4; ++p) {
    if (planes_[p].get(snp, sample)) return static_cast<int>(p);
  }
  return -1;
}

unsigned FsmMatrix::states_present(std::size_t snp) const {
  unsigned v = 0;
  for (const auto& plane : planes_) {
    if (plane.derived_count(snp) > 0) ++v;
  }
  return v;
}

double fsm_t_pair_reference(const FsmMatrix& g, std::size_t i, std::size_t j) {
  const std::size_t samples = g.samples();
  // Joint contingency counts over jointly valid samples.
  std::uint64_t pair_count[4][4] = {};
  std::uint64_t margin_i[4] = {};
  std::uint64_t margin_j[4] = {};
  std::uint64_t vij = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    const int a = g.state(i, s);
    const int b = g.state(j, s);
    if (a < 0 || b < 0) continue;
    ++vij;
    ++pair_count[a][b];
    ++margin_i[a];
    ++margin_j[b];
  }
  unsigned vi = 0, vj = 0;
  for (int a = 0; a < 4; ++a) {
    if (g.plane(static_cast<Nucleotide>(a)).derived_count(i) > 0) ++vi;
    if (g.plane(static_cast<Nucleotide>(a)).derived_count(j) > 0) ++vj;
  }
  if (vij == 0 || vi < 2 || vj < 2) return kNaN;

  double sum_r2 = 0.0;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      const double r2 =
          ld_r_squared(margin_i[a], margin_j[b], pair_count[a][b], vij);
      if (std::isfinite(r2)) sum_r2 += r2;
    }
  }
  const double factor =
      (static_cast<double>(vi) - 1.0) * (static_cast<double>(vj) - 1.0) *
      static_cast<double>(vij) /
      (static_cast<double>(vi) * static_cast<double>(vj));
  return factor * sum_r2;
}

LdMatrix fsm_t_matrix(const FsmMatrix& g, const GemmConfig& cfg) {
  const std::size_t n = g.snps();
  LdMatrix out(n, n);
  if (n == 0) return out;
  LDLA_EXPECT(g.samples() > 0, "matrix has no samples");

  std::vector<unsigned> v_states(n);
  for (std::size_t s = 0; s < n; ++s) v_states[s] = g.states_present(s);

  // One product of the 4n-row pack with itself. The cross body, not the
  // symmetric one: the 16-term sum is not bitwise symmetric in (i, j).
  const BitMatrix planes = detail::interleave_rows(
      {g.plane(kA), g.plane(kC), g.plane(kG), g.plane(kT)});
  const PackedBitMatrix packed = PackedBitMatrix::pack(planes.view(), cfg);
  detail::cross_stats<4>(packed, packed, t_rows(v_states), out);
  return out;
}

}  // namespace ldla
