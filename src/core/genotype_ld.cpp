#include "core/genotype_ld.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "core/detail/ld_stats_row.hpp"
#include "util/contract.hpp"

namespace ldla {

DosagePlanes extract_dosage_planes(const GenotypeMatrix& g) {
  DosagePlanes out{BitMatrix(g.snps(), g.individuals()),
                   BitMatrix(g.snps(), g.individuals())};
  for (std::size_t s = 0; s < g.snps(); ++s) {
    for (std::size_t ind = 0; ind < g.individuals(); ++ind) {
      LDLA_EXPECT(!g.is_missing(s, ind),
                  "genotype GEMM fast path requires complete data");
      const unsigned d = g.dosage(s, ind);
      if (d == 1) out.lo.set(s, ind, true);
      if (d == 2) out.hi.set(s, ind, true);
    }
  }
  return out;
}

namespace {

struct Moments {
  double sum = 0.0;     ///< sum of dosages
  double sum_sq = 0.0;  ///< sum of squared dosages
};

// Pearson r^2 from pair-separable moments; identical arithmetic to the
// pairwise baseline so the two agree exactly on complete data.
double r2_from(const Moments& mi, const Moments& mj, double sum_xy,
               double n) {
  const double cov = n * sum_xy - mi.sum * mj.sum;
  const double var_i = n * mi.sum_sq - mi.sum * mi.sum;
  const double var_j = n * mj.sum_sq - mj.sum * mj.sum;
  const double denom = var_i * var_j;
  if (denom <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  const double r2 = (cov * cov) / denom;
  return r2 > 1.0 ? 1.0 : r2;
}

std::vector<Moments> plane_moments(const DosagePlanes& planes) {
  std::vector<Moments> m(planes.lo.snps());
  for (std::size_t s = 0; s < m.size(); ++s) {
    const double n1 = static_cast<double>(planes.lo.derived_count(s));
    const double n2 = static_cast<double>(planes.hi.derived_count(s));
    m[s] = {n1 + 2.0 * n2, n1 + 4.0 * n2};
  }
  return m;
}

// The symmetric body over the interleaved (l_i, h_i) panel: the pair block
// of SNPs (i, j) is [[LL, LH], [HL, HH]], so
// sum_xy = LL + 2·LH(i,j) + 2·LH(j,i) + 4·HH.
template <typename Body>
void genotype_body(const GenotypeMatrix& g, const GemmConfig& cfg,
                   const Body& body) {
  LDLA_EXPECT(g.individuals() > 1, "need at least two individuals");
  const DosagePlanes planes = extract_dosage_planes(g);
  const std::vector<Moments> m = plane_moments(planes);
  const double n = static_cast<double>(g.individuals());
  const auto pair = [&m, n](std::size_t i, std::size_t j,
                            const detail::PairCounts& k) {
    const double sum_xy = static_cast<double>(k.aa) +
                          2.0 * static_cast<double>(k.ab) +
                          2.0 * static_cast<double>(k.ba) +
                          4.0 * static_cast<double>(k.bb);
    return r2_from(m[i], m[j], sum_xy, n);
  };
  const BitMatrix lh = detail::interleave_rows({planes.lo, planes.hi});
  body(PackedBitMatrix::pack(lh.view(), cfg),
       detail::PairRows<decltype(pair)>{pair, true});
}

}  // namespace

LdMatrix genotype_ld_matrix(const GenotypeMatrix& g, const GemmConfig& cfg) {
  LdMatrix out(g.snps(), g.snps());
  if (g.snps() == 0) return out;
  genotype_body(g, cfg, [&](const PackedBitMatrix& packed, const auto& rows) {
    detail::symmetric_stats<2>(packed, rows, out);
  });
  return out;
}

void genotype_ld_scan(const GenotypeMatrix& g, const LdTileVisitor& visit,
                      const GemmConfig& cfg) {
  if (g.snps() == 0) return;
  LDLA_EXPECT(visit != nullptr, "stat-tile scan needs a visitor");
  genotype_body(g, cfg, [&](const PackedBitMatrix& packed, const auto& rows) {
    detail::symmetric_scan<2>(packed, rows, visit);
  });
}

}  // namespace ldla
