#include "core/genotype_ld.hpp"

#include <variant>
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

LdOperand::LdOperand(const GenotypeMatrix& g)
    : snps_(g.snps()), kind_(Dosages{}) {
  LDLA_EXPECT(g.snps() == 0 || g.individuals() > 1,
              "need at least two individuals");
  const DosagePlanes planes = extract_dosage_planes(g);  // complete data
  std::vector<Dosages::Moments>& m = std::get<Dosages>(kind_).moments;
  m.resize(g.snps());
  for (std::size_t s = 0; s < m.size(); ++s) {
    const double n1 = static_cast<double>(planes.lo.derived_count(s));
    const double n2 = static_cast<double>(planes.hi.derived_count(s));
    m[s] = {n1 + 2.0 * n2, n1 + 4.0 * n2};
  }
  interleaved_ = detail::interleave_rows({planes.lo, planes.hi});
}

}  // namespace ldla
