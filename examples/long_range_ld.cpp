// Long-range / cross-region LD: the Fig. 4 use case ("association studies
// between distant genes"). Two genomic regions over the same samples are
// compared with the rectangular GEMM driver; a planted coevolving SNP pair
// (one SNP copied across regions) demonstrates detection of inter-region
// association against the background.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>

#include "ldla.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) try {
  ldla::ArgParser args("long_range_ld",
                       "cross-region LD scan (coevolving-gene use case)");
  args.add_option("snps-a", "SNPs in region A", "800");
  args.add_option("snps-b", "SNPs in region B", "600");
  args.add_option("samples", "shared sample count", "500");
  args.add_option("planted", "number of planted coevolving pairs", "3");
  args.add_option("top", "pairs to report", "8");
  args.add_option("seed", "simulation seed", "11");
  if (!args.parse(argc, argv)) return 0;

  const auto na = static_cast<std::size_t>(args.integer("snps-a"));
  const auto nb = static_cast<std::size_t>(args.integer("snps-b"));
  const auto samples = static_cast<std::size_t>(args.integer("samples"));
  const auto planted = static_cast<std::size_t>(args.integer("planted"));

  // Two independently evolving regions over the same individuals.
  ldla::WrightFisherParams pa;
  pa.n_snps = na;
  pa.n_samples = samples;
  pa.seed = static_cast<std::uint64_t>(args.integer("seed"));
  ldla::BitMatrix region_a = ldla::simulate_genotypes(pa);

  ldla::WrightFisherParams pb = pa;
  pb.n_snps = nb;
  pb.seed = pa.seed + 1;
  ldla::BitMatrix region_b = ldla::simulate_genotypes(pb);

  // Plant coevolving pairs: copy SNP a_i of region A over SNP b_i of
  // region B (perfect inter-region LD, as maintained gene interactions
  // would produce).
  std::printf("planted coevolving pairs:");
  for (std::size_t p = 0; p < planted; ++p) {
    const std::size_t ai = (p + 1) * na / (planted + 1);
    const std::size_t bi = (p + 1) * nb / (planted + 1);
    std::memcpy(region_b.row_data(bi), region_a.row_data(ai),
                region_b.words_per_snp() * sizeof(std::uint64_t));
    std::printf(" (A:%zu, B:%zu)", ai, bi);
  }
  std::printf("\n");

  ldla::Timer timer;
  const ldla::LdMatrix ld =
      ldla::ld_cross_matrix(region_a, region_b, {}, /*threads=*/0);
  const double seconds = timer.seconds();
  std::printf(
      "cross-region GEMM: %zu x %zu = %zu LD values over %zu samples "
      "in %.3f s\n\n",
      na, nb, na * nb, samples, seconds);

  // Rank inter-region pairs.
  struct Hit {
    std::size_t a, b;
    double r2;
  };
  std::vector<Hit> hits;
  for (std::size_t i = 0; i < na; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      if (std::isfinite(ld(i, j))) hits.push_back({i, j, ld(i, j)});
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const Hit& x, const Hit& y) { return x.r2 > y.r2; });

  ldla::Table table({"rank", "A snp", "B snp", "r^2"});
  const auto top = std::min<std::size_t>(
      hits.size(), static_cast<std::size_t>(args.integer("top")));
  for (std::size_t r = 0; r < top; ++r) {
    table.add_row({std::to_string(r + 1), std::to_string(hits[r].a),
                   std::to_string(hits[r].b),
                   ldla::fmt_fixed(hits[r].r2, 4)});
  }
  std::fputs(table.str().c_str(), stdout);

  // Background statistics for contrast.
  double sum = 0;
  for (const auto& h : hits) sum += h.r2;
  std::printf("\nmean inter-region r^2 = %.4f; top hits should be the "
              "planted pairs (r^2 ~ 1)\n",
              sum / static_cast<double>(hits.size()));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
