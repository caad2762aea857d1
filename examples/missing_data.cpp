// Missing-data extension (Section VII): LD over alignments with gaps,
// computed as one fused popcount-SYRK over the cleaned-state and validity
// rows, interleaved per SNP. Simulates a dataset, knocks out a fraction of entries, and
// contrasts the gap-aware result with naive gap-as-ancestral treatment.
#include <cmath>
#include <cstdio>
#include <exception>

#include "ldla.hpp"
#include "sim/rng.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  ldla::ArgParser args("missing_data",
                       "gap-aware LD vs naive gap handling");
  args.add_option("snps", "SNP count", "300");
  args.add_option("samples", "sample count", "400");
  args.add_option("missing", "fraction of entries knocked out", "0.15");
  args.add_option("seed", "simulation seed", "21");
  if (!args.parse(argc, argv)) return 0;

  ldla::WrightFisherParams p;
  p.n_snps = static_cast<std::size_t>(args.integer("snps"));
  p.n_samples = static_cast<std::size_t>(args.integer("samples"));
  p.seed = static_cast<std::uint64_t>(args.integer("seed"));
  const ldla::BitMatrix truth = ldla::simulate_genotypes(p);

  // Ground truth LD on the complete data.
  const ldla::LdMatrix ld_truth = ldla::ld_matrix(truth);

  // Knock out entries at random: the masked matrix records validity; the
  // naive matrix silently treats gaps as the ancestral state.
  const double missing = args.real("missing");
  ldla::Rng rng(p.seed + 1);
  ldla::BitMatrix states = truth.clone();
  ldla::BitMatrix valid(truth.snps(), truth.samples());
  for (std::size_t s = 0; s < truth.snps(); ++s) {
    for (std::size_t i = 0; i < truth.samples(); ++i) {
      if (rng.next_bool(missing)) {
        states.set(s, i, false);  // gap: unknown state
      } else {
        valid.set(s, i, true);
      }
    }
  }
  ldla::BitMatrix naive_states = states.clone();
  const ldla::MaskedBitMatrix masked(std::move(states), std::move(valid));

  const ldla::LdMatrix ld_masked = ldla::ld_matrix(masked);
  const ldla::LdMatrix ld_naive = ldla::ld_matrix(naive_states);

  // Compare both estimates against the ground truth.
  double err_masked = 0, err_naive = 0;
  std::size_t n_pairs = 0;
  for (std::size_t i = 0; i < truth.snps(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double t = ld_truth(i, j);
      const double m = ld_masked(i, j);
      const double n = ld_naive(i, j);
      if (!std::isfinite(t) || !std::isfinite(m) || !std::isfinite(n)) {
        continue;
      }
      err_masked += std::abs(m - t);
      err_naive += std::abs(n - t);
      ++n_pairs;
    }
  }

  std::printf("dataset: %zu SNPs x %zu samples, %.0f%% entries missing\n\n",
              truth.snps(), truth.samples(), missing * 100.0);
  ldla::Table table({"estimator", "mean |r^2 error| vs complete data"});
  table.add_row({"gap-aware (fused masked SYRK)",
                 ldla::fmt_fixed(err_masked / static_cast<double>(n_pairs), 5)});
  table.add_row({"naive (gaps as ancestral)",
                 ldla::fmt_fixed(err_naive / static_cast<double>(n_pairs), 5)});
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\n(%zu comparable pairs; the masked estimator should be strictly "
      "more accurate)\n",
      n_pairs);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
