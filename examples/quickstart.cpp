// Quickstart: simulate (or load) a genomic region and compute all pairwise
// LD with the GEMM engine.
//
//   ./quickstart                          # simulated 2000 SNPs x 500 samples
//   ./quickstart --ms data.ms             # or load a Hudson ms file
//   ./quickstart --snps 5000 --samples 1000 --stat dprime --top 20
#include <cstdio>
#include <exception>

#include "ldla.hpp"
#include "util/args.hpp"
#include "util/cpu_info.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

ldla::LdStatistic parse_stat(const std::string& s) {
  if (s == "d") return ldla::LdStatistic::kD;
  if (s == "dprime") return ldla::LdStatistic::kDPrime;
  if (s == "r2") return ldla::LdStatistic::kRSquared;
  throw ldla::Error("unknown statistic '" + s + "' (use d, dprime or r2)");
}

}  // namespace

int main(int argc, char** argv) try {
  ldla::ArgParser args("quickstart",
                       "all-pairs LD with the GEMM-based engine");
  args.add_option("ms", "load a Hudson ms file instead of simulating", "");
  args.add_option("snps", "simulated SNP count", "2000");
  args.add_option("samples", "simulated sample count", "500");
  args.add_option("stat", "LD statistic: d, dprime or r2", "r2");
  args.add_option("top", "number of top pairs to report", "10");
  args.add_option("threads", "worker threads (0 = all cores)", "0");
  args.add_option("seed", "simulation seed", "42");
  if (!args.parse(argc, argv)) return 0;

  std::printf("ldla quickstart — %s\n\n", ldla::cpu_summary().c_str());

  ldla::BitMatrix genotypes;
  if (const std::string path = args.str("ms"); !path.empty()) {
    auto reps = ldla::parse_ms_file(path);
    genotypes = std::move(reps.front().genotypes);
    std::printf("loaded %zu SNPs x %zu samples from %s\n", genotypes.snps(),
                genotypes.samples(), path.c_str());
  } else {
    ldla::WrightFisherParams p;
    p.n_snps = static_cast<std::size_t>(args.integer("snps"));
    p.n_samples = static_cast<std::size_t>(args.integer("samples"));
    p.seed = static_cast<std::uint64_t>(args.integer("seed"));
    genotypes = ldla::simulate_genotypes(p);
    std::printf("simulated %zu SNPs x %zu samples (seed %llu)\n",
                genotypes.snps(), genotypes.samples(),
                static_cast<unsigned long long>(p.seed));
  }

  ldla::LdOptions opts;
  opts.stat = parse_stat(args.str("stat"));
  const auto threads = static_cast<unsigned>(args.integer("threads"));

  ldla::Timer timer;
  const ldla::LdMatrix ld = ldla::ld_matrix(genotypes, opts, threads);
  const double seconds = timer.seconds();

  const std::uint64_t pairs = ldla::ld_pair_count(genotypes.snps());
  std::printf("\ncomputed %llu pairwise %s values in %.3f s (%.2f Mpairs/s)\n",
              static_cast<unsigned long long>(pairs),
              ldla::ld_statistic_name(opts.stat).c_str(), seconds,
              static_cast<double>(pairs) / seconds / 1e6);

  const auto top = ldla::top_pairs(
      ld, static_cast<std::size_t>(args.integer("top")));
  std::printf("\nstrongest associations:\n");
  ldla::Table table({"rank", "snp_i", "snp_j",
                     ldla::ld_statistic_name(opts.stat)});
  std::size_t rank = 1;
  for (const auto& p : top) {
    table.add_row({std::to_string(rank++), std::to_string(p.i),
                   std::to_string(p.j), ldla::fmt_fixed(p.value, 4)});
  }
  std::fputs(table.str().c_str(), stdout);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
