// Shared driver for Tables I, II and III: GEMM-based LD vs the PLINK-like
// and OmegaPlus-like baselines across thread counts, on a dataset of the
// table's dimensions.
#pragma once

#include <vector>

#include "baselines/omegaplus_like.hpp"
#include "core/genotype_ld.hpp"
#include "baselines/plink_like.hpp"
#include "bench_common.hpp"
#include "sim/wright_fisher.hpp"

namespace ldla::bench {

struct PaperSpeedups {
  // Paper values at threads {1, 2, 4, 8, 12} for the ratio row.
  std::vector<double> vs_plink;
  std::vector<double> vs_omegaplus;
};

inline int run_dataset_table(const char* title, const char* paper_ref,
                             std::size_t paper_snps, std::size_t paper_samples,
                             std::size_t quick_samples,
                             const PaperSpeedups& paper,
                             const char* json_name) {
  print_header(title, paper_ref);

  const std::size_t snps = full_mode() ? paper_snps
                         : smoke_mode() ? 300
                                        : 2000;
  const std::size_t samples =
      smoke_mode() ? std::min<std::size_t>(quick_samples, 256) :
      full_mode() ? paper_samples : quick_samples;
  const std::vector<unsigned> threads =
      full_mode()   ? std::vector<unsigned>{1, 2, 4, 8, 12}
      : smoke_mode() ? std::vector<unsigned>{1}
                     : std::vector<unsigned>{1, 2, 4};

  BenchJson json(json_name);

  std::printf("dataset: %zu SNPs x %zu haplotypes (paper: %zu x %zu)\n",
              snps, samples, paper_snps, paper_samples);
  if (cpu_info().logical_cores < 12) {
    std::printf(
        "NOTE: this machine has %u logical core(s); the paper's testbed had\n"
        "12 physical cores, so multi-thread rows here show ~1x scaling. The\n"
        "reproducible target is the per-thread-count GEMM-vs-baseline "
        "speedup.\n",
        cpu_info().logical_cores);
  }
  std::printf("generating dataset...\n");
  WrightFisherParams wf;
  wf.n_snps = snps;
  wf.n_samples = samples;
  wf.seed = 20160516;  // IPPS 2016
  const BitMatrix haps = simulate_genotypes(wf);
  const GenotypeMatrix genos = GenotypeMatrix::from_haplotypes(haps);
  const std::uint64_t pairs = ld_pair_count(snps);
  std::printf("running %.1fM pairwise LD computations per arm...\n\n",
              static_cast<double>(pairs) / 1e6);

  GemmConfig gemm_scalar;
  gemm_scalar.arch = KernelArch::kScalar;
  const bool have_avx512 = kernel_available(KernelArch::kAvx512);
  GemmConfig gemm_auto;  // widest kernel (VPOPCNTDQ when available)

  std::vector<std::string> header = {
      "Threads",      "PLINK-like s", "OmegaPlus-like s",
      "GEMM s",       "PLINK LD/s",   "OmegaP LD/s",
      "GEMM LD/s",    "GEMM vs PLINK", "paper",
      "GEMM vs OmegaP", "paper"};
  if (have_avx512) header.push_back("GEMM+VPOPCNT s");
  Table table(header);

  for (std::size_t t_idx = 0; t_idx < threads.size(); ++t_idx) {
    const unsigned t = threads[t_idx];

    Timer plink_timer;
    const BaselineScanResult plink = plink_like_scan(genos, t);
    const double plink_s = plink_timer.seconds();

    Timer omega_timer;
    const BaselineScanResult omega = omegaplus_like_scan(haps, t);
    const double omega_s = omega_timer.seconds();

    const LdScanTiming gemm = time_gemm_ld_scan(haps, t, gemm_scalar);

    // Cross-arm sanity: identical allele-based pair counts.
    if (gemm.pairs != omega.pairs || plink.pairs != pairs) {
      std::printf("PAIR-COUNT MISMATCH: gemm=%llu omega=%llu plink=%llu\n",
                  static_cast<unsigned long long>(gemm.pairs),
                  static_cast<unsigned long long>(omega.pairs),
                  static_cast<unsigned long long>(plink.pairs));
      return 1;
    }

    const double p = static_cast<double>(pairs);
    json.add("plink-like t=" + std::to_string(t), "plink-like", snps, samples,
             plink_s, p / plink_s);
    json.add("omegaplus-like t=" + std::to_string(t), "omegaplus-like", snps,
             samples, omega_s, p / omega_s);
    json.add("gemm-ld-scan t=" + std::to_string(t),
             kernel_arch_name(KernelArch::kScalar), snps, samples,
             gemm.seconds, p / gemm.seconds);
    std::vector<std::string> row = {
        std::to_string(t),
        fmt_fixed(plink_s, 2),
        fmt_fixed(omega_s, 2),
        fmt_fixed(gemm.seconds, 2),
        human_rate(p / plink_s),
        human_rate(p / omega_s),
        human_rate(p / gemm.seconds),
        fmt_fixed(plink_s / gemm.seconds, 2),
        t_idx < paper.vs_plink.size() ? fmt_fixed(paper.vs_plink[t_idx], 2)
                                      : std::string("-"),
        fmt_fixed(omega_s / gemm.seconds, 2),
        t_idx < paper.vs_omegaplus.size()
            ? fmt_fixed(paper.vs_omegaplus[t_idx], 2)
            : std::string("-")};
    if (have_avx512) {
      const LdScanTiming vec = time_gemm_ld_scan(haps, t, gemm_auto);
      row.push_back(fmt_fixed(vec.seconds, 2));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\npaper shape to verify: GEMM beats both baselines at every thread\n"
      "count; the margin vs PLINK-like grows with sample size (Tables\n"
      "I->III), the margin vs OmegaPlus-like sits in the ~3-7x band.\n"
      "The VPOPCNT column shows today's hardware answer to Section V.\n");

  // Extension (Section VII spirit): PLINK's genotype statistic computed
  // with the GEMM formulation — same r^2 values as the pairwise baseline,
  // one fused popcount-SYRK over the interleaved dosage planes instead of
  // nine sweeps per pair. The scan emits only the canonical pairs.
  {
    Timer pair_timer;
    const BaselineScanResult pairwise = plink_like_scan(genos, 1);
    const double pairwise_s = pair_timer.seconds();

    Timer gemm_timer;
    double checksum = 0.0;
    std::uint64_t geno_pairs = 0;
    genotype_ld_scan(genos, [&](const LdTile& tile) {
      for (std::size_t i = 0; i < tile.rows; ++i) {
        for (std::size_t j = 0; j < tile.cols; ++j) {
          const double v = tile.at(i, j);
          if (v == v) checksum += v;
          ++geno_pairs;
        }
      }
    }, gemm_scalar);
    const double gemm_s = gemm_timer.seconds();
    std::printf(
        "\ngenotype LD as DLA (extension): pairwise PLINK-like kernel "
        "%.2fs vs fused-SYRK formulation %.2fs (%.1fx), checksum diff "
        "%.2e\n",
        pairwise_s, gemm_s, pairwise_s / gemm_s,
        std::abs(checksum - pairwise.sum));
    if (geno_pairs != pairwise.pairs) {
      std::printf("GENOTYPE PAIR-COUNT MISMATCH\n");
      return 1;
    }
  }
  return json.flush() ? 0 : 1;
}

}  // namespace ldla::bench
