// Figure 5: LDs/second vs thread count, scaled beyond the number of
// physical cores. The paper's observation: GEMM saturates (and degrades)
// right at the core count because each thread already runs near per-core
// peak, while the underutilizing baselines keep gaining from SMT
// oversubscription.
//
// The GEMM arm is the triangular SYRK (full LD matrix) run by the in-nest
// work-stealing team. Each GEMM row carries a "speedup_vs_1t" field (rate
// relative to the single-thread run) and, in traced builds, the
// steal/park/barrier counters of the run.
#include "baselines/omegaplus_like.hpp"
#include "baselines/plink_like.hpp"
#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "sim/wright_fisher.hpp"

using namespace ldla;
using namespace ldla::bench;

namespace {

struct GemmArm {
  double seconds = 0.0;
  double checksum = 0.0;
  trace::TraceSnapshot phases;
};

GemmArm time_ld_matrix(const BitMatrix& haps, unsigned threads) {
  LdOptions opts;
  opts.stat = LdStatistic::kRSquared;
  opts.gemm.arch = KernelArch::kScalar;
  GemmArm arm;
  const trace::TraceSnapshot before = trace::snapshot();
  Timer timer;
  const LdMatrix out = ld_matrix_parallel(haps, opts, threads);
  arm.seconds = timer.seconds();
  arm.phases = trace::snapshot().since(before);
  // Touch a few entries so the computation cannot be elided.
  arm.checksum = out(0, 0) + out(out.rows() - 1, 0) +
                 out(out.rows() - 1, out.cols() - 1);
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  maybe_start_trace(argc, argv, "fig5_thread_scaling");
  print_header("Figure 5 — thread scaling beyond physical cores",
               "Fig. 5: Dataset C; GEMM saturates at #cores, baselines keep "
               "climbing past it");

  // The GEMM arm materializes the full n x n LD matrix, so n is capped
  // below the scan benches' full size to keep the output resident.
  const std::size_t snps = full_mode() ? 6'000 : smoke_mode() ? 300 : 1'500;
  const std::size_t samples =
      full_mode() ? 100'000 : smoke_mode() ? 2'000 : 20'000;
  const unsigned cores = cpu_info().logical_cores;
  std::vector<unsigned> threads;
  for (unsigned t = 1; t <= 2 * cores; t *= 2) threads.push_back(t);
  if (threads.back() != 2 * cores) threads.push_back(2 * cores);
  if (smoke_mode() && threads.size() > 2) threads.resize(2);

  std::printf("dataset: %zu SNPs x %zu samples | %u logical core(s)\n",
              snps, samples, cores);
  if (cores == 1) {
    std::printf(
        "NOTE: with one core the scaling curves are flat by construction;\n"
        "the figure's shape needs a multi-core machine. Rows still verify\n"
        "that oversubscription does not corrupt results or deadlock.\n");
  }
  std::printf("generating dataset...\n\n");

  WrightFisherParams wf;
  wf.n_snps = snps;
  wf.n_samples = samples;
  wf.seed = 5;
  const BitMatrix haps = simulate_genotypes(wf);
  const GenotypeMatrix genos = GenotypeMatrix::from_haplotypes(haps);
  const double pairs = static_cast<double>(ld_pair_count(snps));

  Table table({"Threads", "PLINK-like LD/s", "OmegaPlus-like LD/s",
               "GEMM nest LD/s", "nest x1t"});
  BenchJson json("fig5_thread_scaling");
  double nest_rate_1t = 0.0;
  for (const unsigned t : threads) {
    Timer plink_timer;
    (void)plink_like_scan(genos, t);
    const double plink_s = plink_timer.seconds();

    Timer omega_timer;
    (void)omegaplus_like_scan(haps, t);
    const double omega_s = omega_timer.seconds();

    const GemmArm nest = time_ld_matrix(haps, t);
    const double nest_rate = pairs / nest.seconds;
    if (t == 1) nest_rate_1t = nest_rate;
    const double nest_speedup = nest_rate / nest_rate_1t;

    // Thread count rides in the workload label; shape columns keep the
    // dataset dimensions.
    const std::string suffix = "-t" + std::to_string(t);
    json.add("plink-like" + suffix, "baseline", snps, samples, plink_s,
             pairs / plink_s);
    json.add("omegaplus-like" + suffix, "baseline", snps, samples, omega_s,
             pairs / omega_s);
    json.add("gemm-nest" + suffix, kernel_arch_name(KernelArch::kScalar),
             snps, samples, nest.seconds, nest_rate, -1.0, nest.phases);
    json.set_last_speedup(nest_speedup);

    table.add_row({std::to_string(t) + (t > cores ? " (oversub)" : ""),
                   human_rate(pairs / plink_s), human_rate(pairs / omega_s),
                   human_rate(nest_rate), fmt_fixed(nest_speedup, 2) + "x"});
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\npaper shape to verify (multi-core): GEMM LD/s peaks at #physical\n"
      "cores and drops under oversubscription; the baselines continue to\n"
      "improve past the core count (they underutilize each core).\n");
  const bool json_ok = json.flush();
  const bool trace_ok = finish_trace();
  return (json_ok && trace_ok) ? 0 : 1;
}
