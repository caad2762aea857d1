// Ablation of the GotoBLAS design choices (Section III / DESIGN.md §4):
// what packing, cache blocking and the kc choice are each worth.
//
// The library has one packed, blocked nest. "No blocking" is a degenerate
// plan of that nest (kc, mc, nc spanning the whole problem); "no packing"
// has no library path and lives here as a strided reference loop.
#include "bench_common.hpp"
#include "core/popcount.hpp"

using namespace ldla;
using namespace ldla::bench;

namespace {

struct AblationPoint {
  double rate = 0.0;     ///< word-triples per second (best rep)
  double seconds = 0.0;  ///< wall seconds of the best rep
};

// "No packing": the slab walk and cache blocking of time_symmetric_counts,
// with the inner loops reading operand rows in place (strided) instead of
// from packed slivers, one row pair at a time.
CountScanResult time_unpacked_counts(const BitMatrix& g, const GemmPlan& plan,
                                     std::size_t slab_rows = 256) {
  CountScanResult out;
  const std::size_t n = g.snps();
  const std::size_t k = g.words_per_snp();
  const BitMatrixView v = g.view();
  CountMatrix counts(std::min(slab_rows, n), n);
  Timer timer;
  for (std::size_t r0 = 0; r0 < n; r0 += slab_rows) {
    const std::size_t rows = std::min(slab_rows, n - r0);
    const std::size_t cols = r0 + rows;
    counts.zero();
    for (std::size_t jc = 0; jc < cols; jc += plan.nc) {
      const std::size_t ncb = std::min(plan.nc, cols - jc);
      for (std::size_t pc = 0; pc < k; pc += plan.kc_words) {
        const std::size_t kcb = std::min(plan.kc_words, k - pc);
        for (std::size_t ic = 0; ic < rows; ic += plan.mc) {
          const std::size_t mcb = std::min(plan.mc, rows - ic);
          for (std::size_t j = jc; j < jc + ncb; ++j) {
            const std::uint64_t* rb = v.row(j) + pc;
            for (std::size_t i = ic; i < ic + mcb; ++i) {
              const std::uint64_t* ra = v.row(r0 + i) + pc;
              counts(i, j) += static_cast<std::uint32_t>(popcount_and(
                  {ra, kcb}, {rb, kcb}, PopcountMethod::kHardware));
            }
          }
        }
      }
    }
    out.checksum += counts(0, 0) + counts(rows - 1, cols - 1);
    out.pairs += static_cast<std::uint64_t>(rows) * cols;
  }
  out.seconds = timer.seconds();
  out.word_triples = out.pairs * k;
  return out;
}

// Best of three runs: the shared vCPU shows multi-percent run-to-run noise
// and the best repetition is the least contaminated estimate.
template <typename TimeOnce>
AblationPoint best_of(const TimeOnce& time_once) {
  AblationPoint best;
  const int reps = smoke_mode() ? 1 : 3;
  for (int rep = 0; rep < reps; ++rep) {
    const CountScanResult r = time_once();
    const double rate = static_cast<double>(r.word_triples) / r.seconds;
    if (rate > best.rate) best = AblationPoint{rate, r.seconds};
  }
  return best;
}

AblationPoint run(const BitMatrix& g, const GemmConfig& cfg) {
  return best_of([&] { return time_symmetric_counts(g, cfg); });
}

}  // namespace

int main(int argc, char** argv) {
  maybe_start_trace(argc, argv, "blocking_ablation");
  print_header("Blocking/packing ablation",
               "Sec. III: the layered GotoBLAS structure is what buys the "
               "84-90% of peak");

  const std::size_t n = full_mode() ? 8192 : smoke_mode() ? 512 : 2048;
  const std::size_t k = full_mode() ? 65536 : smoke_mode() ? 1024 : 16384;
  const BitMatrix g = random_bits(n, k, 77);
  std::printf("problem: %zu SNPs x %zu samples (%zu words/SNP)\n\n", n, k,
              g.words_per_snp());

  BenchJson json("blocking_ablation");
  GemmConfig base;
  base.arch = KernelArch::kScalar;
  const AblationPoint full = run(g, base);
  json.add("full", kernel_arch_name(base.arch), n, k, full.seconds,
           full.rate);

  Table table({"configuration", "Gtriples/s", "vs full GotoBLAS"});
  table.add_row({"full (pack + block, auto kc/mc/nc)",
                 fmt_fixed(full.rate / 1e9, 2), "1.00x"});

  {
    const GemmPlan plan = gemm_plan_for(g.view(), base);
    const AblationPoint r =
        best_of([&] { return time_unpacked_counts(g, plan); });
    json.add("no-packing", kernel_arch_name(base.arch), n, k, r.seconds,
             r.rate);
    table.add_row({"no packing (strided operands)", fmt_fixed(r.rate / 1e9, 2),
                   fmt_fixed(r.rate / full.rate, 2) + "x"});
  }
  {
    // One block on every axis: kc spans all of k, mc/nc the whole matrix.
    GemmConfig cfg = base;
    cfg.kc_words = g.words_per_snp();
    cfg.mc = n;
    cfg.nc = n;
    const AblationPoint r = run(g, cfg);
    json.add("no-blocking", kernel_arch_name(cfg.arch), n, k, r.seconds,
             r.rate);
    table.add_row({"no cache blocking (one giant pass)",
                   fmt_fixed(r.rate / 1e9, 2),
                   fmt_fixed(r.rate / full.rate, 2) + "x"});
  }
  for (const std::size_t kc : {16u, 64u, 256u, 1024u}) {
    GemmConfig cfg = base;
    cfg.kc_words = kc;
    const AblationPoint r = run(g, cfg);
    json.add("kc=" + std::to_string(kc), kernel_arch_name(cfg.arch), n, k,
             r.seconds, r.rate);
    table.add_row({"kc = " + std::to_string(kc) + " words",
                   fmt_fixed(r.rate / 1e9, 2),
                   fmt_fixed(r.rate / full.rate, 2) + "x"});
  }
  for (const std::size_t mc : {16u, 64u, 256u}) {
    GemmConfig cfg = base;
    cfg.mc = mc;
    const AblationPoint r = run(g, cfg);
    json.add("mc=" + std::to_string(mc), kernel_arch_name(cfg.arch), n, k,
             r.seconds, r.rate);
    table.add_row({"mc = " + std::to_string(mc) + " rows",
                   fmt_fixed(r.rate / 1e9, 2),
                   fmt_fixed(r.rate / full.rate, 2) + "x"});
  }
  // Register-tile geometry (AVX-512 only): 4x4 vs 2x8.
  if (kernel_available(KernelArch::kAvx512)) {
    for (const KernelArch arch :
         {KernelArch::kAvx512, KernelArch::kAvx512Wide}) {
      GemmConfig cfg;
      cfg.arch = arch;
      const AblationPoint r = run(g, cfg);
      json.add("tile-geometry", kernel_arch_name(arch), n, k, r.seconds,
               r.rate);
      table.add_row({"tile: " + kernel_arch_name(arch),
                     fmt_fixed(r.rate / 1e9, 2),
                     fmt_fixed(r.rate / full.rate, 2) + "x"});
    }
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\nexpected shape: the full configuration is at or near the top; very\n"
      "small kc/mc hurt (packing overhead dominates), and disabling packing\n"
      "or blocking costs performance on problems that exceed the caches.\n");
  const bool json_ok = json.flush();
  const bool trace_ok = finish_trace();
  return (json_ok && trace_ok) ? 0 : 1;
}
