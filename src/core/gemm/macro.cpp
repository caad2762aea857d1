#include "core/gemm/macro.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "core/gemm/fused_tile.hpp"
#include "core/gemm/kernel.hpp"
#include "core/gemm/tune_cache.hpp"
#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"
#include "util/timer.hpp"

namespace ldla {

namespace {

// Do the two views alias the same packed rows? (One PackedBitMatrix can
// then serve both operand sides.)
bool same_operand(const BitMatrixView& a, const BitMatrixView& b) {
  return a.data == b.data && a.n_snps == b.n_snps &&
         a.stride_words == b.stride_words;
}

}  // namespace

GemmPlan gemm_plan_for(const BitMatrixView& a, const GemmConfig& cfg) {
  return resolve_plan(cfg, a.n_words);
}

void gemm_count(const BitMatrixView& a, const BitMatrixView& b,
                CountMatrixRef c, const GemmConfig& cfg) {
  if (a.empty() || b.empty()) return;
  LDLA_EXPECT(a.n_words == b.n_words,
              "operands disagree on words per SNP (different sample sets?)");
  LDLA_EXPECT(c.rows >= a.n_snps && c.cols >= b.n_snps,
              "output matrix is too small");
  LDLA_EXPECT(c.ld >= c.cols, "output leading dimension too small");

  const GemmPlan plan = resolve_plan(cfg, a.n_words);
  const bool same = same_operand(a, b);
  const PackedBitMatrix pa(a, plan, same ? PackSides::kBoth : PackSides::kA);
  std::optional<PackedBitMatrix> pb;
  if (!same) pb.emplace(b, plan, PackSides::kB);
  gemm_count_packed(pa, 0, a.n_snps, same ? pa : *pb, 0, b.n_snps, c);
}

void gemm_count_packed(const PackedBitMatrix& a, std::size_t a_begin,
                       std::size_t a_end, const PackedBitMatrix& b,
                       std::size_t b_begin, std::size_t b_end,
                       CountMatrixRef c) {
  LDLA_EXPECT(a_begin <= a_end && a_end <= a.snps(),
              "A row range out of range");
  LDLA_EXPECT(b_begin <= b_end && b_end <= b.snps(),
              "B row range out of range");
  LDLA_EXPECT(c.rows >= a_end - a_begin && c.cols >= b_end - b_begin,
              "output matrix is too small");
  LDLA_EXPECT(c.ld >= c.cols, "output leading dimension too small");
  gemm_count_fused(a, a_begin, a_end, b, b_begin, b_end,
                   [&](const CountTile& t) {
                     for (std::size_t i = 0; i < t.rows; ++i) {
                       std::uint32_t* dst = &c.at(t.row_begin + i - a_begin,
                                                  t.col_begin - b_begin);
                       for (std::size_t j = 0; j < t.cols; ++j) {
                         dst[j] += t.row(i)[j];
                       }
                     }
                   });
}

void gemm_count_fused(const PackedBitMatrix& a, std::size_t a_begin,
                      std::size_t a_end, const PackedBitMatrix& b,
                      std::size_t b_begin, std::size_t b_end,
                      const CountTileSink& sink) {
  LDLA_EXPECT(a_begin <= a_end && a_end <= a.snps(),
              "A row range out of range");
  LDLA_EXPECT(b_begin <= b_end && b_end <= b.snps(),
              "B row range out of range");
  LDLA_EXPECT(sink != nullptr, "fused driver needs a tile sink");
  if (a_begin == a_end || b_begin == b_end) return;
  LDLA_EXPECT(a.has_a_side(), "A operand was packed without an A side");
  LDLA_EXPECT(b.has_b_side(), "B operand was packed without a B side");
  const GemmPlan& plan = a.plan();
  const GemmPlan& bplan = b.plan();
  LDLA_EXPECT(plan.arch == bplan.arch && plan.mr == bplan.mr &&
                  plan.nr == bplan.nr && plan.ku == bplan.ku &&
                  a.kc_words() == b.kc_words() &&
                  a.words_per_snp() == b.words_per_snp(),
              "packed operands were built for incompatible plans");

  const KernelInfo& kern = kernel_for_plan(plan);
  const std::size_t mr = plan.mr;
  const std::size_t nr = plan.nr;
  const std::size_t mc = plan.mc;
  const std::size_t nc = plan.nc;

  const std::size_t ic0 = a_begin / mr * mr;
  const std::size_t jc0 = b_begin / nr * nr;
  const std::size_t a_pad_end = (a_end + mr - 1) / mr * mr;
  const std::size_t b_pad_end = (b_end + nr - 1) / nr * nr;

  // Tile-local count scratch: the whole (sliver-rounded) cache tile lives
  // here, so every micro-kernel writes full slivers and no edge temporary
  // is needed; the in-range window is sliced out for the sink.
  AlignedBuffer<std::uint32_t> scratch(
      std::min(mc, a_pad_end - ic0) * std::min(nc, b_pad_end - jc0));

  for (std::size_t jc = jc0; jc < b_end; jc += nc) {
    const std::size_t jc_end = std::min(jc + nc, b_pad_end);
    for (std::size_t ic = ic0; ic < a_end; ic += mc) {
      const std::size_t ic_end = std::min(ic + mc, a_pad_end);
      detail::fused_gemm_tile(a, b, kern, mr, nr, ic, ic_end, jc, jc_end,
                              a_begin, a_end, b_begin, b_end, scratch.data(),
                              std::min(nc, b_pad_end - jc0), sink);
    }
  }
}

namespace {

/// Candidate variants for the joint tuner. A forced family restricts the
/// search to its own grid; kAuto searches every runnable variant except
/// the ablation-artifact families (strawman, swar), which exist to be
/// measured against, not to win.
std::vector<const KernelInfo*> tuner_candidates(const GemmConfig& base) {
  std::vector<const KernelInfo*> out;
  for (const KernelInfo* k : available_kernel_variants()) {
    if (base.arch != KernelArch::kAuto) {
      if (k->arch != base.arch) continue;
    } else if (k->arch == KernelArch::kStrawman ||
               k->arch == KernelArch::kSwar) {
      continue;
    }
    out.push_back(k);
  }
  return out;
}

}  // namespace

GemmConfig tune_gemm_config(const BitMatrixView& sample,
                            const GemmConfig& base) {
  GemmConfig best = base;
  if (sample.n_snps == 0 || sample.n_words == 0) return best;

  // A cached decision short-circuits the whole sweep — and, because a hit
  // writes nothing, back-to-back tuned runs leave the cache file
  // byte-identical. Only re-tunable configs participate: the tuner varies
  // exactly {variant, kc, mc}, so any of those forced means the caller
  // wants what it asked for.
  const bool cacheable = base.arch == KernelArch::kAuto && base.mr == 0 &&
                         base.nr == 0 && base.ku == 0 && base.kc_words == 0 &&
                         base.mc == 0;
  if (cacheable) {
    if (const auto hit = tune_cache_lookup(sample.n_words)) {
      const KernelInfo* k = find_kernel(hit->variant);
      if (k != nullptr && kernel_available(k->arch)) {
        best.arch = k->arch;
        best.mr = k->mr;
        best.nr = k->nr;
        best.ku = k->ku;
        best.kc_words = hit->kc_words;
        best.mc = hit->mc;
        return best;
      }
    }
  }

  // A problem-shaped probe: up to 128 rows of the sample against itself.
  BitMatrixView probe = sample;
  probe.n_snps = std::min<std::size_t>(probe.n_snps, 128);
  CountMatrix c(probe.n_snps, probe.n_snps);

  const auto time_cfg = [&](const GemmConfig& cfg) {
    double fastest = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 2; ++rep) {
      c.zero();
      Timer t;
      gemm_count(probe, probe, c.ref(), cfg);
      fastest = std::min(fastest, t.seconds());
    }
    return fastest;
  };

  const auto variant_cfg = [&](const KernelInfo* k) {
    GemmConfig cfg = base;
    cfg.arch = k->arch;
    cfg.mr = k->mr;
    cfg.nr = k->nr;
    cfg.ku = k->ku;
    return cfg;
  };

  // Stage 1: rank every candidate variant at its default blocking and keep
  // the top few — blocking moves times by tens of percent, variant choice
  // by integer factors, so the survivors always contain the joint winner.
  struct Scored {
    const KernelInfo* k;
    double t;
  };
  std::vector<Scored> scored;
  for (const KernelInfo* k : tuner_candidates(base)) {
    scored.push_back({k, time_cfg(variant_cfg(k))});
  }
  if (scored.empty()) return best;
  std::sort(scored.begin(), scored.end(),
            [](const Scored& x, const Scored& y) { return x.t < y.t; });
  if (scored.size() > 4) scored.resize(4);

  // Stage 2: joint (variant × kc × mc) grid on the survivors.
  double best_time = std::numeric_limits<double>::infinity();
  for (const Scored& s : scored) {
    for (const std::size_t kc : {64u, 128u, 256u, 512u}) {
      for (const std::size_t mc : {32u, 64u, 128u, 256u}) {
        GemmConfig cfg = variant_cfg(s.k);
        cfg.kc_words = kc;
        cfg.mc = mc;
        const double t = time_cfg(cfg);
        if (t < best_time) {
          best_time = t;
          best = cfg;
        }
      }
    }
  }

  if (cacheable) {
    const KernelInfo* k = find_kernel(best.arch, best.mr, best.nr, best.ku);
    if (k != nullptr) {
      tune_cache_store(sample.n_words,
                       TuneCacheEntry{k->name, best.kc_words, best.mc});
    }
  }
  return best;
}

}  // namespace ldla
