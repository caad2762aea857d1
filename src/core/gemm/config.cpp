#include "core/gemm/config.hpp"

#include <algorithm>
#include <numeric>

#include "core/gemm/kernel.hpp"
#include "core/gemm/tune_cache.hpp"
#include "util/contract.hpp"
#include "util/cpu_info.hpp"

namespace ldla {

std::string kernel_arch_name(KernelArch a) {
  switch (a) {
    case KernelArch::kAuto: return "auto";
    case KernelArch::kScalar: return "scalar-popcnt";
    case KernelArch::kSwar: return "swar";
    case KernelArch::kStrawman: return "simd-extract-strawman";
    case KernelArch::kAvx2: return "avx2-pshufb";
    case KernelArch::kAvx512: return "avx512-vpopcntdq";
    case KernelArch::kAvx512Wide: return "avx512-vpopcntdq-2x8";
  }
  return "unknown";
}

// kernel_available lives in dispatch.cpp now: availability is a registry
// question (family feature-gate AND at least one compiled variant).

std::vector<KernelArch> available_kernels() {
  std::vector<KernelArch> out;
  for (KernelArch a : {KernelArch::kScalar, KernelArch::kSwar,
                       KernelArch::kStrawman, KernelArch::kAvx2,
                       KernelArch::kAvx512, KernelArch::kAvx512Wide}) {
    if (kernel_available(a)) out.push_back(a);
  }
  return out;
}

namespace {

KernelArch resolve_auto_arch() {
  if (kernel_available(KernelArch::kAvx512)) return KernelArch::kAvx512;
  // Note: the paper's Section V analysis holds — without a vectorized
  // popcount, the *scalar* POPCNT kernel is the honest default; the AVX2
  // PSHUFB kernel is available explicitly for the SIMD study.
  if (kernel_available(KernelArch::kScalar)) return KernelArch::kScalar;
  return KernelArch::kSwar;
}

}  // namespace

GemmPlan resolve_plan(const GemmConfig& cfg, std::size_t k_words) {
  KernelArch arch = cfg.arch;
  if (arch == KernelArch::kAuto) arch = resolve_auto_arch();
  LDLA_EXPECT(kernel_available(arch),
              "requested GEMM kernel is unavailable on this CPU/build");

  // Select the micro-kernel variant: an explicit (mr, nr, ku) override
  // wins; a fully-auto config consults the persistent tuning cache; the
  // family's default variant is the fallback either way.
  std::size_t want_kc = cfg.kc_words;
  std::size_t want_mc = cfg.mc;
  const KernelInfo* info = nullptr;
  if (cfg.mr != 0 || cfg.nr != 0 || cfg.ku != 0) {
    LDLA_EXPECT(cfg.mr != 0 && cfg.nr != 0 && cfg.ku != 0,
                "GemmConfig variant override requires all of mr, nr, ku");
    info = find_kernel(arch, cfg.mr, cfg.nr, cfg.ku);
    if (info == nullptr) {
      throw ContractViolation("GemmConfig names a register-tile geometry (" +
                              kernel_arch_name(arch) + " " +
                              std::to_string(cfg.mr) + "x" +
                              std::to_string(cfg.nr) + "u" +
                              std::to_string(cfg.ku) +
                              ") with no registered kernel variant");
    }
  } else if (cfg.arch == KernelArch::kAuto && cfg.kc_words == 0 &&
             cfg.mc == 0 && cfg.nc == 0) {
    // Only untouched configs take cached decisions: any explicit knob means
    // the caller (a bench ablation, the tuner itself) wants exactly what it
    // asked for.
    if (const auto hit = tune_cache_lookup(k_words)) {
      const KernelInfo* k = find_kernel(hit->variant);
      if (k != nullptr && kernel_available(k->arch)) {
        info = k;
        arch = k->arch;
        want_kc = hit->kc_words;
        want_mc = hit->mc;
      }
    }
  }
  if (info == nullptr) info = &kernel_info(arch);

  GemmPlan plan;
  plan.arch = arch;
  plan.mr = info->mr;
  plan.nr = info->nr;
  plan.ku = info->ku;

  const CacheInfo& cache = cpu_info().cache;
  // An explicit block past any real extent means "one block on this axis";
  // clamp it so the register-tile rounding below cannot wrap to zero.
  constexpr std::size_t kMaxBlock = std::size_t{1} << 40;

  // kc: one mr-sliver of A (mr*kc words) plus one nr-sliver of B should sit
  // comfortably in L1 alongside the C tile; a third of L1d measures best
  // (bench_blocking_ablation) — it leaves headroom for the streaming B
  // panel lines.
  if (want_kc != 0) {
    plan.kc_words = std::min(want_kc, kMaxBlock);
  } else {
    const std::size_t bytes_per_k = (plan.mr + plan.nr) * sizeof(std::uint64_t);
    plan.kc_words = std::max<std::size_t>(
        plan.ku, (cache.l1d / 3) / std::max<std::size_t>(1, bytes_per_k));
    plan.kc_words = std::min<std::size_t>(plan.kc_words, 256);
  }
  // Round kc to the kernel's k-unroll so packed panels stay uniform.
  plan.kc_words = (plan.kc_words + plan.ku - 1) / plan.ku * plan.ku;

  // mc: packed A block (mc * kc words) should fit in ~half of L2.
  if (want_mc != 0) {
    plan.mc = std::min(want_mc, kMaxBlock);
  } else {
    const std::size_t a_block_budget = cache.l2 / 2;
    plan.mc = std::max<std::size_t>(
        plan.mr, a_block_budget / (plan.kc_words * sizeof(std::uint64_t)));
    plan.mc = std::min<std::size_t>(plan.mc, 512);
  }
  // Row blocks stay whole register tiles on the kTileEdgeRows grid, so no
  // tile edge splits the interleaved planes of a multi-plane driver; the
  // pack layout does not depend on mc or nc.
  const std::size_t m_quantum = std::lcm(plan.mr, kTileEdgeRows);
  plan.mc = (plan.mc + m_quantum - 1) / m_quantum * m_quantum;

  // nc: packed B panel (nc * kc words) targets L3 (or a fixed budget when
  // L3 is undetected).
  if (cfg.nc != 0) {
    plan.nc = std::min(cfg.nc, kMaxBlock);
  } else {
    const std::size_t l3 = cache.l3 != 0 ? cache.l3 : 8 * 1024 * 1024;
    plan.nc = std::max<std::size_t>(
        plan.nr, (l3 / 2) / (plan.kc_words * sizeof(std::uint64_t)));
    plan.nc = std::min<std::size_t>(plan.nc, 8192);
  }
  const std::size_t n_quantum = std::lcm(plan.nr, kTileEdgeRows);
  plan.nc = (plan.nc + n_quantum - 1) / n_quantum * n_quantum;

  // Sparse-column threshold: auto resolves to the crossover allele count.
  // A dense register-tile row pair costs ~k_words AND+POPCNT word ops per
  // panel sweep; a list×dense pair costs one gather+test per list entry, so
  // lists shorter than the row's word count win. The complement trick uses
  // the same bound on the zero count.
  plan.sparse_threshold = cfg.sparse_threshold == kSparseThresholdAuto
                              ? k_words
                              : cfg.sparse_threshold;
  return plan;
}

}  // namespace ldla
