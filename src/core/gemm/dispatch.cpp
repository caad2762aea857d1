// Kernel variant registry and CPUID-based dispatch.
//
// The kernels_*.cpp translation units each export the slice of the
// generated (mr, nr, ku) grid they compiled; this TU concatenates them
// into the registry, validates the geometry invariants the rest of the
// system relies on, and answers every lookup (family default, exact plan
// geometry, name, availability) from that single table — adding a variant
// is one line in its TU's table.
#include "core/gemm/kernel.hpp"

#include <string>

#include "util/contract.hpp"
#include "util/cpu_info.hpp"
#include "util/metrics.hpp"

namespace ldla {

namespace {

/// One CPU-feature predicate per family — the only other fact a variant
/// needs beyond its table row.
bool family_runs_here(KernelArch arch) {
  const CpuFeatures& f = cpu_features();
  switch (arch) {
    case KernelArch::kAuto:
    case KernelArch::kSwar:
      return true;
    case KernelArch::kScalar:
      return f.popcnt;
    case KernelArch::kStrawman:
    case KernelArch::kAvx2:
      return f.avx2;
    case KernelArch::kAvx512:
    case KernelArch::kAvx512Wide:
      return f.avx512f && f.avx512bw && f.avx512vpopcntdq;
  }
  return false;
}

std::vector<KernelInfo> build_registry() {
  std::vector<KernelInfo> reg;
  const auto append = [&reg](std::span<const KernelInfo> table) {
    reg.insert(reg.end(), table.begin(), table.end());
  };
  append(kernels::scalar_variants());
  append(kernels::swar_variants());
#if LDLA_HAVE_AVX2_TU
  append(kernels::avx2_variants());
#endif
#if LDLA_HAVE_AVX512_TU
  append(kernels::avx512_variants());
#endif

  for (std::size_t v = 0; v < reg.size(); ++v) {
    const KernelInfo& k = reg[v];
    // The sparse transpose gather pre-shifts a tile's base column within
    // one 64-bit word, so register tiles must never straddle a word; the
    // drivers' edge-tile scratch is uint32_t[16*16].
    LDLA_EXPECT(k.mr != 0 && 64 % k.mr == 0,
                "kernel registry: mr must divide 64");
    // Tile edges of the interleaved multi-plane drivers are kept on
    // kTileEdgeRows by resolve_plan and chunk_quantum, not by nr.
    LDLA_EXPECT(k.nr != 0 && 64 % k.nr == 0,
                "kernel registry: nr must divide 64");
    LDLA_EXPECT(k.mr * k.nr <= 256,
                "kernel registry: tile exceeds the drivers' edge scratch");
    LDLA_EXPECT(k.ku != 0 && k.fn != nullptr && k.name[0] != '\0',
                "kernel registry: incomplete variant row");
    for (std::size_t w = 0; w < v; ++w) {
      // (arch, mr, nr, ku) is the variant's identity — a GemmPlan (or an
      // LDLASH02 header) must name exactly one kernel — and names key the
      // tuning cache.
      LDLA_EXPECT(reg[w].arch != k.arch || reg[w].mr != k.mr ||
                      reg[w].nr != k.nr || reg[w].ku != k.ku,
                  "kernel registry: duplicate (arch, mr, nr, ku) identity");
      LDLA_EXPECT(std::string_view(reg[w].name) != k.name,
                  "kernel registry: duplicate variant name");
    }
  }
  return reg;
}

}  // namespace

std::span<const KernelInfo> kernel_registry() {
  static const std::vector<KernelInfo> reg = build_registry();
  return reg;
}

std::vector<const KernelInfo*> available_kernel_variants() {
  std::vector<const KernelInfo*> out;
  for (const KernelInfo& k : kernel_registry()) {
    if (family_runs_here(k.arch)) out.push_back(&k);
  }
  return out;
}

bool kernel_available(KernelArch a) {
  if (a == KernelArch::kAuto) return true;
  if (!family_runs_here(a)) return false;
  for (const KernelInfo& k : kernel_registry()) {
    if (k.arch == a) return true;
  }
  return false;
}

const KernelInfo* find_kernel(KernelArch arch, std::size_t mr, std::size_t nr,
                              std::size_t ku) {
  for (const KernelInfo& k : kernel_registry()) {
    if (k.arch == arch && k.mr == mr && k.nr == nr && k.ku == ku) return &k;
  }
  return nullptr;
}

const KernelInfo* find_kernel(std::string_view name) {
  for (const KernelInfo& k : kernel_registry()) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

const KernelInfo& kernel_info(KernelArch arch) {
  LDLA_EXPECT(arch != KernelArch::kAuto,
              "resolve kAuto via resolve_plan before kernel lookup");
  LDLA_EXPECT(kernel_available(arch), "kernel unavailable on this CPU/build");
  for (const KernelInfo& k : kernel_registry()) {
    if (k.arch == arch && k.family_default) return k;
  }
  throw ContractViolation("kernel family has no default variant registered");
}

const KernelInfo& kernel_for_plan(const GemmPlan& plan) {
  LDLA_EXPECT(kernel_available(plan.arch),
              "plan names a kernel family this CPU/build cannot run");
  const KernelInfo* k = find_kernel(plan.arch, plan.mr, plan.nr, plan.ku);
  if (k == nullptr) {
    throw ContractViolation(
        "plan names a register-tile geometry (" + kernel_arch_name(plan.arch) +
        " " + std::to_string(plan.mr) + "x" + std::to_string(plan.nr) + "u" +
        std::to_string(plan.ku) +
        ") this build never compiled; re-resolve the plan");
  }
  // The variant actually dispatched, for server dashboards; variant names
  // are static literals, so the info gauge stores the pointer directly.
  LDLA_METRICS_ONLY(metrics::info("ldla_kernel_variant", "variant",
                                  "micro-kernel variant dispatched by "
                                  "kernel_for_plan")
                        .set(k->name));
  return *k;
}

}  // namespace ldla
