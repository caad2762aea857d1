#include "util/cpu_info.hpp"

#include <array>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace ldla {
namespace {

#if defined(__x86_64__) || defined(__i386__)
struct CpuidRegs {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
};

CpuidRegs cpuid(unsigned leaf, unsigned subleaf) {
  CpuidRegs r;
  __cpuid_count(leaf, subleaf, r.eax, r.ebx, r.ecx, r.edx);
  return r;
}

// XCR0: the register state the OS saves across context switches.
std::uint64_t read_xcr0() {
  unsigned lo = 0;
  unsigned hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0u));
  return (std::uint64_t{hi} << 32) | lo;
}

CpuFeatures detect_features() {
  CpuFeatures f;
  const CpuidRegs l1 = cpuid(1, 0);
  f.popcnt = (l1.ecx >> 23) & 1u;
  f.sse42 = (l1.ecx >> 20) & 1u;
  f.ssse3 = (l1.ecx >> 9) & 1u;
  // AVX registers are usable only when the OS saves them: YMM needs XCR0
  // bits 1-2, ZMM also needs the opmask and upper-ZMM bits 5-7.
  const bool osxsave = (l1.ecx >> 27) & 1u;
  const std::uint64_t xcr0 = osxsave ? read_xcr0() : 0;
  const bool ymm = (xcr0 & 0x06) == 0x06;
  const bool zmm = (xcr0 & 0xE6) == 0xE6;
  const CpuidRegs l7 = cpuid(7, 0);
  f.avx2 = ymm && ((l7.ebx >> 5) & 1u);
  f.avx512f = zmm && ((l7.ebx >> 16) & 1u);
  f.avx512bw = zmm && ((l7.ebx >> 30) & 1u);
  f.avx512vpopcntdq = zmm && ((l7.ecx >> 14) & 1u);
  return f;
}

std::string detect_brand() {
  std::array<char, 49> brand{};
  unsigned* p = reinterpret_cast<unsigned*>(brand.data());
  for (unsigned i = 0; i < 3; ++i) {
    const CpuidRegs r = cpuid(0x80000002u + i, 0);
    p[i * 4 + 0] = r.eax;
    p[i * 4 + 1] = r.ebx;
    p[i * 4 + 2] = r.ecx;
    p[i * 4 + 3] = r.edx;
  }
  return std::string(brand.data());
}
#else
CpuFeatures detect_features() { return {}; }
std::string detect_brand() { return "unknown"; }
#endif

std::size_t read_sysfs_cache(unsigned index) {
  std::ostringstream path;
  path << "/sys/devices/system/cpu/cpu0/cache/index" << index << "/size";
  std::ifstream in(path.str());
  if (!in) return 0;
  std::string s;
  in >> s;
  if (s.empty()) return 0;
  std::size_t mul = 1;
  if (s.back() == 'K') mul = 1024;
  if (s.back() == 'M') mul = 1024 * 1024;
  if (mul != 1) s.pop_back();
  try {
    return static_cast<std::size_t>(std::stoull(s)) * mul;
  } catch (...) {
    return 0;
  }
}

std::string read_sysfs_cache_type(unsigned index) {
  std::ostringstream path;
  path << "/sys/devices/system/cpu/cpu0/cache/index" << index << "/type";
  std::ifstream in(path.str());
  std::string t;
  if (in) in >> t;
  return t;
}

unsigned read_sysfs_cache_level(unsigned index) {
  std::ostringstream path;
  path << "/sys/devices/system/cpu/cpu0/cache/index" << index << "/level";
  std::ifstream in(path.str());
  unsigned lvl = 0;
  if (in) in >> lvl;
  return lvl;
}

CacheInfo detect_cache() {
  CacheInfo c;
  bool found_any = false;
  for (unsigned idx = 0; idx < 8; ++idx) {
    const unsigned level = read_sysfs_cache_level(idx);
    if (level == 0) continue;
    const std::string type = read_sysfs_cache_type(idx);
    const std::size_t size = read_sysfs_cache(idx);
    if (size == 0) continue;
    found_any = true;
    if (level == 1 && type != "Instruction") c.l1d = size;
    if (level == 2) c.l2 = size;
    if (level == 3) c.l3 = size;
  }
  if (!found_any) {
    // Keep the conservative defaults from the struct initializers.
  }
  return c;
}

CpuInfo detect_all() {
  CpuInfo info;
  info.features = cpu_features();
  info.cache = detect_cache();
  info.logical_cores = std::max(1u, std::thread::hardware_concurrency());
  info.brand = detect_brand();
  return info;
}

}  // namespace

const CpuInfo& cpu_info() {
  static const CpuInfo info = detect_all();
  return info;
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = detect_features();
  return features;
}

bool pin_current_thread_to_core(unsigned core) {
#if defined(__linux__)
  const unsigned cores = cpu_info().logical_cores;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(core % (cores == 0 ? 1u : cores), &mask);
  return pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask) == 0;
#else
  (void)core;
  return false;
#endif
}

std::string cpu_summary() {
  const CpuInfo& i = cpu_info();
  std::ostringstream out;
  out << i.brand << " | cores=" << i.logical_cores
      << " | L1d=" << i.cache.l1d / 1024 << "K L2=" << i.cache.l2 / 1024
      << "K L3=" << i.cache.l3 / 1024 << "K | features:";
  if (i.features.popcnt) out << " popcnt";
  if (i.features.avx2) out << " avx2";
  if (i.features.avx512f) out << " avx512f";
  if (i.features.avx512vpopcntdq) out << " avx512vpopcntdq";
  return out.str();
}

}  // namespace ldla
