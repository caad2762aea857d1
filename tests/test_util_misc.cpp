// Sanity tests for the hardware-introspection utilities (cpu_info, timer,
// peak calibration) and the contract machinery.
#include <thread>

#include <gtest/gtest.h>

#include "util/contract.hpp"
#include "util/cpu_info.hpp"
#include "util/peak.hpp"
#include "util/timer.hpp"

namespace ldla {
namespace {

TEST(Contract, ExpectThrowsWithContext) {
  try {
    LDLA_EXPECT(false, "the message");
    FAIL() << "must throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("test_util_misc"), std::string::npos)
        << "should carry the source location";
  }
}

TEST(Contract, ExpectPassesSilently) {
  LDLA_EXPECT(1 + 1 == 2, "never fires");
}

TEST(CpuInfo, ReportsSaneValues) {
  const CpuInfo& info = cpu_info();
  EXPECT_GE(info.logical_cores, 1u);
  EXPECT_GT(info.cache.l1d, 4u * 1024);
  EXPECT_GE(info.cache.l2, info.cache.l1d);
  EXPECT_FALSE(info.brand.empty());
#if defined(__x86_64__)
  // Every x86-64 CPU this library targets has SSE4.2 POPCNT.
  EXPECT_TRUE(info.features.popcnt);
#endif
}

TEST(CpuInfo, DetectionIsStable) {
  const CpuInfo& a = cpu_info();
  const CpuInfo& b = cpu_info();
  EXPECT_EQ(&a, &b) << "detection must run once and be cached";
}

TEST(CpuInfo, FeaturesAreTheSharedDetection) {
  // Every ISA dispatcher reads cpu_features(); cpu_info() must agree.
  const CpuFeatures& a = cpu_features();
  const CpuFeatures& b = cpu_info().features;
  EXPECT_EQ(&a, &cpu_features());
  EXPECT_EQ(a.popcnt, b.popcnt);
  EXPECT_EQ(a.sse42, b.sse42);
  EXPECT_EQ(a.ssse3, b.ssse3);
  EXPECT_EQ(a.avx2, b.avx2);
  EXPECT_EQ(a.avx512f, b.avx512f);
  EXPECT_EQ(a.avx512bw, b.avx512bw);
  EXPECT_EQ(a.avx512vpopcntdq, b.avx512vpopcntdq);
}

TEST(CpuInfo, SummaryMentionsFeatures) {
  const std::string s = cpu_summary();
  EXPECT_NE(s.find("cores="), std::string::npos);
  EXPECT_NE(s.find("L1d="), std::string::npos);
}

TEST(Timer, MeasuresSleepsApproximately) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const double s = t.seconds();
  EXPECT_GE(s, 0.025);
  EXPECT_LT(s, 3.0);  // generous upper bound for loaded CI machines
  t.reset();
  EXPECT_LT(t.seconds(), 0.025);
}

TEST(Timer, TscIsMonotonicAndCalibrated) {
  const std::uint64_t a = rdtsc_serialized();
  const std::uint64_t b = rdtsc_serialized();
  EXPECT_GE(b, a);
  const double hz = tsc_hz();
  EXPECT_GT(hz, 1e8);   // > 100 MHz
  EXPECT_LT(hz, 1e11);  // < 100 GHz
}

TEST(Peak, CalibrationIsPlausibleAndCached) {
  const PeakEstimate& p = peak_estimate();
  EXPECT_GT(p.core_hz, 1e8);
  EXPECT_LT(p.core_hz, 2e10);
  EXPECT_GT(p.scalar_triples_per_sec, 0.0);
  // The measured attainable rate should be near the frequency-derived
  // peak (1 triple/cycle): allow a wide band for virtualized hosts.
  // Sanitizer instrumentation slows the measured loop by an unbounded
  // factor, so the magnitude bounds only hold in uninstrumented builds.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  EXPECT_GT(p.scalar_triples_per_sec, 1e8);
  EXPECT_GT(p.scalar_triples_per_sec, 0.3 * p.core_hz);
#endif
  EXPECT_LT(p.scalar_triples_per_sec, 3.0 * p.core_hz);
  const PeakEstimate& again = peak_estimate();
  EXPECT_EQ(&p, &again);
}

TEST(Peak, VectorPeakPresentWhenHardwareSupportsIt) {
  const PeakEstimate& p = peak_estimate();
  if (cpu_info().features.avx512vpopcntdq) {
    EXPECT_GT(p.vector_triples_per_sec, p.scalar_triples_per_sec)
        << "VPOPCNTDQ must beat scalar POPCNT on L1-resident data";
  } else {
    EXPECT_EQ(p.vector_triples_per_sec, 0.0);
  }
}

}  // namespace
}  // namespace ldla
