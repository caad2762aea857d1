// Section IV-A supporting study (refs 17/18): hardware POPCNT vs software
// popcount methods, plus the Section V arms, on the fused AND+POPCNT
// reduction the LD inner loop performs. google-benchmark micro-timing.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/popcount.hpp"
#include "sim/rng.hpp"
#include "util/aligned_buffer.hpp"

namespace {

using ldla::PopcountMethod;

struct Operands {
  ldla::AlignedBuffer<std::uint64_t> a;
  ldla::AlignedBuffer<std::uint64_t> b;
};

Operands make_operands(std::size_t words) {
  Operands ops{ldla::AlignedBuffer<std::uint64_t>(words),
               ldla::AlignedBuffer<std::uint64_t>(words)};
  ldla::Rng rng(words);
  for (std::size_t i = 0; i < words; ++i) {
    ops.a[i] = rng.next_u64();
    ops.b[i] = rng.next_u64();
  }
  return ops;
}

void bench_popcount_and(benchmark::State& state, PopcountMethod method) {
  if (!ldla::popcount_method_available(method)) {
    state.SkipWithError("backend unavailable on this CPU");
    return;
  }
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  const Operands ops = make_operands(words);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ldla::popcount_and(ops.a.span(), ops.b.span(), method));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words) * 16);
  state.counters["words/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(words),
      benchmark::Counter::kIsRate);
}

}  // namespace

// Sizes: one SNP row of a small cohort (64 words = 4096 samples), an
// L1-resident panel, and an L2-sized stream.
#define LDLA_POPCOUNT_BENCH(name, method)                             \
  BENCHMARK_CAPTURE(bench_popcount_and, name, method)                 \
      ->Arg(64)                                                       \
      ->Arg(1024)                                                     \
      ->Arg(16384)

LDLA_POPCOUNT_BENCH(hardware_popcnt, PopcountMethod::kHardware);
LDLA_POPCOUNT_BENCH(swar, PopcountMethod::kSwar);
LDLA_POPCOUNT_BENCH(lut16, PopcountMethod::kLut16);
LDLA_POPCOUNT_BENCH(sse_pshufb, PopcountMethod::kPshufbSse);
LDLA_POPCOUNT_BENCH(avx2_harley_seal, PopcountMethod::kHarleySealAvx2);
LDLA_POPCOUNT_BENCH(simd_extract_strawman, PopcountMethod::kSimdExtract);
LDLA_POPCOUNT_BENCH(avx512_vpopcntdq, PopcountMethod::kAvx512Vpopcnt);

namespace {

// Console output as usual, with every finished run mirrored into the
// machine-readable BENCH_*.json stream the table/figure benches emit
// (workload = method, samples = word count, rate = words/s counter), via
// the shared add_gbench_row helper.
class JsonMirrorReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const auto it = run.counters.find("words/s");
      const double rate = it != run.counters.end() ? it->second.value : 0.0;
      // Name shape: "bench_popcount_and/<method>/<words>".
      ldla::bench::add_gbench_row(json_, run.benchmark_name(), "popcount-and",
                                  run.real_accumulated_time, rate);
    }
  }

  bool flush_json() { return json_.flush(); }

 private:
  ldla::bench::BenchJson json_{"popcount_methods"};
};

}  // namespace

int main(int argc, char** argv) {
  ldla::bench::maybe_start_trace(argc, argv, "popcount_methods");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonMirrorReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const bool json_ok = reporter.flush_json();
  const bool trace_ok = ldla::bench::finish_trace();
  return (json_ok && trace_ok) ? 0 : 1;
}
