// The four end-to-end workloads (NOTES.md says why each exists).
#pragma once

#include <cstdint>
#include <string>

namespace e2e {

/// Names of the workloads, as accepted by --workload.
inline constexpr const char* kWorkloads[] = {"vcf-to-tiles", "dense-matrix",
                                             "rare-band", "omega-sweep"};

/// Input file each workload reads, inside the run directory.
inline constexpr const char* kVcfInput = "input.vcf";
inline constexpr const char* kLdmInput = "panel.ldm";
inline constexpr const char* kMsInput = "region.ms";

[[nodiscard]] bool known_workload(const std::string& name);

/// Write the workload's input files into `dir`, determined by `seed` alone,
/// and fsync them and the directory before returning (generate.cpp).
void generate(const std::string& workload, std::uint64_t seed,
              const std::string& dir);

struct RunOptions {
  std::string workload;
  std::string dir;        ///< holds the generated inputs; scratch outputs go here
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< job-loop budget
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  bool corrupt = false;   ///< self-test hook: damage every job's output
  std::string spans_out;  ///< traced run: where to write the spans
};

/// Run one workload: repeated set-up, then the job loop, output checks and
/// metrics. Prints a fingerprint line and, last, the result line on stdout.
/// Returns the process exit code.
int run(const RunOptions& opts);

}  // namespace e2e
