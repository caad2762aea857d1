// Seeded input generators. Each workload's input is a file in a format the
// library parses: a phased VCF (written here; the library has no VCF
// writer), an .ldm snapshot or an ms replicate. Everything is fsynced
// before generate() returns, so no write-back of the inputs lands inside
// the timed process that reads them.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "adapter.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

// Input shapes. The LD work each one implies is sized in workloads.cpp.
constexpr std::size_t kVcfSnps = 8000;
constexpr std::size_t kVcfDiploid = 2504;  // 1000 Genomes phase 3
constexpr std::size_t kDenseSnps = 7680;
constexpr std::size_t kDenseHaplotypes = 5008;
constexpr std::size_t kRareSnps = 30000;
constexpr std::size_t kRareHaplotypes = 25000;
constexpr double kRareFraction = 0.95;
constexpr std::size_t kSweepSnps = 20000;
constexpr std::size_t kSweepHaplotypes = 1000;

// Independent seed streams per workload, so two workloads never share an
// input for the same --seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open for fsync: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("fsync failed: " + path);
}

// Phased biallelic VCF: haplotypes 2s and 2s+1 form diploid sample s.
void write_vcf(const std::string& path, const lib::Panel& p) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs(
      "##fileformat=VCFv4.2\n"
      "##contig=<ID=20,length=64444167>\n"
      "##FORMAT=<ID=GT,Number=1,Type=String,Description=\"Genotype\">\n"
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT",
      f);
  const std::size_t diploid = p.genotypes.samples() / 2;
  for (std::size_t s = 0; s < diploid; ++s) std::fprintf(f, "\tS%05zu", s);
  std::fputc('\n', f);

  std::string line;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < p.genotypes.snps(); ++i) {
    const std::uint64_t pos = std::max<std::uint64_t>(
        prev + 1, 1 + static_cast<std::uint64_t>(p.positions[i] * 64e6));
    prev = pos;
    line = "20\t" + std::to_string(pos) + "\trs" + std::to_string(i + 1) +
           "\tA\tG\t.\tPASS\t.\tGT";
    for (std::size_t s = 0; s < diploid; ++s) {
      line += '\t';
      line += p.genotypes.get(i, 2 * s) ? '1' : '0';
      line += '|';
      line += p.genotypes.get(i, 2 * s + 1) ? '1' : '0';
    }
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), f);
  }
  const bool ok = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("write failed: " + path);
  }
}

}  // namespace

void generate(const std::string& workload, std::uint64_t seed,
              const std::string& dir) {
  std::string file;
  if (workload == "vcf-to-tiles") {
    file = dir + "/" + kVcfInput;
    write_vcf(file, lib::simulate_linked(kVcfSnps, 2 * kVcfDiploid, 0.01,
                                         stream_seed(seed, 1)));
  } else if (workload == "dense-matrix") {
    file = dir + "/" + kLdmInput;
    lib::write_ldm(file, lib::simulate_linked(kDenseSnps, kDenseHaplotypes,
                                              0.05, stream_seed(seed, 2))
                             .genotypes);
  } else if (workload == "rare-band") {
    file = dir + "/" + kLdmInput;
    lib::write_ldm(file, lib::simulate_rare(kRareSnps, kRareHaplotypes,
                                            kRareFraction,
                                            stream_seed(seed, 3)));
  } else if (workload == "omega-sweep") {
    file = dir + "/" + kMsInput;
    lib::write_ms(file, lib::simulate_linked(kSweepSnps, kSweepHaplotypes,
                                             0.05, stream_seed(seed, 4)));
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  fsync_path(file);
  fsync_path(dir);
}

}  // namespace e2e
