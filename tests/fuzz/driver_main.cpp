// Standalone driver for the fuzz harnesses, used when the toolchain lacks
// libFuzzer (e.g. GCC builds). Two phases:
//
//   1. Replay: every file in the given corpus files/directories is fed to
//      LLVMFuzzerTestOneInput verbatim — a deterministic regression gate.
//   2. Mutation smoke: a fixed-seed PRNG applies byte-level mutations to
//      corpus inputs for a bounded number of rounds, approximating a short
//      fuzz session reproducibly. Even rounds may change the length
//      (replace / insert / erase / truncate / duplicate); odd rounds keep
//      it (replace / bit flip), so fixed-size formats, whose headers
//      record the file size, get past their size checks to their content
//      checks.
//
// Usage: fuzz_<target> [--rounds N] [--seed S] <corpus file or dir>...
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "fuzz_target.hpp"

namespace {

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open corpus input: %s\n",
                 path.string().c_str());
    std::exit(2);
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void collect_inputs(const std::filesystem::path& path,
                    std::vector<std::filesystem::path>& out) {
  if (std::filesystem::is_directory(path)) {
    std::vector<std::filesystem::path> entries;
    for (const auto& e : std::filesystem::directory_iterator(path)) {
      if (e.is_regular_file()) entries.push_back(e.path());
    }
    // Directory iteration order is unspecified; sort for reproducibility.
    std::sort(entries.begin(), entries.end());
    out.insert(out.end(), entries.begin(), entries.end());
  } else {
    out.push_back(path);
  }
}

void mutate(std::vector<std::uint8_t>& bytes, std::mt19937_64& rng,
            bool keep_length) {
  const std::size_t edits = 1 + rng() % 8;
  for (std::size_t e = 0; e < edits; ++e) {
    if (keep_length) {
      if (bytes.empty()) return;
      std::uint8_t& b = bytes[rng() % bytes.size()];
      if (rng() % 2 == 0) {  // replace one byte
        b = static_cast<std::uint8_t>(rng());
      } else {  // flip one bit
        b ^= static_cast<std::uint8_t>(1u << (rng() % 8));
      }
      continue;
    }
    const std::uint64_t op = bytes.empty() ? 1 : rng() % 5;
    switch (op) {
      case 0:  // replace one byte
        bytes[rng() % bytes.size()] = static_cast<std::uint8_t>(rng());
        break;
      case 1:  // insert one byte
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                         rng() % (bytes.size() + 1)),
                     static_cast<std::uint8_t>(rng()));
        break;
      case 2:  // erase one byte
        bytes.erase(bytes.begin() +
                    static_cast<std::ptrdiff_t>(rng() % bytes.size()));
        break;
      case 3:  // truncate
        bytes.resize(rng() % (bytes.size() + 1));
        break;
      default: {  // duplicate a slice
        const std::size_t from = rng() % bytes.size();
        const std::size_t len =
            std::min<std::size_t>(1 + rng() % 16, bytes.size() - from);
        bytes.insert(bytes.end(), bytes.begin() + static_cast<std::ptrdiff_t>(from),
                     bytes.begin() + static_cast<std::ptrdiff_t>(from + len));
        break;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rounds = 256;
  std::uint64_t seed = 0x1d1aF022ULL;
  std::vector<std::filesystem::path> inputs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      collect_inputs(argv[i], inputs);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "usage: %s [--rounds N] [--seed S] <corpus>...\n",
                 argv[0]);
    return 2;
  }

  std::vector<std::vector<std::uint8_t>> corpus;
  corpus.reserve(inputs.size());
  for (const auto& path : inputs) {
    corpus.push_back(read_file(path));
    LLVMFuzzerTestOneInput(corpus.back().data(), corpus.back().size());
  }
  std::printf("replayed %zu corpus inputs\n", corpus.size());

  std::mt19937_64 rng(seed);
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<std::uint8_t> bytes = corpus[rng() % corpus.size()];
    mutate(bytes, rng, /*keep_length=*/r % 2 == 1);
    LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
  }
  std::printf("ran %zu mutation rounds (seed %llu)\n", rounds,
              static_cast<unsigned long long>(seed));
  return 0;
}
