// Reference ms reader: the oracle the differential test and fuzz_ms hold
// parse_ms to, as vcf_reference.hpp is for parse_vcf.
//
// It is the plain getline algorithm parse_ms used before its block reader:
// std::getline per line, one std::string per haplotype line, a per-character
// bit loop into sample-major rows, an istringstream for segsites and
// positions, then transpose_bits. Its accept/reject decisions, bits,
// positions and ParseError messages define the grammar documented in
// src/io/ms_format.hpp, so any difference from parse_ms is a reader bug.
// One change from that reader: it no longer reserves `segsites` positions
// up front, so a count no line can hold ("segsites: -1" reads as
// 2^64 - 1) is a positions-count ParseError, not a std::length_error or
// std::bad_alloc escaping the parser. Test-only; slow by design.
#pragma once

#include <algorithm>
#include <istream>
#include <sstream>
#include <string>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/bit_transpose.hpp"
#include "io/ms_format.hpp"
#include "util/contract.hpp"

namespace ldla::test {

inline MsReplicate reference_parse_ms_one(std::istream& in) {
  MsReplicate rep;
  std::string line;

  // segsites:
  std::size_t segsites = 0;
  while (std::getline(in, line)) {
    if (line.rfind("segsites:", 0) == 0) {
      std::istringstream ss(line.substr(9));
      if (!(ss >> segsites)) throw ParseError("ms: bad segsites line");
      break;
    }
    if (!line.empty() && line != "//") {
      throw ParseError("ms: expected 'segsites:', got '" + line + "'");
    }
  }
  if (segsites == 0) return rep;  // empty replicate is legal

  // positions:
  if (!std::getline(in, line) || line.rfind("positions:", 0) != 0) {
    throw ParseError("ms: expected 'positions:' line");
  }
  {
    std::istringstream ss(line.substr(10));
    double p;
    while (ss >> p) rep.positions.push_back(p);
    if (rep.positions.size() != segsites) {
      throw ParseError("ms: positions count (" +
                       std::to_string(rep.positions.size()) +
                       ") != segsites (" + std::to_string(segsites) + ")");
    }
  }

  // haplotype rows until blank line / EOF / next replicate.
  std::vector<std::string> haps;
  while (std::getline(in, line)) {
    if (line.empty()) break;
    if (line == "//") {
      throw ParseError("ms: replicate separator inside haplotype block");
    }
    if (line.size() != segsites) {
      throw ParseError("ms: haplotype length " + std::to_string(line.size()) +
                       " != segsites " + std::to_string(segsites));
    }
    haps.push_back(line);
  }
  if (haps.empty()) throw ParseError("ms: replicate has no haplotypes");

  // Pack each haplotype line into a sample-major row, then transpose the
  // whole block into the SNP-major layout in 64x64 word blocks.
  BitMatrix sample_major(haps.size(), segsites);
  for (std::size_t h = 0; h < haps.size(); ++h) {
    const std::string& row = haps[h];
    std::uint64_t* dst = sample_major.row_data(h);
    for (std::size_t w = 0; w < sample_major.words_per_snp(); ++w) {
      std::uint64_t word = 0;
      const std::size_t limit = std::min<std::size_t>(64, segsites - w * 64);
      for (std::size_t b = 0; b < limit; ++b) {
        const char c = row[w * 64 + b];
        if (c == '1') {
          word |= std::uint64_t{1} << b;
        } else if (c != '0') {
          throw ParseError(std::string("ms: invalid character '") + c +
                           "' in haplotype " + std::to_string(h));
        }
      }
      dst[w] = word;
    }
  }
  rep.genotypes = transpose_bits(sample_major);
  return rep;
}

inline std::vector<MsReplicate> reference_parse_ms(std::istream& in) {
  std::vector<MsReplicate> reps;
  std::string line;
  // Skip the command/seed header up to the first "//".
  while (std::getline(in, line)) {
    if (line == "//") {
      reps.push_back(reference_parse_ms_one(in));
    }
  }
  if (reps.empty()) throw ParseError("ms: no replicates ('//' blocks) found");
  return reps;
}

}  // namespace ldla::test
