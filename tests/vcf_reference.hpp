// Reference VCF reader: the oracle the differential test holds parse_vcf to,
// in the role baselines/naive plays for the GEMM kernels.
//
// It is the plain line-and-column algorithm: std::getline per line, one
// std::string per column, one '0'/'1' string per SNP, then
// BitMatrix::from_snp_strings. It implements the grammar documented in
// src/io/vcf_lite.hpp and throws the same ParseError messages, so any
// difference from parse_vcf — bits, positions, ids, skipped count or error
// text — is a decoder bug. Test-only; slow by design.
#pragma once

#include <istream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bit_matrix.hpp"
#include "io/vcf_lite.hpp"
#include "util/contract.hpp"

namespace ldla::test {

inline std::vector<std::string> reference_split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

// Appends the haplotype alleles of one sample field ("0|1", "1", "1|0:7")
// to `row`. Returns false when its GT is outside the grammar: an allele
// other than 0/1, a separator other than '|', or a dangling separator.
inline bool reference_append_gt(const std::string& field, std::string& row) {
  const std::string gt = field.substr(0, field.find(':'));
  std::size_t i = 0;
  while (i < gt.size()) {
    const char c = gt[i];
    if (c != '0' && c != '1') return false;
    row.push_back(c);
    ++i;
    if (i < gt.size()) {
      if (gt[i] != '|') return false;
      ++i;
      if (i == gt.size()) return false;  // "0|" names no second allele
    }
  }
  return !gt.empty();
}

// POS: ASCII digits only, and the value must fit in a u64.
inline std::uint64_t reference_pos(const std::string& text) {
  const ParseError bad("vcf: bad POS '" + text + "'");
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    throw bad;
  }
  try {
    return std::stoull(text);
  } catch (const std::out_of_range&) {
    throw bad;
  }
}

inline VcfData reference_parse_vcf(std::istream& in, bool skip_invalid) {
  VcfData out;
  std::vector<std::string> snp_rows;
  std::string line;
  bool saw_header = false;
  std::size_t haplotypes = 0;

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("#CHROM", 0) == 0) saw_header = true;
      continue;
    }
    if (!saw_header) throw ParseError("vcf: record before #CHROM header");

    const std::vector<std::string> cols = reference_split_tabs(line);
    if (cols.size() < 10) {
      throw ParseError("vcf: record has fewer than 10 columns");
    }
    std::string row;
    // Biallelic only, and no CRLF line: its '\r' would end the last field.
    bool ok = cols[4].find(',') == std::string::npos && line.back() != '\r';
    for (std::size_t c = 9; c < cols.size() && ok; ++c) {
      ok = reference_append_gt(cols[c], row);
    }
    if (!ok) {
      if (skip_invalid) {
        ++out.skipped;
        continue;
      }
      throw ParseError("vcf: unsupported genotype at POS " + cols[1]);
    }
    if (haplotypes == 0) {
      haplotypes = row.size();
    } else if (row.size() != haplotypes) {
      throw ParseError("vcf: inconsistent haplotype count at POS " + cols[1]);
    }
    out.positions.push_back(reference_pos(cols[1]));
    out.ids.push_back(cols[2]);
    snp_rows.push_back(std::move(row));
  }

  out.genotypes = BitMatrix::from_snp_strings(snp_rows);
  return out;
}

}  // namespace ldla::test
