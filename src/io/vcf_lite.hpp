// Minimal VCF reader for phased haplotype data (the 1000-Genomes-style
// input of the paper's Dataset A).
//
// Accepted grammar (anything else is a ParseError, or a dropped site where
// noted):
//   - Lines end in '\n'; the last line may lack it. Empty lines are skipped.
//     There is no CR handling: a "\r\n" line keeps its '\r' as data, and
//     a record line ending in '\r' has an unsupported genotype, whether
//     its last sample field is a bare GT or carries ':'-subfields.
//   - Lines starting with '#' are skipped anywhere; one starting with
//     "#CHROM" must come before the first record.
//   - A record has at least 10 tab-separated columns (fewer is an error).
//     POS (column 2) is one or more ASCII digits that fit in a u64; ID
//     (column 3) is kept verbatim; ALT (column 5) may not contain ','.
//   - Each sample column's GT is its first ':'-separated subfield: alleles
//     '0' or '1' joined by '|', any ploidy ("1", "0|1", "1|0|1"). Unphased
//     '/', missing '.', other alleles and a dangling separator ("0|") are
//     unsupported.
//   - Every kept record has the same haplotype count (the sum of the
//     ploidies); a record that differs is an error.
// An unsupported site (a ',' in ALT or an unsupported GT) raises ParseError
// unless `skip_invalid` is set, in which case it is dropped and counted in
// `skipped`. Checks run in this order per record: column count, genotypes,
// haplotype count, POS.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/bit_matrix.hpp"

namespace ldla {

struct VcfData {
  BitMatrix genotypes;                 ///< SNP-major haplotype matrix
  std::vector<std::uint64_t> positions;  ///< POS column per kept SNP
  std::vector<std::string> ids;          ///< ID column per kept SNP
  std::size_t skipped = 0;               ///< sites dropped (skip_invalid)
};

VcfData parse_vcf(std::istream& in, bool skip_invalid = false);
VcfData parse_vcf_file(const std::string& path, bool skip_invalid = false);

}  // namespace ldla
