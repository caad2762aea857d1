// Hudson `ms` coalescent-simulator output format — the lingua franca of
// population-genetics tooling (OmegaPlus consumes it directly).
//
// Layout of one replicate:
//
//   //
//   segsites: <n>
//   positions: <p1> <p2> ... <pn>      (fractions of the region, sorted)
//   <haplotype line 1: n chars of 0/1>   (one line per sample)
//   ...
//
// ms stores samples as rows and SNPs as columns; parsing transposes into
// this library's SNP-major BitMatrix.
//
// Accepted grammar (anything else is a ParseError):
//   - Lines end in '\n'; the last line may lack it. There is no CR
//     handling: a '\r' is data, so "//\r" is not a separator and a CRLF
//     haplotype line is one character too long.
//   - Lines before the first line that is exactly "//" are skipped, and so
//     are the lines between a replicate's end and the next "//".
//   - After "//", empty lines and further "//" lines are skipped up to a
//     line starting "segsites:"; any other line is an error. The count is
//     read as `istream >> std::size_t` reads it (leading whitespace skipped,
//     trailing text ignored); one that does not parse is an error. A count
//     of 0, or "//" at the end of the input, is an empty replicate, and the
//     lines after it are skipped up to the next "//".
//   - The next line must start "positions:". Its whitespace-separated
//     numbers are read as `istream >> double` reads them, up to the first
//     token that does not parse; their count must equal segsites.
//   - Haplotype lines follow, up to an empty line or the end of the input;
//     there must be at least one. A "//" line among them is an error, and
//     so is a line whose length is not segsites.
//   - Every haplotype character is '0' or '1'. The first other one, in
//     line order, is reported only when the block's lines have all passed
//     the two checks above.
// The checks run in this order per replicate: segsites, positions,
// haplotype lines (separator, length), characters, haplotype count.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/bit_matrix.hpp"

namespace ldla {

struct MsReplicate {
  BitMatrix genotypes;            ///< SNP-major
  std::vector<double> positions;  ///< one per SNP, in [0, 1]
};

/// Parse every replicate in a stream; throws ParseError on malformed input.
std::vector<MsReplicate> parse_ms(std::istream& in);

/// Parse a file (convenience; throws on I/O failure too).
std::vector<MsReplicate> parse_ms_file(const std::string& path);

/// Serialize one replicate in ms format (with a leading "ldla" command
/// line and "//" separator so standard tools accept it).
void write_ms(std::ostream& out, const MsReplicate& rep);
void write_ms_file(const std::string& path, const MsReplicate& rep);

}  // namespace ldla
