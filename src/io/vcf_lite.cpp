#include "io/vcf_lite.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <string_view>

#include "io/detail/line_reader.hpp"
#include "util/contract.hpp"
#include "util/trace.hpp"

namespace ldla {

namespace {

// decode_genotypes result for a field outside the grammar.
constexpr std::size_t kInvalidGenotype =
    std::numeric_limits<std::size_t>::max();

// The 4-byte field "a|b\t" read as a little-endian u32 with both allele
// bits cleared: '0' '|' '0' '\t'.
constexpr std::uint32_t kPhasedPairMask = 0xFFFEFFFEu;
constexpr std::uint32_t kPhasedPair = 0x09307C30u;
static_assert(std::endian::native == std::endian::little,
              "the phased-pair pattern assumes little-endian loads");

// Packs allele bits into `row` (cleared first) as 64-bit words, low bit
// first — the BitMatrix row layout.
class RowPacker {
 public:
  explicit RowPacker(std::vector<std::uint64_t>& row) : row_(row) {
    row_.clear();
  }

  void put(std::uint64_t bit) {
    acc_ |= bit << n_;
    if (++n_ == 64) flush();
  }

  // Two alleles, the first in bit 0 of `pair`, the second in bit 1.
  void put_pair(std::uint64_t pair) {
    if (n_ <= 62) {
      acc_ |= pair << n_;
      n_ += 2;
      if (n_ == 64) flush();
    } else {  // the pair straddles a word edge
      put(pair & 1u);
      put(pair >> 1);
    }
  }

  // Stores the partial last word; returns the allele count.
  std::size_t finish() {
    const std::size_t bits = row_.size() * 64 + n_;
    if (n_ != 0) flush();
    return bits;
  }

 private:
  void flush() {
    row_.push_back(acc_);
    acc_ = 0;
    n_ = 0;
  }

  std::vector<std::uint64_t>& row_;
  std::uint64_t acc_ = 0;
  unsigned n_ = 0;
};

// Decodes the sample columns [p, end) of one record into `row`. Returns the
// haplotype count, or kInvalidGenotype when a GT is outside the grammar.
std::size_t decode_genotypes(const char* p, const char* end,
                             std::vector<std::uint64_t>& row) {
  RowPacker bits(row);
  for (;;) {
    // Fast path: whole "a|b\t" fields, the shape of a phased diploid panel.
    while (end - p >= 4) {
      std::uint32_t v = 0;
      std::memcpy(&v, p, sizeof v);
      if ((v & kPhasedPairMask) != kPhasedPair) break;
      bits.put_pair((v & 1u) | ((v >> 15) & 2u));
      p += 4;
    }
    // General path, one field: alleles joined by '|', then optional
    // ':'-subfields, then '\t' or the end of the line.
    for (;;) {
      if (p == end || (*p != '0' && *p != '1')) return kInvalidGenotype;
      bits.put(static_cast<std::uint64_t>(*p - '0'));
      ++p;
      if (p == end || *p == '\t' || *p == ':') break;
      if (*p != '|') return kInvalidGenotype;
      ++p;
    }
    if (p != end && *p == ':') {
      const void* tab = std::memchr(p, '\t', static_cast<std::size_t>(end - p));
      if (tab == nullptr) {
        // A CRLF line keeps its '\r' in the last field; a bare GT fails
        // on it above, and a record ending in subfields fails here alike.
        if (end[-1] == '\r') return kInvalidGenotype;
        return bits.finish();
      }
      p = static_cast<const char*>(tab);
    }
    if (p == end) return bits.finish();
    ++p;  // the '\t' before the next field
  }
}

// POS: one or more ASCII digits whose value fits in a u64.
std::uint64_t parse_pos(std::string_view text) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const auto bad = [&] {
    return ParseError("vcf: bad POS '" + std::string(text) + "'");
  };
  if (text.empty()) throw bad();
  std::uint64_t pos = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') throw bad();
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (pos > (kMax - digit) / 10) throw bad();
    pos = pos * 10 + digit;
  }
  return pos;
}

// Per-line record decoder. Accepted rows go to `words_`, ⌈haplotypes/64⌉
// words each, until finish() copies them into the BitMatrix.
class Decoder {
 public:
  explicit Decoder(bool skip_invalid) : skip_invalid_(skip_invalid) {}

  // One line without its '\n'.
  void line(const char* begin, const char* end) {
    if (begin == end) return;
    if (*begin == '#') {
      constexpr std::string_view kHeader = "#CHROM";
      if (static_cast<std::size_t>(end - begin) >= kHeader.size() &&
          std::memcmp(begin, kHeader.data(), kHeader.size()) == 0) {
        saw_header_ = true;
      }
      return;
    }
    if (!saw_header_) throw ParseError("vcf: record before #CHROM header");

    // col[c] is the first byte of column c; columns 0-8 end at a tab.
    std::array<const char*, 10> col{};
    col[0] = begin;
    for (std::size_t c = 1; c < 10; ++c) {
      const void* tab = std::memchr(col[c - 1], '\t',
                                    static_cast<std::size_t>(end - col[c - 1]));
      if (tab == nullptr) {
        throw ParseError("vcf: record has fewer than 10 columns");
      }
      col[c] = static_cast<const char*>(tab) + 1;
    }
    const auto column = [&](std::size_t c) {  // c < 9: ends before a tab
      const char* last = col[c + 1] - 1;
      return std::string_view(col[c], static_cast<std::size_t>(last - col[c]));
    };
    const std::string_view pos = column(1);
    const std::string_view alt = column(4);

    const bool biallelic = alt.find(',') == std::string_view::npos;
    const std::size_t n =
        biallelic ? decode_genotypes(col[9], end, row_) : kInvalidGenotype;
    if (n == kInvalidGenotype) {
      if (skip_invalid_) {
        ++out_.skipped;
        return;
      }
      throw ParseError("vcf: unsupported genotype at POS " + std::string(pos));
    }
    if (haplotypes_ == 0) {
      haplotypes_ = n;
    } else if (n != haplotypes_) {
      throw ParseError("vcf: inconsistent haplotype count at POS " +
                       std::string(pos));
    }
    out_.positions.push_back(parse_pos(pos));
    out_.ids.emplace_back(column(2));
    words_.insert(words_.end(), row_.begin(), row_.end());
  }

  VcfData finish() && {
    const std::size_t snps = out_.positions.size();
    if (snps > 0) {
      BitMatrix g(snps, haplotypes_);
      const std::size_t n_words = g.words_per_snp();
      for (std::size_t s = 0; s < snps; ++s) {
        std::memcpy(g.row_data(s), words_.data() + s * n_words,
                    n_words * sizeof(std::uint64_t));
      }
      out_.genotypes = std::move(g);
    }
    return std::move(out_);
  }

 private:
  bool skip_invalid_;
  bool saw_header_ = false;
  std::size_t haplotypes_ = 0;
  VcfData out_;
  std::vector<std::uint64_t> row_;    // the record being decoded
  std::vector<std::uint64_t> words_;  // accepted rows, back to back
};

}  // namespace

VcfData parse_vcf(std::istream& in, bool skip_invalid) {
  LDLA_TRACE_SPAN(kIo);
  Decoder decoder(skip_invalid);
  detail::for_each_line(in, [&](const char* begin, const char* end) {
    decoder.line(begin, end);
  });
  return std::move(decoder).finish();
}

VcfData parse_vcf_file(const std::string& path, bool skip_invalid) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open VCF file: " + path);
  return parse_vcf(in, skip_invalid);
}

}  // namespace ldla
