#include "io/ms_format.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string_view>

#include "core/bit_transpose.hpp"
#include "io/detail/line_reader.hpp"
#include "util/contract.hpp"
#include "util/trace.hpp"

namespace ldla {

namespace {

// Eight haplotype characters read as a little-endian u64: clearing bit 0
// of every byte leaves "00000000" exactly when each byte is '0' or '1'.
constexpr std::uint64_t kByteLowBits = 0x0101010101010101u;
constexpr std::uint64_t kAllZeroChars = 0x3030303030303030u;
// Multiplying the low bits of the eight bytes by this moves byte i's bit
// to bit 56 + i; no two partial products share a bit, so nothing carries.
constexpr std::uint64_t kGatherLowBits = 0x0102040810204080u;
static_assert(std::endian::native == std::endian::little,
              "the 8-character step assumes little-endian loads");

// The whitespace `istream >> x` skips in the classic locale, but '\n',
// which no line holds.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

// Appends the whitespace-separated numbers of `text` to `out` when every
// token is a finite decimal that std::from_chars reads whole (it takes no
// '+' sign) — the tokens on which it and `istream >> double` agree.
// Returns false on any other token; `out` then holds a partial parse.
bool parse_plain_doubles(std::string_view text, std::vector<double>& out) {
  const char* p = text.data();
  const char* const end = p + text.size();
  for (;;) {
    while (p != end && is_space(*p)) ++p;
    if (p == end) return true;
    double v = 0;
    const std::from_chars_result r = std::from_chars(p, end, v);
    if (r.ec != std::errc{} || !std::isfinite(v) ||
        (r.ptr != end && !is_space(*r.ptr))) {
      return false;
    }
    out.push_back(v);
    p = r.ptr;
  }
}

// Line-at-a-time ms reader over detail::for_each_line. Haplotype rows are
// packed eight characters per step into sample-major rows of ⌈segsites/64⌉
// words, back to back, and transposed into the SNP-major BitMatrix when the
// block ends. The checks and their order are those of the getline reader
// this replaced (tests/ms_reference.hpp): a bad character is reported only
// after the block's lines have passed the separator and length checks, so
// the first one found is kept until then.
class Reader {
 public:
  void line(const char* begin, const char* end) {
    const std::string_view text(begin, static_cast<std::size_t>(end - begin));
    switch (state_) {
      case State::kHeader:
        if (text == "//") state_ = State::kSegsites;
        return;
      case State::kSegsites:
        if (text.starts_with("segsites:")) {
          segsites_ = parse_segsites(text.substr(9));
          if (segsites_ == 0) {  // an empty replicate is legal
            reps_.emplace_back();
            state_ = State::kHeader;
          } else {
            state_ = State::kPositions;
          }
          return;
        }
        if (!text.empty() && text != "//") {
          throw ParseError("ms: expected 'segsites:', got '" +
                           std::string(text) + "'");
        }
        return;
      case State::kPositions:
        if (!text.starts_with("positions:")) {
          throw ParseError("ms: expected 'positions:' line");
        }
        parse_positions(text.substr(10));
        n_words_ = (segsites_ + 63) / 64;
        haplotypes_ = 0;
        words_.clear();
        bad_ = false;
        state_ = State::kHaplotypes;
        return;
      case State::kHaplotypes:
        if (text.empty()) {
          end_block();
        } else if (text == "//") {
          throw ParseError("ms: replicate separator inside haplotype block");
        } else if (text.size() != segsites_) {
          throw ParseError("ms: haplotype length " +
                           std::to_string(text.size()) + " != segsites " +
                           std::to_string(segsites_));
        } else {
          pack_row(begin);
        }
        return;
    }
  }

  std::vector<MsReplicate> finish() && {
    switch (state_) {
      case State::kHeader:
        break;
      case State::kSegsites:  // "//" then no segsites line
        reps_.emplace_back();
        break;
      case State::kPositions:
        throw ParseError("ms: expected 'positions:' line");
      case State::kHaplotypes:
        end_block();
        break;
    }
    return std::move(reps_);
  }

 private:
  enum class State { kHeader, kSegsites, kPositions, kHaplotypes };

  static std::size_t parse_segsites(std::string_view text) {
    std::size_t i = 0;
    while (i < text.size() && is_space(text[i])) ++i;
    std::size_t n = 0;
    if (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      const char* const end = text.data() + text.size();
      if (std::from_chars(text.data() + i, end, n).ec != std::errc{}) {
        throw ParseError("ms: bad segsites line");
      }
      return n;
    }
    // A sign or no digit: the stream extraction's own rules decide.
    std::istringstream ss{std::string(text)};
    if (!(ss >> n)) throw ParseError("ms: bad segsites line");
    return n;
  }

  void parse_positions(std::string_view text) {
    // A count the line cannot hold ("-1" reads as 2^64 - 1) fails the
    // count check below; it must not size the allocation.
    rep_.positions.reserve(std::min(segsites_, text.size() / 2 + 1));
    if (!parse_plain_doubles(text, rep_.positions)) {
      // Signs, inf/nan, partial tokens, out-of-range values: read the line
      // as `istream >> double` does, up to the first token it rejects.
      rep_.positions.clear();
      std::istringstream ss{std::string(text)};
      double p = 0;
      while (ss >> p) rep_.positions.push_back(p);
    }
    if (rep_.positions.size() != segsites_) {
      throw ParseError("ms: positions count (" +
                       std::to_string(rep_.positions.size()) +
                       ") != segsites (" + std::to_string(segsites_) + ")");
    }
  }

  // Packs the segsites_ characters at `row` into the next sample-major
  // row, eight characters per step: character c becomes bit c % 64 of
  // word c / 64. Whole words take eight steps and one store; the steps
  // left over and a per-character tail fill the last word.
  void pack_row(const char* row) {
    const std::size_t base = words_.size();
    words_.resize(base + n_words_);
    std::uint64_t* dst = words_.data() + base;
    std::size_t c = 0;
    for (; c + 64 <= segsites_; c += 64) {
      std::uint64_t word = 0;
      std::uint64_t stray = 0;  // nonzero when a character is not 0/1
      for (unsigned k = 0; k < 8; ++k) {
        const std::uint64_t v = load8(row + c + 8 * k);
        stray |= (v & ~kByteLowBits) ^ kAllZeroChars;
        word |= gather8(v) << (8 * k);
      }
      if (stray != 0) note_bad(row + c, 64);
      dst[c / 64] = word;
    }
    if (c < segsites_) {
      std::uint64_t word = 0;
      for (; c + 8 <= segsites_; c += 8) {
        const std::uint64_t v = load8(row + c);
        if ((v & ~kByteLowBits) != kAllZeroChars) note_bad(row + c, 8);
        word |= gather8(v) << (c % 64);
      }
      for (; c < segsites_; ++c) {
        if (row[c] == '1') {
          word |= std::uint64_t{1} << (c % 64);
        } else if (row[c] != '0') {
          note_bad(row + c, 1);
        }
      }
      dst[n_words_ - 1] = word;
    }
    ++haplotypes_;
  }

  static std::uint64_t load8(const char* p) {
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
  }

  // The low bits of the eight bytes of `v` as bits 0-7, byte 0 in bit 0.
  static std::uint64_t gather8(std::uint64_t v) {
    return ((v & kByteLowBits) * kGatherLowBits) >> 56;
  }

  // Remembers the first byte of [p, p + n) that is not '0' or '1', unless
  // an earlier one is already held.
  void note_bad(const char* p, std::size_t n) {
    if (bad_) return;
    for (std::size_t i = 0; i < n; ++i) {
      if (p[i] != '0' && p[i] != '1') {
        bad_ = true;
        bad_char_ = p[i];
        bad_haplotype_ = haplotypes_;
        return;
      }
    }
  }

  void end_block() {
    if (bad_) {
      throw ParseError(std::string("ms: invalid character '") + bad_char_ +
                       "' in haplotype " + std::to_string(bad_haplotype_));
    }
    if (haplotypes_ == 0) throw ParseError("ms: replicate has no haplotypes");
    LDLA_EXPECT(haplotypes_ < (std::uint64_t{1} << 32),
                "transposing would exceed the 2^32 sample limit");
    const BitMatrixView sample_major{words_.data(), haplotypes_, n_words_,
                                     n_words_, segsites_};
    rep_.genotypes = BitMatrix(segsites_, haplotypes_);
    transpose_bits_into(sample_major, rep_.genotypes.row_data(0),
                        rep_.genotypes.stride_words());
    reps_.push_back(std::move(rep_));
    rep_ = MsReplicate{};
    state_ = State::kHeader;
  }

  State state_ = State::kHeader;
  std::vector<MsReplicate> reps_;
  MsReplicate rep_;  // the replicate being read
  std::size_t segsites_ = 0;
  std::size_t n_words_ = 0;     // words per sample-major row
  std::size_t haplotypes_ = 0;  // rows packed into words_
  std::vector<std::uint64_t> words_;
  bool bad_ = false;
  char bad_char_ = 0;
  std::size_t bad_haplotype_ = 0;
};

}  // namespace

std::vector<MsReplicate> parse_ms(std::istream& in) {
  LDLA_TRACE_SPAN(kIo);
  Reader reader;
  detail::for_each_line(in, [&](const char* begin, const char* end) {
    reader.line(begin, end);
  });
  std::vector<MsReplicate> reps = std::move(reader).finish();
  if (reps.empty()) throw ParseError("ms: no replicates ('//' blocks) found");
  return reps;
}

std::vector<MsReplicate> parse_ms_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open ms file: " + path);
  return parse_ms(in);
}

void write_ms(std::ostream& out, const MsReplicate& rep) {
  LDLA_TRACE_SPAN(kIo);
  LDLA_EXPECT(rep.positions.size() == rep.genotypes.snps(),
              "positions/SNP count mismatch");
  out << "ldla " << rep.genotypes.samples() << " 1\n0 0 0\n\n//\n";
  out << "segsites: " << rep.genotypes.snps() << "\n";
  // max_digits10 so positions survive a write/parse round trip exactly.
  out << std::setprecision(17);
  out << "positions:";
  for (const double p : rep.positions) out << ' ' << p;
  out << "\n";
  const BitMatrix sample_major = transpose_bits(rep.genotypes);
  for (std::size_t h = 0; h < sample_major.snps(); ++h) {
    out << sample_major.snp_string(h) << "\n";
  }
  out << "\n";
}

void write_ms_file(const std::string& path, const MsReplicate& rep) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open ms file for writing: " + path);
  write_ms(out, rep);
}

}  // namespace ldla
