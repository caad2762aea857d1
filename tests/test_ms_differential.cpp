// Differential test of the ms block reader (parse_ms) against the getline
// reference in ms_reference.hpp, on seeded random ms files and on inputs
// built around the reader's 8-character steps, its read-block edges and
// the number forms on which std::from_chars and `istream >> double`
// differ. Both readers must agree on the packed words (padding included)
// and the positions bit for bit, or throw the same message.
#include <array>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/ms_format.hpp"
#include "ms_reference.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

// parse_ms's read size (detail::kLineBlockBytes in
// src/io/detail/line_reader.hpp); the edge tests place line ends around
// multiples of it.
constexpr std::size_t kReadBlock = std::size_t{1} << 20;

struct Outcome {
  bool threw = false;
  std::string what;
  std::vector<MsReplicate> reps;
};

template <class Parse>
Outcome run(Parse parse, const std::string& text) {
  Outcome o;
  std::istringstream in(text);
  try {
    o.reps = parse(in);
  } catch (const Error& e) {
    o.threw = true;
    o.what = e.what();
  }
  return o;
}

// The ParseError kinds of ms_format.hpp's grammar, by message prefix.
constexpr std::array<const char*, 9> kErrorKinds = {
    "ms: no replicates",
    "ms: expected 'segsites:'",
    "ms: bad segsites line",
    "ms: expected 'positions:' line",
    "ms: positions count",
    "ms: replicate separator inside haplotype block",
    "ms: haplotype length",
    "ms: replicate has no haplotypes",
    "ms: invalid character",
};

struct Tally {
  std::size_t inputs = 0;
  std::size_t accepted = 0;
  std::array<std::size_t, kErrorKinds.size()> rejected{};
};

// Parses `text` with both readers and requires identical results; returns
// whether they accepted it.
bool expect_same(const std::string& text, Tally* tally = nullptr) {
  const Outcome got = run([](std::istream& in) { return parse_ms(in); }, text);
  const Outcome want = run(
      [](std::istream& in) { return test::reference_parse_ms(in); }, text);
  EXPECT_EQ(got.threw, want.threw)
      << "reader: " << got.what << "\nreference: " << want.what;
  if (got.threw != want.threw) return false;
  if (tally != nullptr) {
    ++tally->inputs;
    if (!got.threw) ++tally->accepted;
    for (std::size_t k = 0; got.threw && k < kErrorKinds.size(); ++k) {
      if (got.what.rfind(kErrorKinds[k], 0) == 0) ++tally->rejected[k];
    }
  }
  if (got.threw) {
    EXPECT_EQ(got.what, want.what);
    return false;
  }
  EXPECT_EQ(got.reps.size(), want.reps.size());
  for (std::size_t r = 0; r < got.reps.size() && r < want.reps.size(); ++r) {
    SCOPED_TRACE("replicate " + std::to_string(r));
    const BitMatrix& g = got.reps[r].genotypes;
    const BitMatrix& w = want.reps[r].genotypes;
    EXPECT_EQ(g.snps(), w.snps());
    EXPECT_EQ(g.samples(), w.samples());
    EXPECT_EQ(g.stride_words(), w.stride_words());
    if (g.snps() != w.snps() || g.stride_words() != w.stride_words()) continue;
    EXPECT_TRUE(g.padding_is_clean());
    for (std::size_t s = 0; s < g.snps(); ++s) {
      EXPECT_EQ(std::memcmp(g.row_data(s), w.row_data(s),
                            g.stride_words() * sizeof(std::uint64_t)),
                0)
          << "SNP " << s;
    }
    const std::vector<double>& gp = got.reps[r].positions;
    const std::vector<double>& wp = want.reps[r].positions;
    EXPECT_EQ(gp.size(), wp.size());
    if (gp.size() == wp.size() && !gp.empty()) {
      EXPECT_EQ(std::memcmp(gp.data(), wp.data(), gp.size() * sizeof(double)),
                0);
    }
  }
  return true;
}

// One replicate block: "//", segsites, positions and `samples` haplotype
// lines of '0'/'1', each line ended by `eol`, then an empty line.
std::string replicate(std::size_t segsites, std::size_t samples, Rng& rng,
                      const char* eol = "\n") {
  std::string out = std::string("//") + eol + "segsites: " +
                    std::to_string(segsites) + eol + "positions:";
  for (std::size_t i = 0; i < segsites; ++i) {
    char num[32];
    std::snprintf(num, sizeof num, " %.*g",
                  1 + static_cast<int>(rng.next_below(17)), rng.next_double());
    out += num;
  }
  out += eol;
  for (std::size_t h = 0; h < samples; ++h) {
    for (std::size_t i = 0; i < segsites; ++i) {
      out += rng.next_bool(0.3) ? '1' : '0';
    }
    out += eol;
  }
  return out + eol;
}

// Seeded random ms text. Most files are valid; the rest carry a few
// faults, each one a rule of the grammar in ms_format.hpp.
class MsWriter {
 public:
  explicit MsWriter(std::uint64_t seed) : rng_(seed) {}

  std::string file(std::size_t segsites, std::size_t samples) {
    fault_rate_ = std::array<double, 3>{0.0, 0.002, 0.02}[rng_.next_below(3)];
    std::string out = "ms " + std::to_string(samples) + " 3 -s " +
                      std::to_string(segsites) + "\n1 2 3\n\n";
    if (fault()) out = "";  // no header at all
    const std::size_t reps = 1 + rng_.next_below(3);
    for (std::size_t r = 0; r < reps; ++r) {
      if (chance(0.08)) {
        out += "//\nsegsites: 0\n";
        if (chance(0.5)) out += "positions: junk after an empty replicate\n";
        out += "\n";
        continue;
      }
      out += block(segsites, samples);
      if (r + 1 < reps || !chance(0.3)) out += "\n";  // replicates' gap
    }
    if (chance(0.1) && !out.empty() && out.back() == '\n') out.pop_back();
    if (chance(0.02)) out = "no replicate separator here\n";
    return out;
  }

 private:
  bool chance(double p) { return rng_.next_bool(p); }
  bool fault() { return fault_rate_ > 0 && chance(fault_rate_ * 10); }
  bool row_fault() { return fault_rate_ > 0 && chance(fault_rate_); }

  std::string eol() { return row_fault() ? "\r\n" : "\n"; }

  std::string segsites_line(std::size_t n) {
    if (fault()) {
      static const char* const kBad[] = {
          "segsites:", "segsites: x", "segsites: -1", "segsites:\t+",
          "segsites: 99999999999999999999", " segsites: 3", "Segsites: 3",
          "segsites: 18446744073709551616"};
      return kBad[rng_.next_below(std::size(kBad))];
    }
    static const char* const kForms[] = {"segsites: ", "segsites:",
                                         "segsites: \t", "segsites: +"};
    std::string line = kForms[rng_.next_below(std::size(kForms))];
    line += std::to_string(n);
    if (chance(0.1)) line += " trailing text";
    return line;
  }

  std::string positions_line(std::size_t n) {
    std::string line = "positions:";
    std::size_t count = n;
    if (fault()) count = rng_.next_bool(0.5) ? n + 1 : n - 1;
    for (std::size_t i = 0; i < count; ++i) {
      line += chance(0.05) ? "\t" : " ";
      if (row_fault()) {
        static const char* const kOdd[] = {"+0.5", "inf", "nan", "1e",
                                           "-0",   "1e-400", ".5", "5.",
                                           "0x1p3", "1.5.2", "-inf", "7e2x"};
        line += kOdd[rng_.next_below(std::size(kOdd))];
        continue;
      }
      char num[32];
      std::snprintf(num, sizeof num, "%.*g",
                    1 + static_cast<int>(rng_.next_below(17)),
                    rng_.next_double());
      line += num;
    }
    if (chance(0.05)) line += " ";
    return line;
  }

  std::string row(std::size_t n) {
    std::string r(n, '0');
    for (char& c : r) c = chance(0.4) ? '1' : '0';
    if (row_fault()) {
      static const char kBad[] = {'2', '/', 'a', ' ', '\r', '\0',
                                  'O', 'p', '\xb0', '\xb1', '\x10'};
      r[rng_.next_below(n)] = kBad[rng_.next_below(std::size(kBad))];
    }
    if (row_fault()) {
      if (chance(0.5)) {
        r.pop_back();
      } else {
        r += '1';
      }
    }
    return r;
  }

  std::string block(std::size_t segsites, std::size_t samples) {
    std::string out = "//" + eol();
    if (chance(0.05)) out += "\n//\n";  // skipped before segsites
    out += segsites_line(segsites) + eol();
    if (!fault()) out += positions_line(segsites) + eol();
    for (std::size_t h = 0; h < samples; ++h) {
      if (row_fault()) out += chance(0.5) ? "//\n" : "\n";
      out += row(segsites) + eol();
    }
    return out;
  }

  Rng rng_;
  double fault_rate_ = 0;
};

TEST(MsDifferential, SeededRandomFiles) {
  constexpr std::array<std::size_t, 8> kSegsites = {1,  7,  8,  9,
                                                    63, 64, 65, 20000};
  constexpr std::array<std::size_t, 4> kSamples = {1, 63, 64, 65};
  Tally tally;
  std::uint64_t seed = 0;
  for (const std::size_t segsites : kSegsites) {
    for (const std::size_t samples : kSamples) {
      const std::uint64_t files = segsites > 1000 ? 2 : 30;
      for (std::uint64_t f = 0; f < files; ++f, ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ", segsites " +
                     std::to_string(segsites) + ", samples " +
                     std::to_string(samples));
        MsWriter writer(seed);
        expect_same(writer.file(segsites, samples), &tally);
        if (HasFailure()) return;
      }
    }
  }
  std::printf("ms differential: %zu inputs, %zu accepted\n", tally.inputs,
              tally.accepted);
  // Every outcome must occur for the comparison to mean much.
  EXPECT_GT(tally.accepted, tally.inputs / 3);
  for (std::size_t k = 0; k < kErrorKinds.size(); ++k) {
    std::printf("  rejected %4zu: %s...\n", tally.rejected[k], kErrorKinds[k]);
    EXPECT_GT(tally.rejected[k], 0u) << kErrorKinds[k];
  }
}

TEST(MsDifferential, GrammarEdges) {
  const std::vector<std::string> inputs = {
      "",
      "\n",
      "//",
      "//\n",
      "//\n\n//\n\n",
      "//\nsegsites: 0",
      "//\nsegsites: 0\npositions: x\n0\n",
      "//\n//\nsegsites: 2\npositions: 0.1 0.2\n01\n10\n",
      "//\nsegsites: 2\npositions: 0.1 0.2\n01\n10",
      "//\nsegsites: 2\npositions: 0.1 0.2\n01\n10\n\n\n",
      "//\nsegsites: 2\npositions: 0.1 0.2\n",
      "//\nsegsites: 2\npositions: 0.1 0.2\n\n01\n",
      "//\nsegsites: 2\n",
      "//\nsegsites: 2",
      "//\nsegsites: 2\n\npositions: 0.1 0.2\n01\n",
      "//\nsegsites: 2\npositions: 0.1 0.2\n01\n//\n10\n",
      "//\nsegsites: 2\npositions: 0.1 0.2\n01\n\n//\nsegsites: 1\n"
      "positions: 0.5\n1\n",
      "//\nsegsites: 2\npositions: 0.1 0.2\n01\n\n10\n//\nsegsites: 0\n",
      "//\nsegsites: 2\npositions: 0.1 0.2\n0x\n1\n",
      "//\nsegsites: 2\npositions: 0.1 0.2\n0x\n//\n",
      "//\nsegsites: 2\npositions: 0.1 0.2\n0x\n1y\n",
      "//\nfoo\nsegsites: 1\npositions: 0.5\n1\n",
      "//\nsegsites: 1\npositions: 0.5\n\r\n",
      // CRLF: "//\r" is no separator; a '\r' row is one byte long.
      "//\r\nsegsites: 1\r\npositions: 0.5\r\n1\r\n\r\n",
      "//\nsegsites: 1\r\npositions: 0.5\r\n1\r\n\r\n",
      "//\nsegsites: 3\npositions: 0.1 0.2 0.3\r\n010\r\n",
      "//\nsegsites: 1\npositions: 0.5\n1\n\r\n",
      "ms 4 1\n//\nsegsites: 1\npositions: 0.5\n1\n0\n",
      "//\nsegsites:  \t 2\npositions:\t0.1\t0.2\t\n11\n00\n",
      "//\nsegsites: +2\npositions: 0.1 0.2\n11\n00\n",
      "//\nsegsites: -0\npositions: 0.1 0.2\n11\n00\n",
      "//\nsegsites: 2abc\npositions: 0.1 0.2\n11\n00\n",
      "//\nsegsites: 2.9\npositions: 0.1 0.2\n11\n00\n",
      "//\nsegsites: 002\npositions: 0.1 0.2\n11\n00\n",
      "//\nsegsites: \npositions: 0.1 0.2\n11\n00\n",
      "//\nsegsites: x\n",
      "//\nsegsites: 99999999999999999999\n",
      // Counts no positions line can hold must not size an allocation.
      "//\nsegsites: -1\npositions: 0.5\n1\n",
      "//\nsegsites: 18446744073709551615\npositions: 0.5\n1\n",
      "//\nsegsites: 4000000000000000000\npositions: 0.5\n1\n",
      std::string("//\nsegsites: 2\npositions: 0.1 0.2\n1\0\n00\n", 40),
  };
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    expect_same(inputs[i]);
  }
}

TEST(MsDifferential, PositionTokens) {
  // Tokens where from_chars and `istream >> double` part ways, alone, in
  // the middle and at the end, against segsites that do and do not match
  // what the stream reads.
  const std::vector<std::string> tokens = {
      "+0.5",  "inf",   "nan",    "-inf",  "1e",      "1e+",   "1e-400",
      "1e400", "-1e400", "0x1p3", ".5",    "5.",      "-.5",   "1.5.2",
      "1-2",   "0.5abc", "-0",    "1E5",   "4.9e-324", "007.5", "1e5e5",
      "\t",    "\v0.5\f", "",     "e5",    "-",       ".",     "2.5e-310"};
  std::size_t accepted = 0;
  for (const std::string& token : tokens) {
    for (const std::string& line :
         {token, "0.25 " + token, token + " 0.75", "0.25\t" + token + "\t0.75"}) {
      for (std::size_t n = 0; n <= 4; ++n) {
        SCOPED_TRACE("positions '" + line + "', segsites " + std::to_string(n));
        const std::string rows(n, '1');
        if (expect_same("//\nsegsites: " + std::to_string(n) +
                        "\npositions: " + line + "\n" + rows + "\n" + rows +
                        "\n")) {
          ++accepted;
        }
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GT(accepted, tokens.size());
}

TEST(MsDifferential, BadByteAtEveryOffset) {
  // 67 characters: eight 8-character steps crossing the 64-bit word edge
  // and a 3-character tail. A bad byte at each offset of row 1, and a
  // second one later in the block, which must not be the one reported.
  constexpr std::size_t kSegsites = 67;
  Rng rng(3);
  const std::string good = replicate(kSegsites, 4, rng);
  const std::size_t row1 = good.find('\n', good.find("positions:")) + 1 +
                           kSegsites + 1;
  const std::string bad_bytes = std::string("2/a \r\0O\xb0\xb1\x10p", 11);
  for (std::size_t c = 0; c < kSegsites; ++c) {
    for (const char bad : bad_bytes) {
      SCOPED_TRACE("offset " + std::to_string(c) + ", byte " +
                   std::to_string(static_cast<unsigned char>(bad)));
      std::string text = good;
      text[row1 + c] = bad;
      text[row1 + kSegsites + 1 + kSegsites - 1 - c % 5] = 'z';  // row 2
      expect_same(text);
      std::istringstream in(text);
      try {
        (void)parse_ms(in);
        ADD_FAILURE() << "bad byte accepted";
      } catch (const ParseError& e) {
        // what() is a C string: a '\0' byte ends the message there.
        EXPECT_STREQ(e.what(), (std::string("ms: invalid character '") + bad +
                                "' in haplotype 1")
                                   .c_str());
      }
      if (HasFailure()) return;
    }
  }
  // A later length or separator error outranks an earlier bad byte.
  std::string text = good;
  text[row1 + 5] = '2';
  expect_same(text + "//\n" + replicate(3, 2, rng));
  const std::size_t row3 = row1 + 2 * (kSegsites + 1);
  expect_same(text.substr(0, row3) + "0\n" + text.substr(row3));
  expect_same(text.substr(0, row3) + "//\n" + text.substr(row3));
}

TEST(MsDifferential, ReadBlockEdgeAtEveryByte) {
  // A header line pads the file so that the first read block ends `k`
  // bytes into `body`, for every k over the body: the edge falls on each
  // byte of the separator, segsites, positions and haplotype lines, and
  // on and just after each of their '\n's.
  Rng rng(11);
  const std::string body = replicate(19, 3, rng) + replicate(9, 2, rng);
  for (std::size_t k = 1; k <= body.size(); ++k) {
    SCOPED_TRACE("block edge " + std::to_string(k) + " bytes into the body");
    const std::size_t pad = kReadBlock - k - 1;
    const std::string text = std::string(pad, 'h') + "\n" + body;
    ASSERT_EQ(text.compare(kReadBlock - k, body.size(), body), 0);
    expect_same(text);
    if (HasFailure()) return;
  }
  // Replicates three blocks long: each block hands over a partial line.
  std::string text = "ms 2 many\n\n";
  while (text.size() < 3 * kReadBlock) text += replicate(37, 5, rng);
  expect_same(text);
}

TEST(MsDifferential, LinesLongerThanOneReadBlock) {
  // A header line, the positions line and every haplotype line are each
  // longer than one read block, so every block edge falls inside them.
  constexpr std::size_t kSegsites = kReadBlock / 4 + 1001;
  Rng rng(23);
  std::string text = std::string(kReadBlock + 17, '#') + "\n//\nsegsites: " +
                     std::to_string(kSegsites) + "\npositions:";
  for (std::size_t i = 0; i < kSegsites; ++i) {
    text += " 0.";
    text += static_cast<char>('0' + rng.next_below(10));
    text += static_cast<char>('1' + rng.next_below(9));
  }
  text += "\n";
  for (int h = 0; h < 3; ++h) {
    for (std::size_t i = 0; i < kSegsites; ++i) {
      text += rng.next_bool(0.5) ? '1' : '0';
    }
    text += "\n";
  }
  text.pop_back();  // and the last one lacks its '\n'
  ASSERT_TRUE(expect_same(text));
  std::istringstream in(text);
  const std::vector<MsReplicate> reps = parse_ms(in);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].genotypes.snps(), kSegsites);
  EXPECT_EQ(reps[0].genotypes.samples(), 3u);
}

}  // namespace
}  // namespace ldla
