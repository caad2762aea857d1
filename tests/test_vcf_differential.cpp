// Differential test of the VCF block decoder (parse_vcf) against the
// string-splitting reference in vcf_reference.hpp, on seeded random VCFs
// and on inputs built around the decoder's read-block edges. Both readers
// must agree on the packed words (padding included), positions, ids and
// skipped count, or throw the same message.
#include <array>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/vcf_lite.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"
#include "vcf_reference.hpp"

namespace ldla {
namespace {

// parse_vcf's read size (detail::kLineBlockBytes in
// src/io/detail/line_reader.hpp); the edge tests place line ends and
// fields around multiples of it.
constexpr std::size_t kReadBlock = std::size_t{1} << 20;

constexpr const char* kChromLine =
    "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT";

struct Outcome {
  bool threw = false;
  std::string what;
  VcfData data;
};

template <class Parse>
Outcome run(Parse parse, const std::string& text, bool skip_invalid) {
  Outcome o;
  std::istringstream in(text);
  try {
    o.data = parse(in, skip_invalid);
  } catch (const Error& e) {
    o.threw = true;
    o.what = e.what();
  }
  return o;
}

// The ParseError kinds of vcf_lite.hpp's grammar, by message prefix.
constexpr std::array<const char*, 5> kErrorKinds = {
    "vcf: record before #CHROM header",
    "vcf: record has fewer than 10 columns",
    "vcf: unsupported genotype at POS ",
    "vcf: inconsistent haplotype count at POS ",
    "vcf: bad POS '",
};

struct Tally {
  std::size_t inputs = 0;
  std::size_t accepted = 0;
  std::size_t with_skips = 0;
  std::array<std::size_t, kErrorKinds.size()> rejected{};
};

// Parses `text` with both readers and requires identical results.
void expect_same(const std::string& text, bool skip_invalid,
                 Tally* tally = nullptr) {
  const Outcome got = run(
      [](std::istream& in, bool skip) { return parse_vcf(in, skip); }, text,
      skip_invalid);
  const Outcome want = run(
      [](std::istream& in, bool skip) {
        return test::reference_parse_vcf(in, skip);
      },
      text, skip_invalid);
  ASSERT_EQ(got.threw, want.threw)
      << "decoder: " << got.what << "\nreference: " << want.what;
  if (tally != nullptr) {
    ++tally->inputs;
    if (!got.threw) {
      ++tally->accepted;
      if (got.data.skipped > 0) ++tally->with_skips;
    }
    for (std::size_t k = 0; got.threw && k < kErrorKinds.size(); ++k) {
      if (got.what.rfind(kErrorKinds[k], 0) == 0) ++tally->rejected[k];
    }
  }
  if (got.threw) {
    EXPECT_EQ(got.what, want.what);
    return;
  }
  const BitMatrix& g = got.data.genotypes;
  const BitMatrix& w = want.data.genotypes;
  ASSERT_EQ(g.snps(), w.snps());
  ASSERT_EQ(g.samples(), w.samples());
  ASSERT_EQ(g.stride_words(), w.stride_words());
  EXPECT_TRUE(g.padding_is_clean());
  for (std::size_t s = 0; s < g.snps(); ++s) {
    ASSERT_EQ(std::memcmp(g.row_data(s), w.row_data(s),
                          g.stride_words() * sizeof(std::uint64_t)),
              0)
        << "SNP " << s;
  }
  EXPECT_EQ(got.data.positions, want.data.positions);
  EXPECT_EQ(got.data.ids, want.data.ids);
  EXPECT_EQ(got.data.skipped, want.data.skipped);
}

// Seeded random VCF text. Most files are valid; the rest carry a few
// faults, each one a rule of the grammar in vcf_lite.hpp.
class VcfWriter {
 public:
  explicit VcfWriter(std::uint64_t seed) : rng_(seed) {}

  std::string file() {
    const std::size_t columns = 1 + rng_.next_below(80);
    ploidy_.assign(columns, 2);
    const std::uint64_t shape = rng_.next_below(3);
    for (std::size_t c = 0; c < columns; ++c) {
      if (shape == 1) {
        ploidy_[c] = 1 + static_cast<int>(rng_.next_below(3));
      } else if (shape == 2 && c < 21) {
        ploidy_[c] = 3;  // 63 haplotypes, so column 21 starts at bit 63
      }
    }
    fault_rate_ = std::array<double, 3>{0.0, 0.003, 0.03}[rng_.next_below(3)];
    const char* eol = chance(0.04) ? "\r\n" : "\n";

    std::string out = "##fileformat=VCFv4.2";
    out += eol;
    if (chance(0.02)) out += record() + eol;  // record before the header
    out += kChromLine;
    for (std::size_t c = 0; c < columns; ++c) out += "\tS" + std::to_string(c);
    out += eol;
    const std::size_t records = rng_.next_below(40);
    for (std::size_t r = 0; r < records; ++r) {
      if (chance(0.05)) out += eol;  // empty line
      if (chance(0.05)) out += std::string("##meta=after") + eol;
      out += record();
      if (r + 1 < records || !chance(0.2)) out += eol;  // final newline
    }
    return out;
  }

 private:
  bool chance(double p) { return rng_.next_bool(p); }
  bool fault() { return fault_rate_ > 0 && chance(fault_rate_); }
  char allele() { return rng_.next_below(2) == 0 ? '0' : '1'; }

  std::string pos() {
    if (fault()) {
      static const char* const kBad[] = {
          "-1", "12abc", " 12", "+12", "", "18446744073709551616",
          "99999999999999999999", "1e5", "0x10"};
      return kBad[rng_.next_below(std::size(kBad))];
    }
    if (chance(0.02)) return "18446744073709551615";
    if (chance(0.02)) return "007";
    return std::to_string(rng_.next_below(100000000));
  }

  std::string genotype(int ploidy) {
    std::string gt;
    for (int a = 0; a < ploidy; ++a) {
      if (a > 0) gt += '|';
      gt += allele();
    }
    if (!fault()) return gt;
    switch (rng_.next_below(9)) {
      case 0:
        if (ploidy > 1) gt[1] = '/';  // unphased
        return gt;
      case 1: return gt + (chance(0.5) ? "|" : "/");  // dangling separator
      case 2: gt[0] = '.'; return gt;
      case 3: gt[0] = '2'; return gt;
      case 4: return "";
      case 5: return gt + "|" + allele();  // one allele too many
      case 6: return ploidy > 1 ? gt.substr(2) : gt;  // one too few
      case 7: return gt.substr(0, 1) + "||" + allele();
      default: return " " + gt;
    }
  }

  std::string record() {
    const bool with_dp = chance(0.3);
    std::string r = "20\t" + pos() + "\trs" + std::to_string(next_id_++) +
                    "\tA\t" + (fault() ? "G,T" : "G") + "\t.\tPASS\t.\t" +
                    (with_dp ? "GT:DP" : "GT");
    if (fault()) return r.substr(0, rng_.next_below(r.size() + 1));
    for (const int p : ploidy_) {
      r += '\t';
      r += genotype(p);
      if (with_dp) {
        // Subfields after GT are never read, whatever they hold.
        static const char* const kSub[] = {":12", ":0|1", ":./.", ":", ":7:x"};
        r += kSub[rng_.next_below(std::size(kSub))];
      }
    }
    if (fault()) r += '\t';  // empty last field
    return r;
  }

  Rng rng_;
  std::vector<int> ploidy_;
  double fault_rate_ = 0;
  std::size_t next_id_ = 0;
};

TEST(VcfDifferential, SeededRandomFiles) {
  constexpr std::uint64_t kFiles = 1500;
  Tally tally;
  for (std::uint64_t seed = 0; seed < kFiles; ++seed) {
    VcfWriter writer(seed);
    const std::string text = writer.file();
    for (const bool skip : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (skip ? " skip_invalid" : ""));
      expect_same(text, skip, &tally);
      if (HasFatalFailure()) return;
    }
  }
  std::printf("vcf differential: %zu inputs, %zu accepted (%zu with skipped "
              "sites)\n",
              tally.inputs, tally.accepted, tally.with_skips);
  // Every outcome must be well represented for the comparison to mean much.
  EXPECT_GT(tally.accepted, tally.inputs / 3);
  EXPECT_GT(tally.with_skips, tally.inputs / 50);
  for (std::size_t k = 0; k < kErrorKinds.size(); ++k) {
    std::printf("  rejected %4zu: %s...\n", tally.rejected[k], kErrorKinds[k]);
    EXPECT_GT(tally.rejected[k], tally.inputs / 200) << kErrorKinds[k];
  }
}

std::string header(std::size_t columns) {
  std::string h = std::string("##fileformat=VCFv4.2\n") + kChromLine;
  for (std::size_t c = 0; c < columns; ++c) h += "\tS" + std::to_string(c);
  return h + "\n";
}

TEST(VcfDifferential, DiploidFieldStraddlesWordEdge) {
  // 21 triploid columns fill bits 0-62; the next diploid field puts its
  // alleles in bit 63 of word 0 and bit 0 of word 1.
  std::string text = header(40);
  for (int r = 0; r < 4; ++r) {
    text += "1\t" + std::to_string(100 + r) + "\t.\tA\tG\t.\t.\t.\tGT";
    for (int c = 0; c < 40; ++c) {
      text += c < 21 ? (r % 2 ? "\t1|0|1" : "\t0|1|0")
                     : (c == 21 ? "\t1|1" : (c % 3 ? "\t0" : "\t1|0"));
    }
    text += "\n";
  }
  expect_same(text, false);
  std::istringstream in(text);
  const VcfData d = parse_vcf(in);
  ASSERT_EQ(d.genotypes.samples(), 63u + 2u + 6u * 2u + 12u * 1u);
  EXPECT_TRUE(d.genotypes.get(0, 63));
  EXPECT_TRUE(d.genotypes.get(0, 64));
}

TEST(VcfDifferential, SubfieldsEmptyLinesAndLateComments) {
  const std::string text =
      header(3) +
      "\n"
      "1\t5\trs1\tA\tG\t.\t.\t.\tGT:DP\t0|1:3\t1|1:.\t0:9\n"
      "\n"
      "#late comment\n"
      "##late meta\n"
      "1\t6\trs2\tA\tG\t.\t.\t.\tGT\t1|0\t0|0\t1\n";
  expect_same(text, false);
  std::istringstream in(text);
  const VcfData d = parse_vcf(in);
  EXPECT_EQ(d.genotypes.snps(), 2u);
  EXPECT_EQ(d.genotypes.snp_string(0), "01110");
}

TEST(VcfDifferential, MissingFinalNewline) {
  const std::string text =
      header(2) + "1\t5\trs1\tA\tG\t.\t.\t.\tGT\t0|1\t1|1\n" +
      "1\t9\trs2\tA\tG\t.\t.\t.\tGT\t1|0\t0|1";
  expect_same(text, false);
  std::istringstream in(text);
  const VcfData d = parse_vcf(in);
  ASSERT_EQ(d.positions.size(), 2u);
  EXPECT_EQ(d.genotypes.snp_string(1), "1001");
}

TEST(VcfDifferential, CrlfIsRejected) {
  std::string text = header(2);
  text.insert(text.size() - 1, "\r");
  text += "1\t5\trs1\tA\tG\t.\t.\t.\tGT\t0|1\t1|1\r\n";
  expect_same(text, false);
  expect_same(text, true);
  std::istringstream in(text);
  try {
    (void)parse_vcf(in);
    FAIL() << "CRLF record accepted";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "vcf: unsupported genotype at POS 5");
  }
}

TEST(VcfDifferential, CrlfIsRejectedAfterSubfields) {
  // The '\r' lands in the last sample's subfields, which the GT grammar
  // ignores, so only the line-end rule rejects the record.
  const std::string crlf = "1\t5\trs1\tA\tG\t.\t.\t.\tGT:DP\t0|1:3\t1|1:7\r\n";
  const std::string text = header(2) + crlf;
  expect_same(text, false);
  expect_same(text, true);
  std::istringstream in(text);
  try {
    (void)parse_vcf(in);
    FAIL() << "CRLF record with subfields accepted";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "vcf: unsupported genotype at POS 5");
  }
  // With skip_invalid the CRLF site is dropped and the LF site kept; a
  // '\r' inside a subfield that a tab follows is ordinary subfield text.
  std::istringstream skip_in(
      text + "1\t9\trs2\tA\tG\t.\t.\t.\tGT:DP\t1|0:\r\t0|1:7\n");
  const VcfData d = parse_vcf(skip_in, true);
  EXPECT_EQ(d.skipped, 1u);
  ASSERT_EQ(d.positions.size(), 1u);
  EXPECT_EQ(d.genotypes.snp_string(0), "1001");
  expect_same(text + "1\t9\trs2\tA\tG\t.\t.\t.\tGT:DP\t1|0:\r\t0|1:7\n",
              true);
}

TEST(VcfDifferential, RecordsLongerThanOneReadBlock) {
  // Each record's genotype fields alone span more than one read block, so
  // every block edge falls inside them and the carried partial line is
  // long; two records also carry long INFO / subfield text.
  constexpr std::size_t kSamples = kReadBlock / 4 + 1000;
  Rng rng(19);
  const auto fields = [&](const std::string& sub) {
    std::string f;
    for (std::size_t s = 0; s < kSamples; ++s) {
      f += '\t';
      f += rng.next_bool(0.5) ? '1' : '0';
      f += '|';
      f += rng.next_bool(0.5) ? '1' : '0';
      if (s == kSamples / 3) f += sub;
    }
    return f;
  };
  std::string text = header(kSamples);
  text += "1\t5\trs1\tA\tG\t.\t.\t.\tGT" + fields("") + "\n";
  text += "1\t6\trs2\tA\tG\t.\t.\t" + std::string(kReadBlock / 2, 'x') +
          "\tGT:DP" + fields(":" + std::string(kReadBlock + 17, '7')) + "\n";
  text += "1\t7\trs3\tA\tG\t.\t.\t.\tGT:DP" + fields(":9");
  expect_same(text, false);
  std::istringstream in(text);
  const VcfData d = parse_vcf(in);
  EXPECT_EQ(d.genotypes.snps(), 3u);
  EXPECT_EQ(d.genotypes.samples(), 2 * kSamples);
}

TEST(VcfDifferential, ReadBlockEdgeAtEveryByte) {
  // A comment line pads the file so that the first read block ends `k`
  // bytes into `body`, for every k up to the end of body's first record:
  // the edge falls on each byte of the #CHROM line and of a record that
  // mixes fast-path fields, other ploidies and subfields, and on and just
  // after each of their '\n's.
  std::string body = std::string(kChromLine);
  for (int c = 0; c < 40; ++c) body += "\tS" + std::to_string(c);
  body += "\n";
  std::string record = "1\t5\trs1\tA\tG\t.\t.\t.\tGT:DP";
  for (int c = 0; c < 40; ++c) {
    record += c % 7 == 3 ? "\t1:4" : c % 11 == 5 ? "\t0|1|1:2" : "\t1|0";
  }
  body += record + "\n" + record + "\n";
  const std::string head = "##fileformat=VCFv4.2\n";
  for (std::size_t k = 1; k <= body.size() - record.size(); ++k) {
    SCOPED_TRACE("block edge " + std::to_string(k) + " bytes into the body");
    const std::size_t pad = kReadBlock - k - head.size() - std::strlen("##\n");
    const std::string text = head + "##" + std::string(pad, 'p') + "\n" + body;
    ASSERT_EQ(text.compare(kReadBlock - k, body.size(), body), 0);
    expect_same(text, false);
    if (HasFatalFailure()) return;
  }
  // A file of short records three blocks long: each block hands over a
  // partial line.
  std::string text = header(3);
  while (text.size() < 3 * kReadBlock) {
    text += "1\t" + std::to_string(text.size()) +
            "\t.\tA\tG\t.\t.\t.\tGT\t0|1\t1|0\t1|1\n";
  }
  expect_same(text, false);
}

}  // namespace
}  // namespace ldla
