#include "io/ldm_binary.hpp"
#include "io/matrix_writer.hpp"
#include "io/ms_format.hpp"
#include "io/vcf_lite.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <streambuf>
#include <utility>

#include <gtest/gtest.h>

#include "sim/rng.hpp"
#include "sim/wright_fisher.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

// --- ms format -------------------------------------------------------------

constexpr const char* kMsSample =
    "ms 4 1 -t 5\n"
    "12345 23456 34567\n"
    "\n"
    "//\n"
    "segsites: 5\n"
    "positions: 0.1 0.2 0.5 0.7 0.9\n"
    "10110\n"
    "01010\n"
    "11111\n"
    "00000\n"
    "\n";

TEST(MsFormat, ParsesSampleInput) {
  std::istringstream in(kMsSample);
  const auto reps = parse_ms(in);
  ASSERT_EQ(reps.size(), 1u);
  const MsReplicate& r = reps[0];
  EXPECT_EQ(r.genotypes.snps(), 5u);
  EXPECT_EQ(r.genotypes.samples(), 4u);
  ASSERT_EQ(r.positions.size(), 5u);
  EXPECT_DOUBLE_EQ(r.positions[2], 0.5);
  // Transposition check: SNP 0 across samples is 1,0,1,0.
  EXPECT_EQ(r.genotypes.snp_string(0), "1010");
  EXPECT_EQ(r.genotypes.snp_string(4), "0010");
}

TEST(MsFormat, RoundTripsThroughWriter) {
  WrightFisherParams p;
  p.n_snps = 37;
  p.n_samples = 21;
  p.seed = 5;
  const SimulatedDataset d = simulate_wright_fisher(p);
  MsReplicate rep;
  rep.genotypes = d.genotypes.clone();
  rep.positions = d.positions;

  std::stringstream io;
  write_ms(io, rep);
  const auto reps = parse_ms(io);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].genotypes.snps(), 37u);
  EXPECT_EQ(reps[0].genotypes.samples(), 21u);
  for (std::size_t s = 0; s < 37; ++s) {
    EXPECT_EQ(reps[0].genotypes.snp_string(s), d.genotypes.snp_string(s));
    EXPECT_DOUBLE_EQ(reps[0].positions[s], d.positions[s]);
  }
}

TEST(MsFormat, ParsesMultipleReplicates) {
  std::string two = std::string(kMsSample) +
                    "//\n"
                    "segsites: 2\n"
                    "positions: 0.3 0.6\n"
                    "10\n"
                    "01\n"
                    "\n";
  std::istringstream in(two);
  const auto reps = parse_ms(in);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[1].genotypes.snps(), 2u);
  EXPECT_EQ(reps[1].genotypes.samples(), 2u);
}

TEST(MsFormat, RejectsMalformedInput) {
  {
    std::istringstream in("no replicates here\n");
    EXPECT_THROW(parse_ms(in), ParseError);
  }
  {
    std::istringstream in("//\nsegsites: 2\npositions: 0.5\n10\n01\n");
    EXPECT_THROW(parse_ms(in), ParseError) << "positions != segsites";
  }
  {
    std::istringstream in("//\nsegsites: 3\npositions: 0.1 0.2 0.3\n10\n");
    EXPECT_THROW(parse_ms(in), ParseError) << "haplotype too short";
  }
  {
    std::istringstream in(
        "//\nsegsites: 2\npositions: 0.1 0.2\n1x\n00\n");
    EXPECT_THROW(parse_ms(in), ParseError) << "bad character";
  }
}

TEST(MsFormat, MissingFileThrows) {
  EXPECT_THROW(parse_ms_file("/nonexistent/path.ms"), Error);
}

// --- VCF -------------------------------------------------------------------

constexpr const char* kVcfSample =
    "##fileformat=VCFv4.2\n"
    "##source=test\n"
    "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\tS3\n"
    "1\t100\trs1\tA\tG\t.\tPASS\t.\tGT\t0|1\t1|1\t0|0\n"
    "1\t250\trs2\tC\tT\t.\tPASS\t.\tGT:DP\t1|0:12\t0|0:9\t0|1:30\n";

TEST(VcfLite, ParsesPhasedDiploidRecords) {
  std::istringstream in(kVcfSample);
  const VcfData d = parse_vcf(in);
  EXPECT_EQ(d.genotypes.snps(), 2u);
  EXPECT_EQ(d.genotypes.samples(), 6u);  // 3 individuals x 2 haplotypes
  ASSERT_EQ(d.positions.size(), 2u);
  EXPECT_EQ(d.positions[0], 100u);
  EXPECT_EQ(d.positions[1], 250u);
  EXPECT_EQ(d.ids[0], "rs1");
  EXPECT_EQ(d.genotypes.snp_string(0), "011100");
  EXPECT_EQ(d.genotypes.snp_string(1), "100001");
}

TEST(VcfLite, MultiAllelicSiteThrowsOrSkips) {
  const std::string vcf =
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\n"
      "1\t10\t.\tA\tG,T\t.\t.\t.\tGT\t1|2\n"
      "1\t20\t.\tA\tG\t.\t.\t.\tGT\t1|0\n";
  {
    std::istringstream in(vcf);
    EXPECT_THROW(parse_vcf(in), ParseError);
  }
  {
    std::istringstream in(vcf);
    const VcfData d = parse_vcf(in, /*skip_invalid=*/true);
    EXPECT_EQ(d.genotypes.snps(), 1u);
    EXPECT_EQ(d.skipped, 1u);
    EXPECT_EQ(d.positions[0], 20u);
  }
}

TEST(VcfLite, MissingGenotypeThrowsOrSkips) {
  const std::string vcf =
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\n"
      "1\t10\t.\tA\tG\t.\t.\t.\tGT\t.|.\n";
  std::istringstream in(vcf);
  EXPECT_THROW(parse_vcf(in), ParseError);
  std::istringstream in2(vcf);
  const VcfData d = parse_vcf(in2, true);
  EXPECT_EQ(d.genotypes.snps(), 0u);
  EXPECT_EQ(d.skipped, 1u);
}

// Expects `gt` in a one-sample record to be unsupported: a ParseError
// naming the POS, or a skipped site under skip_invalid.
void expect_unsupported_gt(const std::string& gt) {
  SCOPED_TRACE("GT '" + gt + "'");
  const std::string vcf =
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\n"
      "1\t10\t.\tA\tG\t.\t.\t.\tGT\t" + gt + "\n"
      "1\t20\t.\tA\tG\t.\t.\t.\tGT\t1|0\n";
  std::istringstream in(vcf);
  try {
    (void)parse_vcf(in);
    ADD_FAILURE() << "accepted";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "vcf: unsupported genotype at POS 10");
  }
  std::istringstream in2(vcf);
  const VcfData d = parse_vcf(in2, /*skip_invalid=*/true);
  EXPECT_EQ(d.skipped, 1u);
  ASSERT_EQ(d.positions.size(), 1u);
  EXPECT_EQ(d.positions[0], 20u);
}

TEST(VcfLite, UnphasedGenotypeThrowsOrSkips) {
  // A '/' het has no phase; reading it as phased would bias r².
  for (const char* gt : {"0/1", "1/0", "0/0", "1|0/1"}) {
    expect_unsupported_gt(gt);
  }
}

TEST(VcfLite, DanglingSeparatorThrowsOrSkips) {
  for (const char* gt : {"0|", "1/", "0|1|", "1|:5"}) {
    expect_unsupported_gt(gt);
  }
}

TEST(VcfLite, PosMustBeDigitsThatFitInU64) {
  const auto parse_pos = [](const std::string& pos) {
    std::istringstream in(
        "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\n"
        "1\t" + pos + "\t.\tA\tG\t.\t.\t.\tGT\t1|0\n");
    return parse_vcf(in, /*skip_invalid=*/true).positions.at(0);
  };
  EXPECT_EQ(parse_pos("0"), 0u);
  EXPECT_EQ(parse_pos("007"), 7u);
  EXPECT_EQ(parse_pos("18446744073709551615"), 18446744073709551615u);
  for (const char* bad : {"-1", "12abc", " 12", "+12", "12 ", "", "1e5",
                          "18446744073709551616", "99999999999999999999"}) {
    SCOPED_TRACE(std::string("POS '") + bad + "'");
    try {
      (void)parse_pos(bad);
      ADD_FAILURE() << "accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("vcf: bad POS '") + bad + "'");
    }
  }
}

TEST(VcfLite, RecordBeforeHeaderThrows) {
  std::istringstream in("1\t10\t.\tA\tG\t.\t.\t.\tGT\t1|0\n");
  EXPECT_THROW(parse_vcf(in), ParseError);
}

TEST(VcfLite, TruncatedRecordThrows) {
  std::istringstream in(
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\n"
      "1\t10\t.\tA\n");
  EXPECT_THROW(parse_vcf(in), ParseError);
}

// --- ldm binary --------------------------------------------------------------

TEST(LdmBinary, RoundTrips) {
  WrightFisherParams p;
  p.n_snps = 29;
  p.n_samples = 133;
  p.seed = 6;
  const BitMatrix m = simulate_genotypes(p);
  std::stringstream io(std::ios::in | std::ios::out | std::ios::binary);
  write_ldm(io, m);
  const BitMatrix back = read_ldm(io);
  ASSERT_EQ(back.snps(), m.snps());
  ASSERT_EQ(back.samples(), m.samples());
  for (std::size_t s = 0; s < m.snps(); ++s) {
    EXPECT_EQ(back.snp_string(s), m.snp_string(s));
  }
}

TEST(LdmBinary, RejectsBadMagic) {
  std::stringstream io;
  io << "NOTLDM00" << std::string(64, '\0');
  EXPECT_THROW(read_ldm(io), ParseError);
}

TEST(LdmBinary, RejectsTruncatedPayload) {
  const BitMatrix m(4, 100);
  std::stringstream io(std::ios::in | std::ios::out | std::ios::binary);
  write_ldm(io, m);
  std::string bytes = io.str();
  bytes.resize(bytes.size() - 8);  // chop one word
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(read_ldm(in), ParseError);
}

// read_ldm's payload read size (kReadBlockBytes in src/io/ldm_binary.cpp):
// each read takes as many whole rows as fit in it, at least one.
constexpr std::size_t kLdmReadBlock = std::size_t{1} << 20;

BitMatrix random_matrix(std::size_t snps, std::size_t samples,
                        std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix m(snps, samples);
  const std::size_t tail = samples % 64;
  for (std::size_t s = 0; s < snps; ++s) {
    std::uint64_t* row = m.row_data(s);
    for (std::size_t w = 0; w < m.words_per_snp(); ++w) row[w] = rng.next_u64();
    if (tail != 0) row[m.words_per_snp() - 1] &= (std::uint64_t{1} << tail) - 1;
  }
  return m;
}

std::string ldm_bytes(const BitMatrix& m) {
  std::stringstream io(std::ios::in | std::ios::out | std::ios::binary);
  write_ldm(io, m);
  return io.str();
}

void expect_same_words(const BitMatrix& a, const BitMatrix& b) {
  ASSERT_EQ(a.snps(), b.snps());
  ASSERT_EQ(a.samples(), b.samples());
  ASSERT_TRUE(b.padding_is_clean());
  for (std::size_t s = 0; s < a.snps(); ++s) {
    ASSERT_EQ(std::memcmp(a.row_data(s), b.row_data(s),
                          a.stride_words() * sizeof(std::uint64_t)),
              0)
        << "row " << s;
  }
}

TEST(LdmBinary, RoundTripsAcrossReadBlocks) {
  struct Shape {
    std::size_t samples;
    std::size_t blocks;  // payload size in read blocks, rounded up
  };
  // 3000 samples: 376-byte rows with a pad word, so a block ends short of
  // 1 MiB and the rows at its edges are spread to a wider stride. 1024
  // samples: rows with no pad words. 9e6 samples: one row per block, each
  // larger than the block size.
  for (const Shape shape :
       {Shape{3000, 3}, Shape{1024, 2}, Shape{9000000, 2}}) {
    const std::size_t row_bytes = (shape.samples + 63) / 64 * 8;
    const std::size_t rows_per_block =
        std::max<std::size_t>(1, kLdmReadBlock / row_bytes);
    const std::size_t snps = (shape.blocks - 1) * rows_per_block + 1;
    const BitMatrix m = random_matrix(snps, shape.samples, shape.samples);
    std::istringstream in(ldm_bytes(m), std::ios::binary);
    expect_same_words(m, read_ldm(in));
  }
}

// A stream that cannot seek, like a pipe: read_ldm cannot size-check the
// header against it, so truncation surfaces in the payload reads.
class OneWayBuf : public std::streambuf {
 public:
  explicit OneWayBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(LdmBinary, TruncationNamesTheFirstIncompleteRow) {
  const std::size_t samples = 3000;
  const std::size_t row_bytes = 47 * 8;
  const std::size_t rows_per_block = kLdmReadBlock / row_bytes;
  const BitMatrix m = random_matrix(2 * rows_per_block + 10, samples, 5);
  const std::string bytes = ldm_bytes(m);
  constexpr std::size_t kHeader = 24;
  // Cut inside the second block, halfway through one of its rows.
  const std::size_t row = rows_per_block + 7;
  OneWayBuf buf(bytes.substr(0, kHeader + row * row_bytes + 100));
  std::istream in(&buf);
  try {
    (void)read_ldm(in);
    FAIL() << "truncated payload accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "ldm: truncated payload at SNP " + std::to_string(row));
  }
}

TEST(LdmBinary, RejectsDirtyTailBitsInAnyBlock) {
  const std::size_t samples = 3000;  // 56 tail bits in the last word
  const std::size_t row_bytes = 47 * 8;
  const std::size_t rows_per_block = kLdmReadBlock / row_bytes;
  const BitMatrix m = random_matrix(rows_per_block + 3, samples, 8);
  std::string bytes = ldm_bytes(m);
  // Set the top bit of the last word of the first row of the second block.
  constexpr std::size_t kHeader = 24;
  bytes[kHeader + (rows_per_block + 1) * row_bytes - 1] |= '\x80';
  std::istringstream in(bytes, std::ios::binary);
  try {
    (void)read_ldm(in);
    FAIL() << "dirty padding accepted";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "ldm: payload has non-zero padding bits");
  }
}

// --- matrix writer -----------------------------------------------------------

TEST(MatrixWriter, CsvHasExpectedShapeAndNan) {
  LdMatrix m(2, 3);
  m(0, 0) = 1.0;
  m(0, 1) = 0.25;
  m(0, 2) = std::numeric_limits<double>::quiet_NaN();
  m(1, 2) = -0.5;
  std::ostringstream out;
  write_matrix_csv(out, m);
  EXPECT_EQ(out.str(), "1,0.25,nan\n0,0,-0.5\n");
}

TEST(MatrixWriter, TopPairsRanksDescendingLowerTriangle) {
  LdMatrix m(4, 4);
  m(1, 0) = m(0, 1) = 0.3;
  m(2, 0) = m(0, 2) = 0.9;
  m(2, 1) = m(1, 2) = std::numeric_limits<double>::quiet_NaN();
  m(3, 2) = m(2, 3) = 0.5;
  const auto pairs = top_pairs(m, 10);
  ASSERT_EQ(pairs.size(), 5u);  // 6 lower pairs minus 1 NaN
  EXPECT_EQ(pairs[0].i, 2u);
  EXPECT_EQ(pairs[0].j, 0u);
  EXPECT_DOUBLE_EQ(pairs[0].value, 0.9);
  EXPECT_DOUBLE_EQ(pairs[1].value, 0.5);
  EXPECT_DOUBLE_EQ(pairs[2].value, 0.3);
}

TEST(MatrixWriter, TopPairsTruncatesToCount) {
  LdMatrix m(5, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      m(i, j) = static_cast<double>(i + j) / 10.0;
    }
  }
  EXPECT_EQ(top_pairs(m, 3).size(), 3u);
}

TEST(MatrixWriter, TopPairsRejectsRectangular) {
  LdMatrix m(2, 3);
  EXPECT_THROW((void)top_pairs(m, 1), ContractViolation);
}

TEST(MatrixWriter, ReportRendersRows) {
  std::ostringstream out;
  write_top_pairs(out, {{3, 1, 0.75}}, "r^2");
  const std::string s = out.str();
  EXPECT_NE(s.find("r^2"), std::string::npos);
  EXPECT_NE(s.find("0.75"), std::string::npos);
}

}  // namespace
}  // namespace ldla
