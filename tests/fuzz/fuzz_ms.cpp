// Fuzz harness for the Hudson `ms` parser: a differential oracle against
// the getline reference (tests/ms_reference.hpp) on every input, and a
// write/reparse round trip on accepted ones.
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz_target.hpp"
#include "io/ms_format.hpp"
#include "ms_reference.hpp"
#include "util/contract.hpp"

namespace {

struct Outcome {
  bool threw = false;
  std::string what;
  std::vector<ldla::MsReplicate> reps;
};

template <class Parse>
Outcome run(Parse parse, const std::string& text) {
  Outcome o;
  std::istringstream in(text);
  try {
    o.reps = parse(in);
  } catch (const ldla::Error& e) {
    o.threw = true;
    o.what = e.what();
  }
  return o;
}

// Words (padding included) and positions equal bit for bit.
bool same_bits(const ldla::MsReplicate& a, const ldla::MsReplicate& b) {
  const ldla::BitMatrix& x = a.genotypes;
  const ldla::BitMatrix& y = b.genotypes;
  if (x.snps() != y.snps() || x.samples() != y.samples() ||
      x.stride_words() != y.stride_words() ||
      a.positions.size() != b.positions.size()) {
    return false;
  }
  for (std::size_t s = 0; s < x.snps(); ++s) {
    if (std::memcmp(x.row_data(s), y.row_data(s),
                    x.stride_words() * sizeof(std::uint64_t)) != 0) {
      return false;
    }
  }
  return a.positions.empty() ||
         std::memcmp(a.positions.data(), b.positions.data(),
                     a.positions.size() * sizeof(double)) == 0;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const Outcome got =
      run([](std::istream& in) { return ldla::parse_ms(in); }, text);
  const Outcome want = run(
      [](std::istream& in) { return ldla::test::reference_parse_ms(in); },
      text);
  ldla::fuzz::require(got.threw == want.threw,
                      "ms: reader and reference disagree on accepting");
  ldla::fuzz::require(got.what == want.what,
                      "ms: reader and reference throw different errors");
  ldla::fuzz::require(got.reps.size() == want.reps.size(),
                      "ms: replicate count differs from the reference");
  for (std::size_t r = 0; r < got.reps.size(); ++r) {
    const ldla::MsReplicate& rep = got.reps[r];
    ldla::fuzz::require(same_bits(rep, want.reps[r]),
                        "ms: bits or positions differ from the reference");
    ldla::fuzz::require(rep.genotypes.padding_is_clean(),
                        "ms: accepted matrix has dirty padding");
    ldla::fuzz::require(rep.positions.size() == rep.genotypes.snps(),
                        "ms: positions out of sync with SNP count");
    // Round trip: what we serialize must reparse to the same bits.
    std::ostringstream out;
    ldla::write_ms(out, rep);
    std::istringstream back(out.str());
    const std::vector<ldla::MsReplicate> again = ldla::parse_ms(back);
    ldla::fuzz::require(again.size() == 1, "ms: round-trip replicate count");
    ldla::fuzz::require(same_bits(again[0], rep),
                        "ms: round trip changed bits or positions");
  }
  return 0;
}
