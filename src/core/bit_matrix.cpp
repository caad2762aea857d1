#include "core/bit_matrix.hpp"

#include <cstring>

#include "core/popcount.hpp"
#include "util/contract.hpp"

namespace ldla {

namespace {
std::size_t aligned_stride(std::size_t n_words) {
  const std::size_t a = BitMatrix::kRowAlignWords;
  return (n_words + a - 1) / a * a;
}
}  // namespace

BitMatrix::BitMatrix(std::size_t n_snps, std::size_t n_samples, Unset)
    : n_snps_(n_snps),
      n_samples_(n_samples),
      n_words_(words_for_bits(n_samples)),
      stride_(aligned_stride(n_words_)),
      words_(n_snps * stride_) {
  LDLA_EXPECT(n_samples < (std::uint64_t{1} << 32),
              "sample counts beyond 2^32 overflow the count accumulators");
}

BitMatrix::BitMatrix(std::size_t n_snps, std::size_t n_samples)
    : BitMatrix(n_snps, n_samples, Unset{}) {
  words_.zero();
}

BitMatrix BitMatrix::uninitialized(std::size_t n_snps, std::size_t n_samples) {
  return BitMatrix(n_snps, n_samples, Unset{});
}

BitMatrix BitMatrix::clone() const {
  BitMatrix out(n_snps_, n_samples_);
  if (!words_.empty()) {
    std::memcpy(out.words_.data(), words_.data(),
                words_.size() * sizeof(std::uint64_t));
  }
  return out;
}

BitMatrix BitMatrix::from_snp_strings(std::span<const std::string> snps) {
  if (snps.empty()) return {};
  const std::size_t samples = snps.front().size();
  BitMatrix out(snps.size(), samples);
  for (std::size_t s = 0; s < snps.size(); ++s) {
    const std::string& str = snps[s];
    if (str.size() != samples) {
      throw ParseError("SNP " + std::to_string(s) + " has " +
                       std::to_string(str.size()) + " states, expected " +
                       std::to_string(samples));
    }
    for (std::size_t i = 0; i < samples; ++i) {
      if (str[i] == '1') {
        out.set(s, i, true);
      } else if (str[i] != '0') {
        throw ParseError(std::string("invalid allelic state '") + str[i] +
                         "' in SNP " + std::to_string(s));
      }
    }
  }
  return out;
}

void BitMatrix::set(std::size_t snp, std::size_t sample, bool derived) {
  LDLA_EXPECT(snp < n_snps_ && sample < n_samples_, "index out of range");
  std::uint64_t& w = row_data(snp)[sample / 64];
  const std::uint64_t bit = std::uint64_t{1} << (sample % 64);
  if (derived) {
    w |= bit;
  } else {
    w &= ~bit;
  }
}

bool BitMatrix::get(std::size_t snp, std::size_t sample) const {
  LDLA_EXPECT(snp < n_snps_ && sample < n_samples_, "index out of range");
  return (row_data(snp)[sample / 64] >> (sample % 64)) & 1u;
}

std::uint64_t BitMatrix::derived_count(std::size_t snp) const {
  LDLA_EXPECT(snp < n_snps_, "SNP index out of range");
  return popcount_words({row_data(snp), n_words_});
}

double BitMatrix::allele_frequency(std::size_t snp) const {
  LDLA_EXPECT(n_samples_ > 0, "empty matrix has no frequencies");
  return static_cast<double>(derived_count(snp)) /
         static_cast<double>(n_samples_);
}

std::vector<double> BitMatrix::allele_frequencies() const {
  std::vector<double> p(n_snps_);
  for (std::size_t s = 0; s < n_snps_; ++s) p[s] = allele_frequency(s);
  return p;
}

BitMatrixView BitMatrix::view() const noexcept {
  return {words_.data(), n_snps_, n_words_, stride_, n_samples_};
}

BitMatrixView BitMatrix::view(std::size_t snp_begin, std::size_t snp_end) const {
  LDLA_EXPECT(snp_begin <= snp_end && snp_end <= n_snps_,
              "SNP range out of bounds");
  return {words_.data() + snp_begin * stride_, snp_end - snp_begin, n_words_,
          stride_, n_samples_};
}

std::string BitMatrix::snp_string(std::size_t snp) const {
  std::string s(n_samples_, '0');
  for (std::size_t i = 0; i < n_samples_; ++i) {
    if (get(snp, i)) s[i] = '1';
  }
  return s;
}

BitMatrix BitMatrix::gather_rows(std::span<const std::size_t> rows) const {
  BitMatrix out(rows.size(), n_samples_);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    LDLA_EXPECT(rows[r] < n_snps_, "gathered row out of range");
    std::memcpy(out.row_data(r), row_data(rows[r]),
                n_words_ * sizeof(std::uint64_t));
  }
  return out;
}

bool BitMatrix::is_polymorphic(std::size_t snp) const {
  const std::uint64_t c = derived_count(snp);
  return c > 0 && c < n_samples_;
}

bool BitMatrix::padding_is_clean() const {
  const std::size_t tail_bits = n_samples_ % 64;
  for (std::size_t s = 0; s < n_snps_; ++s) {
    const std::uint64_t* r = row_data(s);
    if (tail_bits != 0) {
      const std::uint64_t mask = ~((std::uint64_t{1} << tail_bits) - 1);
      if ((r[n_words_ - 1] & mask) != 0) return false;
    }
    for (std::size_t w = n_words_; w < stride_; ++w) {
      if (r[w] != 0) return false;
    }
  }
  return true;
}

}  // namespace ldla
