// Bit-packed genomic matrix — the storage layout of Fig. 2 in the paper.
//
// Each SNP is a vector of Nseq binary allelic states (0 = ancestral,
// 1 = derived under the infinite-sites model), packed 64 states per
// unsigned 64-bit word and zero-padded so the word count is a whole number.
// We store SNPs as *rows* (the paper's Fig. 2 shows SNPs as columns of G;
// rows of this structure are exactly those columns), so the haplotype-count
// GEMM  H = G^T G  becomes  C = A * B^T  with unit-stride access on both
// operands.
//
// The row stride is additionally rounded up to 8 words (64 bytes) so every
// row starts cache-line aligned and AVX-512 kernels can use aligned loads.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"

namespace ldla {

/// Non-owning view of a range of packed SNP rows; the GEMM operand type.
struct BitMatrixView {
  const std::uint64_t* data = nullptr;
  std::size_t n_snps = 0;        ///< number of rows (SNPs)
  std::size_t n_words = 0;       ///< payload words per row (⌈samples/64⌉)
  std::size_t stride_words = 0;  ///< allocated words per row (>= n_words)
  std::size_t n_samples = 0;     ///< logical bits per row

  /// Row pointer; bounds-checked in debug / checked builds.
  [[nodiscard]] const std::uint64_t* row(std::size_t snp) const {
    LDLA_BOUNDS_CHECK(snp < n_snps, "view row index out of range");
    return data + snp * stride_words;
  }
  [[nodiscard]] bool empty() const noexcept { return n_snps == 0; }
};

class BitMatrix {
 public:
  /// Words per 64-byte alignment unit.
  static constexpr std::size_t kRowAlignWords = 8;

  BitMatrix() = default;

  /// All states initialized to zero (ancestral).
  BitMatrix(std::size_t n_snps, std::size_t n_samples);

  BitMatrix(BitMatrix&&) noexcept = default;
  BitMatrix& operator=(BitMatrix&&) noexcept = default;
  BitMatrix(const BitMatrix&) = delete;
  BitMatrix& operator=(const BitMatrix&) = delete;

  /// A matrix whose words, padding included, are left unset: for readers
  /// that write every word anyway (the .ldm reader) and would otherwise
  /// pay for zeroing them first. Before the matrix is used the caller must
  /// write all stride_words() words of every row — the payload with its
  /// tail bits past samples() clear, and zero pad words.
  static BitMatrix uninitialized(std::size_t n_snps, std::size_t n_samples);

  /// Deep copy (explicit, because rows can be hundreds of MB).
  [[nodiscard]] BitMatrix clone() const;

  /// Build from per-SNP state strings of '0'/'1' characters; every string
  /// must have the same length (= sample count). Throws ParseError on any
  /// other character.
  static BitMatrix from_snp_strings(std::span<const std::string> snps);

  [[nodiscard]] std::size_t snps() const noexcept { return n_snps_; }
  [[nodiscard]] std::size_t samples() const noexcept { return n_samples_; }
  [[nodiscard]] std::size_t words_per_snp() const noexcept { return n_words_; }
  [[nodiscard]] std::size_t stride_words() const noexcept { return stride_; }

  void set(std::size_t snp, std::size_t sample, bool derived);
  [[nodiscard]] bool get(std::size_t snp, std::size_t sample) const;

  /// Raw row pointers; bounds-checked in debug / checked builds.
  [[nodiscard]] std::uint64_t* row_data(std::size_t snp) {
    LDLA_BOUNDS_CHECK(snp < n_snps_, "SNP row index out of range");
    return words_.data() + snp * stride_;
  }
  [[nodiscard]] const std::uint64_t* row_data(std::size_t snp) const {
    LDLA_BOUNDS_CHECK(snp < n_snps_, "SNP row index out of range");
    return words_.data() + snp * stride_;
  }
  [[nodiscard]] std::span<const std::uint64_t> row(std::size_t snp) const {
    return {row_data(snp), n_words_};
  }

  /// Number of derived alleles in a SNP (the s_i^T s_i of Eq. 3).
  [[nodiscard]] std::uint64_t derived_count(std::size_t snp) const;

  /// Allele frequency P_i = derived_count / samples (Eq. 3).
  [[nodiscard]] double allele_frequency(std::size_t snp) const;

  /// All allele frequencies as the paper's vector p.
  [[nodiscard]] std::vector<double> allele_frequencies() const;

  /// View over the whole matrix, or over a contiguous SNP range.
  [[nodiscard]] BitMatrixView view() const noexcept;
  [[nodiscard]] BitMatrixView view(std::size_t snp_begin,
                                   std::size_t snp_end) const;

  /// '0'/'1' string of one SNP (tests / debugging).
  [[nodiscard]] std::string snp_string(std::size_t snp) const;

  /// New matrix holding the given SNP rows (in the given order). Used to
  /// compact windows after filtering (e.g. dropping monomorphic SNPs).
  [[nodiscard]] BitMatrix gather_rows(std::span<const std::size_t> rows) const;

  /// True when SNP has at least one ancestral and one derived state.
  [[nodiscard]] bool is_polymorphic(std::size_t snp) const;

  /// True when every padding bit beyond `samples()` is zero — an invariant
  /// every mutator must maintain (checked by tests and the I/O layer).
  [[nodiscard]] bool padding_is_clean() const;

 private:
  struct Unset {};
  BitMatrix(std::size_t n_snps, std::size_t n_samples, Unset);

  std::size_t n_snps_ = 0;
  std::size_t n_samples_ = 0;
  std::size_t n_words_ = 0;
  std::size_t stride_ = 0;
  AlignedBuffer<std::uint64_t> words_;
};

/// Words needed for `bits` packed samples.
[[nodiscard]] constexpr std::size_t words_for_bits(std::size_t bits) {
  return (bits + 63) / 64;
}

}  // namespace ldla
