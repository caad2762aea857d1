#include "core/bit_transpose.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace ldla {
namespace {

TEST(Transpose64, IdentityAndDiagonalBlocks) {
  std::array<std::uint64_t, 64> zero{};
  transpose_64x64(zero);
  for (const auto w : zero) EXPECT_EQ(w, 0u);

  std::array<std::uint64_t, 64> diag{};
  for (unsigned i = 0; i < 64; ++i) diag[i] = std::uint64_t{1} << i;
  transpose_64x64(diag);
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_EQ(diag[i], std::uint64_t{1} << i) << "diagonal must be fixed";
  }
}

TEST(Transpose64, MatchesPerBitReference) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::array<std::uint64_t, 64> block;
    for (auto& w : block) w = rng.next_u64();
    const std::array<std::uint64_t, 64> original = block;
    transpose_64x64(block);
    for (unsigned r = 0; r < 64; ++r) {
      for (unsigned c = 0; c < 64; ++c) {
        const bool orig = (original[r] >> c) & 1u;
        const bool flip = (block[c] >> r) & 1u;
        ASSERT_EQ(orig, flip) << "trial " << trial << " (" << r << "," << c
                              << ")";
      }
    }
  }
}

TEST(Transpose64, InvolutionRestoresInput) {
  Rng rng(2);
  std::array<std::uint64_t, 64> block;
  for (auto& w : block) w = rng.next_u64();
  const auto original = block;
  transpose_64x64(block);
  transpose_64x64(block);
  EXPECT_EQ(block, original);
}

TEST(Transpose64, VectorKernelMatchesScalar) {
  const BlockTransposeFn vector = vector_block_transpose();
  if (vector == nullptr) GTEST_SKIP() << "no vector block kernel on this CPU";
  Rng rng(3);
  for (std::size_t trial = 0; trial < 200; ++trial) {
    // Strided source and destination, as the tiled transpose calls it.
    const std::size_t src_stride = 1 + trial % 5 * 17;
    const std::size_t dst_stride = 1 + trial % 3 * 29;
    std::vector<std::uint64_t> src(64 * src_stride);
    std::vector<std::uint64_t> dst(64 * dst_stride, 0);
    std::array<std::uint64_t, 64> block;
    for (std::size_t i = 0; i < 64; ++i) {
      // Mix dense words with sparse and extreme ones.
      const std::uint64_t r = rng.next_u64();
      block[i] = trial % 4 == 0   ? r & rng.next_u64() & rng.next_u64()
                 : trial % 4 == 1 ? ~std::uint64_t{0} >> (r % 64)
                                  : r;
      src[i * src_stride] = block[i];
    }
    vector(src.data(), src_stride, dst.data(), dst_stride);
    transpose_64x64(block);
    for (std::size_t i = 0; i < 64; ++i) {
      ASSERT_EQ(dst[i * dst_stride], block[i])
          << "trial " << trial << " word " << i;
    }
  }
}

BitMatrix random_matrix(std::size_t snps, std::size_t samples,
                        std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix m(snps, samples);
  for (std::size_t s = 0; s < snps; ++s) {
    for (std::size_t b = 0; b < samples; ++b) {
      if (rng.next_bool(0.5)) m.set(s, b, true);
    }
  }
  return m;
}

TEST(TransposeBits, MatchesPerBitAcrossShapes) {
  for (const auto& [rows, cols] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {1, 64}, {64, 1}, {64, 64}, {65, 63}, {3, 200},
           {200, 3}, {130, 130}, {127, 129}}) {
    const BitMatrix m = random_matrix(rows, cols, rows * 1000 + cols);
    const BitMatrix t = transpose_bits(m);
    ASSERT_EQ(t.snps(), cols);
    ASSERT_EQ(t.samples(), rows);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(m.get(r, c), t.get(c, r))
            << rows << "x" << cols << " at (" << r << "," << c << ")";
      }
    }
    EXPECT_TRUE(t.padding_is_clean());
  }
}

TEST(TransposeBits, DoubleTransposeIsIdentity) {
  const BitMatrix m = random_matrix(77, 201, 9);
  const BitMatrix back = transpose_bits(transpose_bits(m));
  ASSERT_EQ(back.snps(), m.snps());
  ASSERT_EQ(back.samples(), m.samples());
  for (std::size_t s = 0; s < m.snps(); ++s) {
    EXPECT_EQ(back.snp_string(s), m.snp_string(s));
  }
}

TEST(TransposeBits, IntoWritesOnlyItsWordsForEveryTeam) {
  // Several 512-sample column groups, a ragged last group and a ragged
  // last row block; destination rows wider than the transpose.
  const BitMatrix m = random_matrix(700, 1300, 11);
  const BitMatrix t = transpose_bits(m);
  const std::size_t words = (m.snps() + 63) / 64;
  const std::size_t stride = words + 3;
  constexpr std::uint64_t kSentinel = 0xa5a5a5a5a5a5a5a5ull;
  for (const unsigned team : {1u, 2u, 4u, 7u}) {
    std::vector<std::uint64_t> dst(m.samples() * stride + 5, kSentinel);
    transpose_bits_into(m.view(), dst.data(), stride, team);
    for (std::size_t s = 0; s < m.samples(); ++s) {
      for (std::size_t w = 0; w < stride; ++w) {
        const std::uint64_t want = w < words ? t.row_data(s)[w] : kSentinel;
        ASSERT_EQ(dst[s * stride + w], want)
            << "team " << team << " sample " << s << " word " << w;
      }
    }
    for (std::size_t i = m.samples() * stride; i < dst.size(); ++i) {
      ASSERT_EQ(dst[i], kSentinel) << "team " << team << " wrote past the end";
    }
  }
}

TEST(TransposeBits, EmptyMatrix) {
  BitMatrix empty;
  const BitMatrix t = transpose_bits(empty);
  EXPECT_EQ(t.snps(), 0u);
  EXPECT_EQ(t.samples(), 0u);
}

}  // namespace
}  // namespace ldla
