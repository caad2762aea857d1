#include "core/gemm/packing.hpp"

#include <cstring>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/gemm/packed_bit_matrix.hpp"
#include "sim/maf_spectrum.hpp"
#include "sim/rng.hpp"
#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

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

// Reference: word k of row r, or zero beyond the payload.
std::uint64_t source_word(const BitMatrix& m, std::size_t row, std::size_t k) {
  if (row >= m.snps() || k >= m.words_per_snp()) return 0;
  return m.row_data(row)[k];
}

// Verify the documented layout: out[sliver][ (kchunk*r + i)*ku + kk ].
void check_packed(const BitMatrix& m, std::size_t row_begin, std::size_t rows,
                  std::size_t k_begin, std::size_t kc, std::size_t r,
                  std::size_t ku) {
  const std::size_t size = packed_panel_words(rows, kc, r, ku);
  AlignedBuffer<std::uint64_t> out(size);
  for (auto& w : out) w = 0xdeadbeefcafef00dull;  // detect unwritten slots
  pack_panel(m.view(), row_begin, rows, k_begin, kc, r, ku, out.data());

  const std::size_t slivers = (rows + r - 1) / r;
  const std::size_t kc_padded = (kc + ku - 1) / ku * ku;
  for (std::size_t s = 0; s < slivers; ++s) {
    const std::uint64_t* sliver = out.data() + s * r * kc_padded;
    for (std::size_t kchunk = 0; kchunk < kc_padded / ku; ++kchunk) {
      for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t kk = 0; kk < ku; ++kk) {
          const std::size_t k = kchunk * ku + kk;
          const std::size_t row_local = s * r + i;
          std::uint64_t expected = 0;
          if (row_local < rows && k < kc) {
            expected = source_word(m, row_begin + row_local, k_begin + k);
          }
          EXPECT_EQ(sliver[(kchunk * r + i) * ku + kk], expected)
              << "sliver=" << s << " kchunk=" << kchunk << " i=" << i
              << " kk=" << kk;
        }
      }
    }
  }
}

TEST(Packing, PanelWordsAccountsForRounding) {
  EXPECT_EQ(packed_panel_words(4, 8, 4, 1), 32u);
  EXPECT_EQ(packed_panel_words(5, 8, 4, 1), 64u);   // 2 slivers
  EXPECT_EQ(packed_panel_words(4, 7, 4, 4), 32u);   // kc pads 7 -> 8
  EXPECT_EQ(packed_panel_words(1, 1, 2, 8), 16u);
}

TEST(Packing, ExactFitScalarLayout) {
  const BitMatrix m = random_matrix(8, 256, 1);
  check_packed(m, 0, 8, 0, 4, 4, 1);
}

TEST(Packing, EdgeRowsZeroPadded) {
  const BitMatrix m = random_matrix(10, 256, 2);
  check_packed(m, 8, 2, 0, 4, 4, 1);   // only 2 of 4 sliver rows exist
  check_packed(m, 0, 10, 0, 4, 4, 1);  // 3 slivers, last partial
}

TEST(Packing, KTailZeroPadded) {
  const BitMatrix m = random_matrix(4, 100, 3);  // 2 payload words
  check_packed(m, 0, 4, 0, 5, 4, 1);             // kc beyond payload
  check_packed(m, 0, 4, 1, 4, 4, 1);             // offset k range
}

TEST(Packing, VectorKernelChunking) {
  const BitMatrix m = random_matrix(6, 64 * 20, 4);
  check_packed(m, 0, 6, 0, 20, 2, 4);   // AVX2-style r=2, ku=4
  check_packed(m, 0, 6, 0, 20, 4, 8);   // AVX512-style r=4, ku=8
  check_packed(m, 0, 6, 4, 13, 4, 8);   // ragged kc with ku=8
}

TEST(Packing, MidMatrixBlock) {
  const BitMatrix m = random_matrix(64, 64 * 6, 5);
  check_packed(m, 17, 31, 2, 3, 4, 1);
}

TEST(Packing, RejectsOutOfRangeStart) {
  const BitMatrix m = random_matrix(4, 64, 6);
  AlignedBuffer<std::uint64_t> out(packed_panel_words(4, 1, 4, 1));
  EXPECT_THROW(pack_panel(m.view(), 5, 1, 0, 1, 4, 1, out.data()),
               ContractViolation);
  EXPECT_THROW(pack_panel(m.view(), 0, 1, 2, 1, 4, 1, out.data()),
               ContractViolation);
  EXPECT_THROW(pack_panel(m.view(), 0, 1, 0, 1, 0, 1, out.data()),
               ContractViolation);
}

// unpack_packed is the exact inverse of the persistent pack, across ragged
// row/word edges, multiple k panels, and ku interleaves — on a dense panel
// and on a rare one under the auto threshold, whose all-sparse slivers
// come back from their lists. The shard store's integrity check depends
// on this round trip being lossless.
TEST(Packing, UnpackPackedRoundTripsEveryGeometry) {
  MafSpectrumParams rare;
  rare.n_snps = 37;
  rare.n_samples = 64 * 5 + 29;
  rare.rare_fraction = 0.9;
  rare.rare_max_maf = 0.01;
  rare.seed = 11;
  std::vector<BitMatrix> panels;
  panels.push_back(random_matrix(37, 64 * 5 + 29, 11));
  panels.push_back(simulate_maf_spectrum(rare));
  for (const BitMatrix& m : panels) {
    bool any_sparse_sliver = false;
    for (const auto& [mr, nr, ku] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{4, 4, 1},
          {2, 8, 1},
          {4, 4, 4},
          {8, 4, 1}}) {
      GemmPlan plan;
      plan.arch = KernelArch::kScalar;
      plan.mr = mr;
      plan.nr = nr;
      plan.ku = ku;
      plan.kc_words = 3;  // forces several panels with a ragged tail
      plan.sparse_threshold = m.words_per_snp();  // the auto threshold
      for (const PackSides sides :
           {PackSides::kBoth, PackSides::kA, PackSides::kB}) {
        const PackedBitMatrix packed(m.view(), plan, sides);
        any_sparse_sliver = any_sparse_sliver || packed.hybrid_dispatch();
        const BitMatrix back = unpack_packed(packed);
        ASSERT_EQ(back.snps(), m.snps());
        ASSERT_EQ(back.samples(), m.samples());
        for (std::size_t s = 0; s < m.snps(); ++s) {
          ASSERT_EQ(std::memcmp(back.row_data(s), m.row_data(s),
                                m.words_per_snp() * 8),
                    0)
              << "mr=" << mr << " nr=" << nr << " ku=" << ku << " row "
              << s;
        }
        EXPECT_TRUE(back.padding_is_clean());
      }
    }
    // The dense panel stores every sliver densely; the rare one has
    // slivers stored only as lists.
    EXPECT_EQ(any_sparse_sliver, &m == &panels.back());
  }
}

}  // namespace
}  // namespace ldla
