// Per-bit reference tests for the sparse side of PackedBitMatrix: the
// popcounts, kinds, CSR offsets and index lists, the prescaled lists and
// the compact sample-major transpose, each rebuilt here bit by bit from
// BitMatrix::get and compared word for word — across ragged shapes, pack
// team sizes, complement columns whose tail word needs masking, and the
// all-sparse and no-sparse extremes — plus the payload sizes one
// representation per sliver implies.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_matrix.hpp"
#include "core/gemm/config.hpp"
#include "core/gemm/packed_bit_matrix.hpp"
#include "core/gemm/sparse.hpp"
#include "sim/rng.hpp"
#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

// Columns cycle through densities that land on both sides of a threshold
// of samples / 8: empty, a few carriers, half, all but a few (complement
// lists, whose last word carries padding when samples % 64 != 0), all.
BitMatrix mixed_matrix(std::size_t snps, std::size_t samples,
                       std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix m(snps, samples);
  for (std::size_t s = 0; s < snps; ++s) {
    double p = 0.0;
    switch (s % 6) {
      case 0: p = 0.0; break;
      case 1: p = 0.01; break;
      case 2: p = 0.08; break;
      case 3: p = 0.5; break;
      case 4: p = 0.97; break;
      default: p = 1.0;
    }
    for (std::size_t b = 0; b < samples; ++b) {
      if (rng.next_bool(p)) m.set(s, b, true);
    }
  }
  return m;
}

struct Reference {
  std::vector<std::uint32_t> popcount;
  std::vector<ColumnKind> kind;
  std::vector<std::uint64_t> offset;
  std::vector<std::uint32_t> index;
  std::size_t sparse_count = 0;
};

Reference reference_columns(const BitMatrix& g, std::size_t threshold) {
  Reference r;
  r.offset.push_back(0);
  for (std::size_t s = 0; s < g.snps(); ++s) {
    std::uint32_t pc = 0;
    for (std::size_t b = 0; b < g.samples(); ++b) pc += g.get(s, b) ? 1u : 0u;
    ColumnKind kind = ColumnKind::kDense;
    if (threshold != 0 && pc <= threshold) {
      kind = ColumnKind::kList;
    } else if (threshold != 0 && g.samples() - pc <= threshold) {
      kind = ColumnKind::kComplement;
    }
    if (kind != ColumnKind::kDense) {
      ++r.sparse_count;
      const bool want = kind == ColumnKind::kList;
      for (std::size_t b = 0; b < g.samples(); ++b) {
        if (g.get(s, b) == want) {
          r.index.push_back(static_cast<std::uint32_t>(b));
        }
      }
    }
    r.popcount.push_back(pc);
    r.kind.push_back(kind);
    r.offset.push_back(r.index.size());
  }
  return r;
}

// The 8-row groups holding a dense column, in order: the groups the
// compact transpose keeps.
std::vector<std::size_t> kept_groups(const std::vector<ColumnKind>& kind) {
  std::vector<std::size_t> kept;
  for (std::size_t g = 0; g * 8 < kind.size(); ++g) {
    for (std::size_t i = g * 8; i < std::min(kind.size(), g * 8 + 8); ++i) {
      if (kind[i] == ColumnKind::kDense) {
        kept.push_back(g);
        break;
      }
    }
  }
  return kept;
}

// Byte k of sample row s holds rows [8g, 8g + 8) of the k-th kept group g;
// bits past the SNP count are zero.
std::vector<std::uint8_t> reference_transpose(const BitMatrix& g,
                                              const Reference& ref) {
  const std::vector<std::size_t> kept = kept_groups(ref.kind);
  std::vector<std::uint8_t> t(g.samples() * kept.size(), 0);
  for (std::size_t k = 0; k < kept.size(); ++k) {
    for (std::size_t snp = kept[k] * 8;
         snp < std::min(g.snps(), kept[k] * 8 + 8); ++snp) {
      for (std::size_t s = 0; s < g.samples(); ++s) {
        if (g.get(snp, s)) {
          t[s * kept.size() + k] |= static_cast<std::uint8_t>(1u << (snp % 8));
        }
      }
    }
  }
  return t;
}

void expect_columns(const SparseColumns& sc, const Reference& want,
                    const std::string& what) {
  EXPECT_EQ(sc.popcount, want.popcount) << what;
  EXPECT_EQ(sc.kind, want.kind) << what;
  EXPECT_EQ(sc.offset, want.offset) << what;
  EXPECT_EQ(sc.index, want.index) << what;
  EXPECT_EQ(sc.sparse_count, want.sparse_count) << what;
}

void expect_pack(const PackedBitMatrix& p, const Reference& want,
                 const std::vector<std::uint8_t>& transpose,
                 const std::string& what) {
  expect_columns(p.sparse_columns(), want, what);
  if (want.sparse_count == 0) {
    EXPECT_FALSE(p.has_sample_major()) << what;
    EXPECT_EQ(p.scaled_index(), nullptr) << what;
    return;
  }
  ASSERT_TRUE(p.has_sample_major()) << what;
  const std::size_t stride = p.sample_major_stride();
  ASSERT_EQ(stride, kept_groups(want.kind).size()) << what;
  ASSERT_EQ(transpose.size(), p.samples() * stride) << what;
  for (std::size_t b = 0; b < transpose.size(); ++b) {
    ASSERT_EQ(p.sample_major().bytes[b], transpose[b])
        << what << " sample " << b / stride << " byte " << b % stride;
  }
  if (want.index.empty()) return;
  ASSERT_NE(p.scaled_index(), nullptr) << what;
  for (std::size_t j = 0; j < want.index.size(); ++j) {
    ASSERT_EQ(p.scaled_index()[j], want.index[j] * stride)
        << what << " entry " << j;
  }
}

PackedBitMatrix pack_with(const BitMatrix& g, std::size_t threshold,
                          unsigned team) {
  GemmConfig cfg;
  cfg.sparse_threshold = threshold;
  return PackedBitMatrix::pack(g.view(), cfg, PackSides::kBoth, team);
}

TEST(SparsePack, MatchesPerBitReferenceAcrossShapesAndTeams) {
  for (const std::size_t snps : {1u, 63u, 64u, 65u, 513u, 4097u}) {
    for (const std::size_t samples : {1u, 63u, 64u, 65u, 1000u}) {
      const BitMatrix g = mixed_matrix(snps, samples, snps * 1000 + samples);
      const std::size_t threshold = samples / 8 + 1;
      const Reference want = reference_columns(g, threshold);
      const std::vector<std::uint8_t> transpose = reference_transpose(g, want);
      const std::string shape =
          std::to_string(snps) + "x" + std::to_string(samples);
      for (const unsigned team : {1u, 2u, 4u}) {
        expect_pack(pack_with(g, threshold, team), want, transpose,
                    shape + " team " + std::to_string(team));
      }
      expect_columns(build_sparse_columns(g.view(), threshold), want,
                     shape + " build_sparse_columns");
    }
  }
}

TEST(SparsePack, ComplementListsMaskTheTailWord) {
  // Every column all ones but one sample: complement lists of length one,
  // and the set padding bits of ~row must never enter them.
  for (const std::size_t samples : {63u, 65u, 1000u}) {
    BitMatrix g(70, samples);
    for (std::size_t s = 0; s < g.snps(); ++s) {
      for (std::size_t b = 0; b < samples; ++b) {
        if (b != (s * 7) % samples) g.set(s, b, true);
      }
    }
    const Reference want = reference_columns(g, 1);
    ASSERT_EQ(want.sparse_count, g.snps());
    for (const unsigned team : {1u, 4u}) {
      const PackedBitMatrix p = pack_with(g, 1, team);
      expect_pack(p, want, reference_transpose(g, want),
                  "complement " + std::to_string(samples));
      for (std::size_t s = 0; s < g.snps(); ++s) {
        EXPECT_EQ(p.sparse_columns().kind[s], ColumnKind::kComplement);
      }
    }
  }
}

TEST(SparsePack, AllSparseAndNoSparseExtremes) {
  const BitMatrix g = mixed_matrix(513, 1000, 3);
  for (const unsigned team : {1u, 2u, 4u}) {
    // threshold >= samples: every column is a list (kList wins both ways).
    const Reference all = reference_columns(g, g.samples());
    ASSERT_EQ(all.sparse_count, g.snps());
    expect_pack(pack_with(g, g.samples(), team), all,
                reference_transpose(g, all),
                "all-sparse team " + std::to_string(team));
    // threshold 0: nothing is sparse, and no transpose or lists are built.
    const Reference none = reference_columns(g, 0);
    ASSERT_EQ(none.sparse_count, 0u);
    expect_pack(pack_with(g, 0, team), none, {},
                "no-sparse team " + std::to_string(team));
  }
}

TEST(SparsePack, RejectsDirtyRowPadding) {
  BitMatrix g(3, 65);
  const BitMatrixView clean = g.view();
  AlignedBuffer<std::uint64_t> dirty(clean.n_snps * clean.stride_words);
  dirty.zero();
  dirty[clean.stride_words + 1] = std::uint64_t{1} << 5;  // bit 69 of row 1
  BitMatrixView view = clean;
  view.data = dirty.data();
  EXPECT_THROW((void)classify_sparse_columns(view, 4), ContractViolation);
}

TEST(SparsePack, ExternalTransposeBeyond32BitAddressingIsRejected) {
  // The prescaled lists address the transpose in 32-bit byte offsets, so
  // an adopted pack whose transpose spans more than 2^32 bytes must fail
  // the contract before any payload is touched; the payloads here are
  // never read.
  alignas(64) static const std::uint64_t payload[8] = {};
  const auto forged = [&](std::size_t n_snps, std::size_t n_samples) {
    ExternalPack ext;
    ext.n_snps = n_snps;
    ext.n_samples = n_samples;
    ext.n_words = (n_samples + 63) / 64;
    ext.plan = resolve_plan(GemmConfig{}, ext.n_words);
    ext.plan.nr = ext.plan.mr;
    ext.a_data = payload;
    // Half-full columns but one monomorphic one (an empty list), so a
    // transpose is due and every 8-row group holds a dense column.
    std::vector<std::uint32_t> pop(n_snps,
                                   static_cast<std::uint32_t>(n_samples / 2));
    pop[0] = 0;
    ext.sparse = classify_popcounts(std::move(pop), n_samples, 1);
    ext.sample_major = reinterpret_cast<const std::uint8_t*>(payload);
    return ext;
  };
  // 2^29 samples x 8 kept groups = 2^32 bytes: one past the range.
  EXPECT_THROW((void)PackedBitMatrix::from_external(forged(64, 1u << 29)),
               ContractViolation);
  // 2^29 x 7 groups fits.
  EXPECT_NO_THROW((void)PackedBitMatrix::from_external(forged(56, 1u << 29)));
}

// One representation per sliver: the dense payload holds exactly the
// slivers with a dense row, the transpose exactly the 8-row groups with
// one, and an all-sparse sliver's dense words do not exist.
TEST(SparsePack, AllSparseSliversStoreNoDenseWords) {
  // Row 8g + 5 is common in every third 8-row group; every other row
  // carries ~1% of the samples.
  const std::size_t snps = 203;
  const std::size_t samples = 300;
  Rng rng(41);
  BitMatrix g(snps, samples);
  for (std::size_t s = 0; s < snps; ++s) {
    const bool dense = (s / 8) % 3 == 0 && s % 8 == 5;
    for (std::size_t b = 0; b < samples; ++b) {
      if (rng.next_bool(dense ? 0.5 : 0.01)) g.set(s, b, true);
    }
  }
  for (const auto& [mr, nr, ku] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{4, 4, 1},
        {2, 8, 1},
        {8, 4, 2}}) {
    GemmPlan plan;
    plan.arch = KernelArch::kScalar;
    plan.mr = mr;
    plan.nr = nr;
    plan.ku = ku;
    plan.kc_words = 3;  // two k panels, the last one ragged
    plan.sparse_threshold = 20;
    const Reference want = reference_columns(g, plan.sparse_threshold);
    for (const unsigned team : {1u, 4u}) {
      const PackedBitMatrix p(g.view(), plan, PackSides::kBoth, team);
      const std::string what = "mr=" + std::to_string(mr) +
                               " nr=" + std::to_string(nr) + " team " +
                               std::to_string(team);
      ASSERT_TRUE(p.hybrid_dispatch()) << what;
      // Dense slivers of an r grid, counted from the reference kinds.
      const auto dense_slivers = [&](std::size_t r) {
        std::size_t dense = 0;
        for (std::size_t s = 0; s * r < snps; ++s) {
          bool any = false;
          for (std::size_t i = s * r; i < std::min(snps, s * r + r); ++i) {
            any = any || want.kind[i] == ColumnKind::kDense;
          }
          dense += any ? 1 : 0;
        }
        return dense;
      };
      std::size_t kcp_sum = 0;
      for (std::size_t panel = 0; panel < p.panels(); ++panel) {
        kcp_sum += p.panel_kc_padded(panel);
      }
      std::size_t words = dense_slivers(mr) * mr * kcp_sum;
      if (nr != mr) words += dense_slivers(nr) * nr * kcp_sum;
      EXPECT_EQ(p.packed_words(), words) << what;
      EXPECT_LT(p.packed_words(),
                (mr == nr ? 1 : 2) * ((snps + 7) / 8 * 8) * kcp_sum)
          << what << ": the dense payload must shrink";
      const std::vector<std::size_t> kept = kept_groups(want.kind);
      EXPECT_EQ(p.sample_major_stride(), kept.size()) << what;
      EXPECT_EQ(p.sample_major().owned.size(), samples * kept.size())
          << what;
      // The unpacked rows come back whole from slivers and lists.
      const BitMatrix back = unpack_packed(p);
      for (std::size_t s = 0; s < snps; ++s) {
        ASSERT_EQ(std::memcmp(back.row_data(s), g.row_data(s),
                              g.words_per_snp() * 8),
                  0)
            << what << " row " << s;
      }
      if (LDLA_CHECKED_BUILD) {
        std::size_t sparse = 0;
        while (!p.a_sliver_sparse(sparse)) ++sparse;
        const PackedPanelView v = p.a_panel(0, 0, (snps + mr - 1) / mr);
        EXPECT_THROW((void)v.sliver(sparse), ContractViolation) << what;
        EXPECT_THROW((void)p.sample_major().column(8), ContractViolation)
            << what << ": group 1 holds no dense column";
      }
    }
  }
}

}  // namespace
}  // namespace ldla
