#include "core/gemm/packed_bit_matrix.hpp"

#include <algorithm>

#include "core/bit_transpose.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace ldla {

std::vector<std::uint32_t> sliver_slots(const std::vector<ColumnKind>& kind,
                                        std::size_t r, std::size_t& dense) {
  std::vector<std::uint32_t> slot((kind.size() + r - 1) / r, kNoSlot);
  dense = 0;
  for (std::size_t s = 0; s < slot.size(); ++s) {
    const std::size_t end = std::min(kind.size(), (s + 1) * r);
    for (std::size_t i = s * r; i < end; ++i) {
      if (kind[i] == ColumnKind::kDense) {
        slot[s] = static_cast<std::uint32_t>(dense++);
        break;
      }
    }
  }
  return slot;
}

PackedBitMatrix::PackedBitMatrix(const BitMatrixView& m, const GemmPlan& plan,
                                 PackSides sides, unsigned threads)
    : plan_(plan),
      n_snps_(m.n_snps),
      n_words_(m.n_words),
      n_samples_(m.n_samples) {
  LDLA_EXPECT(plan.mr != 0 && plan.nr != 0 && plan.ku != 0 &&
                  plan.kc_words != 0,
              "PackedBitMatrix requires a fully resolved plan");
  if (m.n_snps == 0 || m.n_words == 0) {
    return;
  }
  const std::size_t k_padded =
      (n_words_ + plan.ku - 1) / plan.ku * plan.ku;
  kc_ = plan.kc_words < k_padded ? plan.kc_words : k_padded;
  panels_ = (n_words_ + kc_ - 1) / kc_;

  // MAF-adaptive sparse columns: classify every row first, so only the
  // slivers that hold a dense column are packed. Rides the pack phase for
  // attribution.
  {
    LDLA_TRACE_SPAN(kPackA);
    sparse_ = classify_sparse_columns(m, plan.sparse_threshold, threads);
  }
  const bool want_a = sides != PackSides::kB;
  const bool want_b = sides != PackSides::kA;
  if (want_a) {
    pack_side(m, a_, plan.mr, threads);
  }
  if (want_b) {
    if (want_a && plan.nr == plan.mr) {
      b_shares_a_ = true;  // one copy serves both operand sides
    } else {
      pack_side(m, b_, plan.nr, threads);
    }
  }
  derive_hybrid();
  // Any sparse column may become the list side of a gather — even from a
  // partner pack in a cross-matrix call — so the lists and the transpose
  // are built whenever classification found anything. Dense packs skip
  // them.
  if (sparse_.sparse_count != 0) {
    build_sparse_side(m, threads);
  }
}

namespace {

void expect_payload_aligned(const void* p, const char* what) {
  LDLA_EXPECT(reinterpret_cast<std::uintptr_t>(p) % 64 == 0, what);
}

}  // namespace

void PackedBitMatrix::init_sparse_side() {
  LDLA_EXPECT(8 % plan_.mr == 0 && 8 % plan_.nr == 0,
              "the compact transpose needs register tiles that divide 8 rows");
  sm_.group_slot = sliver_slots(sparse_.kind, 8, sm_.row_bytes);
  // The prescaled lists address the transpose in 32-bit byte offsets.
  LDLA_EXPECT(sm_.row_bytes <= UINT32_MAX / n_samples_,
              "sample-major transpose exceeds 32-bit addressing");
  scaled_index_ = AlignedBuffer<std::uint32_t>(sparse_.offset.back());
}

void PackedBitMatrix::build_sparse_side(const BitMatrixView& m,
                                        unsigned threads) {
  LDLA_TRACE_SPAN(kPackA);
  init_sparse_side();  // checks the bound before any allocation
  // The lists are written at their exact CSR sizes, prescaled in the same
  // pass: the gather's address chain is entry-load → scale → byte-load,
  // and baking sample × stride in here removes the multiply latency from
  // every gathered address (the lists are read orders of magnitude more
  // often than they are built).
  extract_sparse_lists(m, sparse_, scaled_index_.data(),
                       static_cast<std::uint32_t>(sm_.row_bytes), threads);
  sm_.owned = AlignedBuffer<std::uint8_t>(n_samples_ * sm_.row_bytes);
  transpose_groups_into(m, sm_.group_slot.data(), sm_.owned.data(),
                        sm_.row_bytes, threads);
  sm_.bytes = sm_.owned.data();
}

void PackedBitMatrix::derive_hybrid() {
  const auto any_sparse = [](const Side& side) {
    return side.dense != side.slot.size();
  };
  hybrid_ = any_sparse(a_) || any_sparse(b_);
}

PackedBitMatrix PackedBitMatrix::pack(const BitMatrixView& m,
                                      const GemmConfig& cfg, PackSides sides,
                                      unsigned threads) {
  return PackedBitMatrix(m, resolve_plan(cfg, m.n_words), sides, threads);
}

PackedBitMatrix PackedBitMatrix::from_external(ExternalPack ext) {
  LDLA_EXPECT(ext.plan.mr != 0 && ext.plan.nr != 0 && ext.plan.ku != 0 &&
                  ext.plan.kc_words != 0,
              "external pack requires a fully resolved plan");
  LDLA_EXPECT(ext.n_snps != 0 && ext.n_words != 0 && ext.n_samples != 0,
              "external pack must describe a non-empty matrix");
  LDLA_EXPECT(ext.sparse.popcount.size() == ext.n_snps &&
                  ext.sparse.kind.size() == ext.n_snps &&
                  ext.sparse.offset.size() == ext.n_snps + 1 &&
                  ext.sparse.offset.back() == ext.sparse.index.size(),
              "external sparse metadata does not cover every column");

  PackedBitMatrix out;
  out.plan_ = ext.plan;
  out.n_snps_ = ext.n_snps;
  out.n_words_ = ext.n_words;
  out.n_samples_ = ext.n_samples;
  const std::size_t k_padded =
      (ext.n_words + ext.plan.ku - 1) / ext.plan.ku * ext.plan.ku;
  out.kc_ = ext.plan.kc_words < k_padded ? ext.plan.kc_words : k_padded;
  out.panels_ = (ext.n_words + out.kc_ - 1) / out.kc_;
  out.sparse_ = std::move(ext.sparse);

  const auto adopt = [&](Side& side, std::size_t r,
                         const std::uint64_t* data, const char* what) {
    const std::size_t words = out.init_side_layout(side, r);
    LDLA_EXPECT((data != nullptr) == (words != 0), what);
    if (data != nullptr) {
      expect_payload_aligned(data, "external sliver payload must be aligned");
    }
    side.ptr = data;
  };
  adopt(out.a_, ext.plan.mr, ext.a_data,
        "external A payload must be present exactly when a sliver is dense");
  if (ext.plan.nr != ext.plan.mr) {
    adopt(out.b_, ext.plan.nr, ext.b_data,
          "external B payload must be present exactly when a sliver is "
          "dense");
  } else {
    out.b_shares_a_ = true;
  }
  out.derive_hybrid();

  if (out.sparse_.sparse_count == 0) {
    LDLA_EXPECT(ext.sample_major == nullptr,
                "external pack carries a transpose but no sparse column");
    return out;
  }
  out.init_sparse_side();
  LDLA_EXPECT((ext.sample_major != nullptr) == (out.sm_.row_bytes != 0),
              "external transpose must be present exactly when a group "
              "holds a dense column");
  if (ext.sample_major != nullptr) {
    expect_payload_aligned(ext.sample_major,
                           "external sample-major payload must be aligned");
  }
  out.sm_.bytes = ext.sample_major;
  const auto scale = static_cast<std::uint32_t>(out.sm_.row_bytes);
  const std::vector<std::uint32_t>& index = out.sparse_.index;
  for (std::size_t j = 0; j < index.size(); ++j) {
    out.scaled_index_[j] = index[j] * scale;
  }
  return out;
}

std::size_t PackedBitMatrix::init_side_layout(Side& side, std::size_t r) const {
  side.r = r;
  side.slot = sliver_slots(sparse_.kind, r, side.dense);
  side.panel_offset.resize(panels_ + 1);
  std::size_t words = 0;
  for (std::size_t p = 0; p < panels_; ++p) {
    side.panel_offset[p] = words;
    words += side.dense * r * panel_kc_padded(p);
  }
  side.panel_offset[panels_] = words;
  side.words = words;
  return words;
}

void PackedBitMatrix::pack_side(const BitMatrixView& m, Side& side,
                                std::size_t r, unsigned threads) {
  const std::size_t words = init_side_layout(side, r);
  side.data = AlignedBuffer<std::uint64_t>(words);
  side.ptr = side.data.data();
  // Team pack: each member owns a disjoint sliver range of every k panel.
  // pack_panel writes only its slivers' words and self-accounts the pack
  // counters, so the result (and the counter totals) are identical to the
  // sequential pack; one run_tasks barrier joins the side. Consecutive
  // dense slivers hold consecutive slots, so each run of them is one
  // pack_panel call.
  run_split(side.slot.size(), threads, [&](Range range) {
    LDLA_TRACE_SPAN_EXPR(r == plan_.mr ? trace::Phase::kPackA
                                       : trace::Phase::kPackB);
    for (std::size_t s0 = range.begin; s0 < range.end;) {
      if (side.slot[s0] == kNoSlot) {
        ++s0;
        continue;
      }
      std::size_t s1 = s0 + 1;
      while (s1 < range.end && side.slot[s1] != kNoSlot) ++s1;
      const std::size_t row_begin = s0 * r;
      const std::size_t rows = std::min((s1 - s0) * r, n_snps_ - row_begin);
      for (std::size_t p = 0; p < panels_; ++p) {
        pack_panel(m, row_begin, rows, panel_k_begin(p), panel_kc(p), r,
                   plan_.ku,
                   side.data.data() + side.panel_offset[p] +
                       side.slot[s0] * r * panel_kc_padded(p));
      }
      s0 = s1;
    }
  });
}

PackedPanelView PackedBitMatrix::side_panel(const Side& side, std::size_t p,
                                            std::size_t sliver_begin,
                                            std::size_t slivers) const {
  LDLA_BOUNDS_CHECK(p < panels_, "k panel index out of range");
  LDLA_BOUNDS_CHECK(sliver_begin <= side.slot.size() &&
                        slivers <= side.slot.size() - sliver_begin,
                    "packed sliver range out of range");
  LDLA_TRACE_ADD_REUSE(static_cast<std::uint64_t>(slivers));
  return PackedPanelView{side.ptr + side.panel_offset[p], slivers, side.r,
                         panel_kc_padded(p), side.slot.data() + sliver_begin};
}

PackedPanelView PackedBitMatrix::a_panel(std::size_t p,
                                         std::size_t sliver_begin,
                                         std::size_t slivers) const {
  LDLA_EXPECT(has_a_side(), "PackedBitMatrix was packed without an A side");
  return side_panel(a_, p, sliver_begin, slivers);
}

PackedPanelView PackedBitMatrix::b_panel(std::size_t p,
                                         std::size_t sliver_begin,
                                         std::size_t slivers) const {
  LDLA_EXPECT(has_b_side(), "PackedBitMatrix was packed without a B side");
  return side_panel(b_shares_a_ ? a_ : b_, p, sliver_begin, slivers);
}

BitMatrix unpack_packed(const PackedBitMatrix& p) {
  LDLA_EXPECT(p.has_a_side() || p.has_b_side(),
              "cannot unpack a PackedBitMatrix with no materialized side");
  BitMatrix m(p.snps(), p.samples());
  if (p.empty() || p.words_per_snp() == 0) return m;
  LDLA_EXPECT(m.words_per_snp() == p.words_per_snp(),
              "packed word count inconsistent with the sample count");
  const std::size_t ku = p.plan().ku;
  const bool use_a = p.has_a_side();
  const std::size_t r = use_a ? p.plan().mr : p.plan().nr;
  const std::size_t slivers = (p.snps() + r - 1) / r;
  const auto sparse = [&](std::size_t s) {
    return use_a ? p.a_sliver_sparse(s) : p.b_sliver_sparse(s);
  };
  for (std::size_t panel = 0; panel < p.panels(); ++panel) {
    const std::size_t k_begin = p.panel_k_begin(panel);
    const std::size_t kc = p.panel_kc(panel);
    const PackedPanelView v = use_a ? p.a_panel(panel, 0, slivers)
                                    : p.b_panel(panel, 0, slivers);
    for (std::size_t s = 0; s < slivers; ++s) {
      if (sparse(s)) continue;
      const std::uint64_t* sp = v.sliver(s);
      const std::size_t row_lo = s * r;
      const std::size_t rows = std::min(r, p.snps() - row_lo);
      // Sliver layout (kernel.hpp): within a ku chunk, row i's words sit at
      // sp[i*ku + kk]; each chunk advances sp by r*ku. Words past kc are
      // pack padding (zero) and are skipped rather than copied out.
      for (std::size_t chunk = 0; chunk * ku < kc; ++chunk) {
        for (std::size_t i = 0; i < rows; ++i) {
          std::uint64_t* dst = m.row_data(row_lo + i);
          for (std::size_t kk = 0; kk < ku; ++kk) {
            const std::size_t kidx = chunk * ku + kk;
            if (kidx < kc) {
              dst[k_begin + kidx] = sp[(chunk * r + i) * ku + kk];
            }
          }
        }
      }
    }
  }
  // The rows of all-sparse slivers exist only as lists: a kList row's
  // entries are its set bits, a kComplement row's its zero bits.
  const SparseColumns& sc = p.sparse_columns();
  for (std::size_t s = 0; s < slivers; ++s) {
    if (!sparse(s)) continue;
    for (std::size_t row = s * r; row < std::min(p.snps(), s * r + r);
         ++row) {
      const bool comp = sc.kind[row] == ColumnKind::kComplement;
      for (std::size_t b = 0; comp && b < p.samples(); ++b) {
        m.set(row, b, true);
      }
      for (std::size_t e = 0; e < sc.list_size(row); ++e) {
        m.set(row, sc.list(row)[e], !comp);
      }
    }
  }
  return m;
}

SampleMajor sample_major_from_slivers(const PackedBitMatrix& p) {
  LDLA_EXPECT(!p.has_sample_major(), "the pack carries its own transpose");
  SampleMajor sm;
  if (p.empty()) return sm;
  const BitMatrix rows = unpack_packed(p);
  sm.group_slot = sliver_slots(p.sparse_columns().kind, 8, sm.row_bytes);
  sm.owned = AlignedBuffer<std::uint8_t>(p.samples() * sm.row_bytes);
  transpose_groups_into(rows.view(), sm.group_slot.data(), sm.owned.data(),
                        sm.row_bytes);
  sm.bytes = sm.owned.data();
  return sm;
}

void expect_packed_matches(const PackedBitMatrix& p, const BitMatrixView& m) {
  LDLA_EXPECT(p.snps() == m.n_snps && p.words_per_snp() == m.n_words &&
                  p.samples() == m.n_samples,
              "packed operand shape does not match the bit matrix");
}

const PackedBitMatrix& resolve_packed(const BitMatrixView& m,
                                      const GemmConfig& cfg,
                                      const PackedBitMatrix* supplied,
                                      PackSides sides,
                                      std::optional<PackedBitMatrix>& own,
                                      unsigned threads) {
  if (supplied != nullptr) {
    expect_packed_matches(*supplied, m);
    return *supplied;
  }
  own.emplace(m, resolve_plan(cfg, m.n_words), sides, threads);
  return *own;
}

}  // namespace ldla
