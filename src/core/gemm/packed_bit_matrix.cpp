#include "core/gemm/packed_bit_matrix.hpp"

#include <algorithm>

#include "core/bit_transpose.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace ldla {

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

  // MAF-adaptive sparse columns: classify every row from the same matrix
  // the slivers were packed from. Rides the pack phase for attribution.
  {
    LDLA_TRACE_SPAN(kPackA);
    sparse_ = classify_sparse_columns(m, plan.sparse_threshold, threads);
  }
  derive_sliver_flags();
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
  const std::size_t stride = words_for_bits(n_snps_);
  // The prescaled lists address the sample-major transpose in 32-bit words.
  LDLA_EXPECT(stride <= UINT32_MAX / n_samples_,
              "sample-major transpose exceeds 32-bit word addressing");
  sm_stride_ = stride;
  scaled_index_ = AlignedBuffer<std::uint32_t>(sparse_.offset.back());
}

void PackedBitMatrix::build_sparse_side(const BitMatrixView& m,
                                        unsigned threads) {
  LDLA_TRACE_SPAN(kPackA);
  init_sparse_side();  // checks the bound before any allocation
  // The lists are written at their exact CSR sizes, prescaled in the same
  // pass: the gather's address chain is entry-load → scale → word-load,
  // and baking sample × stride in here removes the multiply latency from
  // every gathered address (the lists are read orders of magnitude more
  // often than they are built).
  extract_sparse_lists(m, sparse_, scaled_index_.data(),
                       static_cast<std::uint32_t>(sm_stride_), threads);
  sample_major_ = AlignedBuffer<std::uint64_t>(n_samples_ * sm_stride_);
  transpose_bits_into(m, sample_major_.data(), sm_stride_, threads);
  sm_ptr_ = sample_major_.data();
}

void PackedBitMatrix::derive_sliver_flags() {
  if (sparse_.sparse_count == 0) return;
  if (a_.r != 0) a_sliver_sparse_ = sliver_flags(plan_.mr);
  if (b_.r != 0) b_sliver_sparse_ = sliver_flags(plan_.nr);
  const auto any = [](const std::vector<std::uint8_t>& v) {
    return std::find(v.begin(), v.end(), std::uint8_t{1}) != v.end();
  };
  hybrid_ = any(a_sliver_sparse_) || any(b_sliver_sparse_);
}

std::vector<std::uint8_t> PackedBitMatrix::sliver_flags(std::size_t r) const {
  std::vector<std::uint8_t> flags((n_snps_ + r - 1) / r, std::uint8_t{1});
  for (std::size_t s = 0; s < flags.size(); ++s) {
    const std::size_t end = std::min(n_snps_, (s + 1) * r);
    for (std::size_t i = s * r; i < end; ++i) {
      if (sparse_.kind[i] == ColumnKind::kDense) {
        flags[s] = 0;
        break;
      }
    }
  }
  return flags;
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
  LDLA_EXPECT(ext.a_data != nullptr, "external pack must carry an A payload");
  expect_payload_aligned(ext.a_data, "external A payload must be 64B aligned");

  PackedBitMatrix out;
  out.plan_ = ext.plan;
  out.n_snps_ = ext.n_snps;
  out.n_words_ = ext.n_words;
  out.n_samples_ = ext.n_samples;
  const std::size_t k_padded =
      (ext.n_words + ext.plan.ku - 1) / ext.plan.ku * ext.plan.ku;
  out.kc_ = ext.plan.kc_words < k_padded ? ext.plan.kc_words : k_padded;
  out.panels_ = (ext.n_words + out.kc_ - 1) / out.kc_;

  out.init_side_layout(out.a_, ext.plan.mr);
  out.a_.ptr = ext.a_data;
  if (ext.b_data != nullptr) {
    expect_payload_aligned(ext.b_data,
                           "external B payload must be 64B aligned");
    out.init_side_layout(out.b_, ext.plan.nr);
    out.b_.ptr = ext.b_data;
  } else {
    LDLA_EXPECT(ext.plan.nr == ext.plan.mr,
                "external pack without a B payload requires mr == nr");
    out.b_shares_a_ = true;
  }

  LDLA_EXPECT(ext.sparse.popcount.size() == ext.n_snps &&
                  ext.sparse.kind.size() == ext.n_snps &&
                  ext.sparse.offset.size() == ext.n_snps + 1 &&
                  ext.sparse.offset.back() == ext.sparse.index.size(),
              "external sparse metadata does not cover every column");
  LDLA_EXPECT((ext.sample_major != nullptr) == (ext.sparse.sparse_count != 0),
              "external pack must carry a transpose exactly when a column "
              "is sparse");
  out.sparse_ = std::move(ext.sparse);
  out.derive_sliver_flags();

  if (ext.sample_major != nullptr) {
    expect_payload_aligned(ext.sample_major,
                           "external sample-major payload must be aligned");
    out.init_sparse_side();
    const auto scale = static_cast<std::uint32_t>(out.sm_stride_);
    const std::vector<std::uint32_t>& index = out.sparse_.index;
    for (std::size_t j = 0; j < index.size(); ++j) {
      out.scaled_index_[j] = index[j] * scale;
    }
    out.sm_ptr_ = ext.sample_major;
  }
  return out;
}

std::size_t PackedBitMatrix::init_side_layout(Side& side, std::size_t r) const {
  side.r = r;
  side.slivers = (n_snps_ + r - 1) / r;
  side.panel_offset.resize(panels_ + 1);
  std::size_t words = 0;
  for (std::size_t p = 0; p < panels_; ++p) {
    side.panel_offset[p] = words;
    words += side.slivers * r * panel_kc_padded(p);
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
  // sequential pack; one run_tasks barrier joins the side.
  run_split(side.slivers, threads, [&](Range range) {
    LDLA_TRACE_SPAN_EXPR(r == plan_.mr ? trace::Phase::kPackA
                                       : trace::Phase::kPackB);
    const std::size_t row_begin = range.begin * r;
    const std::size_t rows =
        std::min(range.size() * r, n_snps_ - row_begin);
    for (std::size_t p = 0; p < panels_; ++p) {
      const std::size_t kcp = panel_kc_padded(p);
      pack_panel(m, row_begin, rows, panel_k_begin(p), panel_kc(p), r,
                 plan_.ku,
                 side.data.data() + side.panel_offset[p] +
                     range.begin * r * kcp);
    }
  });
}

PackedPanelView PackedBitMatrix::side_panel(const Side& side, std::size_t p,
                                            std::size_t sliver_begin,
                                            std::size_t slivers) const {
  LDLA_BOUNDS_CHECK(p < panels_, "k panel index out of range");
  LDLA_BOUNDS_CHECK(sliver_begin <= side.slivers &&
                        slivers <= side.slivers - sliver_begin,
                    "packed sliver range out of range");
  const std::size_t kcp = panel_kc_padded(p);
  LDLA_TRACE_ADD_REUSE(static_cast<std::uint64_t>(slivers));
  return PackedPanelView{
      side.ptr + side.panel_offset[p] + sliver_begin * side.r * kcp,
      slivers, side.r, kcp};
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
  for (std::size_t panel = 0; panel < p.panels(); ++panel) {
    const std::size_t k_begin = p.panel_k_begin(panel);
    const std::size_t kc = p.panel_kc(panel);
    const PackedPanelView v = use_a ? p.a_panel(panel, 0, slivers)
                                    : p.b_panel(panel, 0, slivers);
    for (std::size_t s = 0; s < slivers; ++s) {
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
  return m;
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
