// MAF-adaptive sparse dispatch ablation: all-pairs r² across a grid of
// allele-frequency spectra, dense-only control vs hybrid auto-threshold.
//
// The dense popcount-GEMM is data-oblivious — its cost per pair is
// words-per-SNP regardless of content. Real resequencing panels are
// dominated by rare variants (the neutral SFS is ∝ 1/x), so most columns
// carry a handful of set bits and the index-list kernels replace the
// O(words) AND+POPCNT stream with O(allele count) merges. This bench
// measures exactly that crossover:
//
//   - workload grid: rare_fraction in {0, 0.5, 0.8, 0.95} at rare MAF
//     <= 1% (the paper-scale "80% rare" point is the headline row);
//   - arms: sparse_threshold = 0 (dense-only control) vs auto (pack-time
//     crossover threshold = words per SNP);
//   - the all-common control doubles as the regression guard: hybrid
//     dispatch must price at <= a few % there, because pack-time
//     classification finds nothing sparse and every tile takes the
//     unchanged dense path.
//
// Both arms run pack-once: the operand is packed ahead of the timed scan
// and supplied via LdOptions::packed, which is the PackedBitMatrix
// operating mode (pack once per dataset, amortized across every windowed /
// repeated call — DESIGN.md §4.5). Pack times for both arms are printed
// alongside so the one-time classification + sample-major-transpose cost
// of the hybrid arm stays visible rather than hidden.
//
// Two sections then use a rare-variant biobank panel (30 000 SNPs x
// 25 000 haplotypes, rare_fraction 0.95 — the e2ebench rare-band shape;
// smoke mode shrinks it). The banded rows time its one-thread r² band scan
// (bandwidth 500, the e2ebench rare-band job) over a dense-only pack and
// an auto-threshold pack, with exact checksum equality: the layer number
// beside the end-to-end one. The pack-split rows time its hybrid pack stage
// by stage at pack teams 1 and 4, each stage the function the pack calls
// on the inputs the pack gives it: the classification (popcounts, kinds),
// the dense slivers, the lists with their prescaled copy, and the compact
// transpose of the kept 8-row groups. Each row carries the MiB of the
// dense words, the transpose and the lists, and an FNV-1a hash of the
// pack's bytes (dense payload, slot tables, sparse side), which must not
// depend on the team size; the bench fails unless the dense words and
// the transpose bytes are exactly what the sliver flags and the kept
// groups imply.
//
// Dense and hybrid arms are bit-identical by contract (integer counts,
// same tile stream, same epilogue); the checksum comparison is exact
// equality, not a tolerance, and a mismatch fails the bench.
#include "bench_common.hpp"
#include "core/band.hpp"
#include "core/bit_transpose.hpp"
#include "util/thread_pool.hpp"

using namespace ldla;
using namespace ldla::bench;

namespace {

struct ArmResult {
  double seconds = 0.0;
  double checksum = 0.0;
  trace::TraceSnapshot phases;  ///< counter/phase delta over the timed run
};

// Best-of-N trials (1 vCPU noise); each trial's checksum must agree.
template <typename Fn>
ArmResult best_of(int trials, Fn&& fn) {
  ArmResult best;
  for (int t = 0; t < trials; ++t) {
    const ArmResult r = fn();
    if (t == 0 || r.seconds < best.seconds) best = r;
  }
  return best;
}

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void add(const void* p, std::size_t bytes) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < bytes; ++i) {
      h = (h ^ b[i]) * 1099511628211ull;
    }
  }
};

// Dense payload, slot tables, kinds, popcounts, offsets, lists, prescaled
// lists, the transpose's group table and bytes.
std::string pack_hash(const PackedBitMatrix& p) {
  const SparseColumns& sc = p.sparse_columns();
  Fnv1a f;
  if (p.a_data_words() != 0) f.add(p.a_data(), p.a_data_words() * 8);
  if (p.b_data_words() != 0) f.add(p.b_data(), p.b_data_words() * 8);
  for (const std::vector<std::uint32_t>* slot :
       {&p.a_sliver_slots(), &p.b_sliver_slots(),
        &p.sample_major().group_slot}) {
    f.add(slot->data(), slot->size() * sizeof(std::uint32_t));
  }
  f.add(sc.kind.data(), sc.kind.size() * sizeof(ColumnKind));
  f.add(sc.popcount.data(), sc.popcount.size() * sizeof(std::uint32_t));
  f.add(sc.offset.data(), sc.offset.size() * sizeof(std::uint64_t));
  f.add(sc.index.data(), sc.index.size() * sizeof(std::uint32_t));
  if (p.scaled_index() != nullptr) {
    f.add(p.scaled_index(), sc.index.size() * sizeof(std::uint32_t));
  }
  if (p.sample_major_stride() != 0) {
    f.add(p.sample_major().bytes, p.samples() * p.sample_major_stride());
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(f.h));
  return buf;
}

// Best-of-N wall seconds of building fn()'s result; the result is freed
// after the clock stops.
template <typename Fn>
double best_seconds(int trials, Fn&& fn) {
  double best = 0.0;
  for (int t = 0; t < trials; ++t) {
    Timer timer;
    const auto built = fn();
    const double s = timer.seconds();
    if (t == 0 || s < best) best = s;
  }
  return best;
}

// The rare-variant biobank panel of the banded and pack-split rows.
BitMatrix rare95_panel() {
  MafSpectrumParams p;
  p.n_snps = smoke_mode() ? 3000 : 30000;
  p.n_samples = smoke_mode() ? 2500 : 25000;
  p.rare_fraction = 0.95;
  p.seed = 1;
  return simulate_maf_spectrum(p);
}

// The banded rows (see the header comment). Returns false when the dense
// and hybrid checksums differ, or when either arm's visitor receives any
// number of entries but the band's n(W+1) - W(W+1)/2 pairs.
bool band_rows(BenchJson& json, const BitMatrix& g, int trials) {
  constexpr std::size_t kBandwidth = 500;
  const std::uint64_t pairs =
      g.snps() * (kBandwidth + 1) - kBandwidth * (kBandwidth + 1) / 2;
  bool exact = true;
  const auto run = [&](std::size_t threshold) {
    GemmConfig cfg;
    cfg.sparse_threshold = threshold;
    const PackedBitMatrix pk = PackedBitMatrix::pack(g.view(), cfg);
    return best_of(trials, [&] {
      BandOptions opts;
      opts.gemm = cfg;
      opts.packed = &pk;
      double sum = 0.0;
      std::uint64_t entries = 0;
      const trace::TraceSnapshot before = trace::snapshot();
      Timer timer;
      ld_band_scan(g, kBandwidth, [&](const LdTile& t) {
        entries += t.rows * t.cols;
        for (std::size_t i = 0; i < t.rows; ++i) {
          for (std::size_t j = 0; j < t.cols; ++j) {
            const double v = t.at(i, j);
            if (v == v) sum += v;
          }
        }
      }, opts);
      const double seconds = timer.seconds();
      exact = exact && entries == pairs;
      return ArmResult{seconds, sum, trace::snapshot().since(before)};
    });
  };
  const ArmResult dense = run(0);
  const ArmResult hybrid = run(kSparseThresholdAuto);
  const auto rate = static_cast<double>(pairs);
  json.add("band-rare95-dense", "auto", g.snps(), g.samples(), dense.seconds,
           rate / dense.seconds, -1.0, dense.phases);
  json.add("band-rare95-hybrid", "auto", g.snps(), g.samples(),
           hybrid.seconds, rate / hybrid.seconds, -1.0, hybrid.phases);
  json.set_last_speedup(dense.seconds / hybrid.seconds);
  std::printf(
      "\nband scan: %zu x %zu, rare_fraction 0.95, bandwidth %zu, one "
      "thread (best of %d)\n  dense %.3fs, hybrid %.3fs, speedup %.2fx; "
      "list x list tiles %llu, list x dense tiles %llu\n",
      g.snps(), g.samples(), kBandwidth, trials, dense.seconds,
      hybrid.seconds, dense.seconds / hybrid.seconds,
      static_cast<unsigned long long>(hybrid.phases.counters.sparse_ll_tiles),
      static_cast<unsigned long long>(hybrid.phases.counters.sparse_ld_tiles));
  if (dense.checksum != hybrid.checksum) {
    std::printf("BAND CHECKSUM MISMATCH\n");
    return false;
  }
  if (!exact) {
    std::printf("BAND COVERAGE MISMATCH: a visitor did not receive exactly "
                "the %llu in-band pairs\n",
                static_cast<unsigned long long>(pairs));
    return false;
  }
  return true;
}

// The hybrid pack's dense stage, as PackedBitMatrix runs it: pack_panel
// writes each dense sliver of each side into its slot of every k panel,
// a team splitting the slivers.
AlignedBuffer<std::uint64_t> pack_dense_slivers(const BitMatrixView& v,
                                                const PackedBitMatrix& pk,
                                                unsigned team) {
  AlignedBuffer<std::uint64_t> out(pk.packed_words());
  const GemmPlan& plan = pk.plan();
  std::size_t base = 0;
  const auto side = [&](const std::vector<std::uint32_t>& slot,
                        std::size_t r) {
    const auto dense = static_cast<std::size_t>(
        std::count_if(slot.begin(), slot.end(),
                      [](std::uint32_t x) { return x != kNoSlot; }));
    std::vector<std::size_t> panel_base;
    for (std::size_t p = 0; p < pk.panels(); ++p) {
      panel_base.push_back(base);
      base += dense * r * pk.panel_kc_padded(p);
    }
    run_split(slot.size(), team, [&](Range range) {
      for (std::size_t s = range.begin; s < range.end; ++s) {
        if (slot[s] == kNoSlot) continue;
        for (std::size_t p = 0; p < pk.panels(); ++p) {
          pack_panel(v, s * r, std::min(r, v.n_snps - s * r),
                     pk.panel_k_begin(p), pk.panel_kc(p), r, plan.ku,
                     out.data() + panel_base[p] +
                         slot[s] * r * pk.panel_kc_padded(p));
        }
      }
    });
  };
  side(pk.a_sliver_slots(), plan.mr);
  if (plan.nr != plan.mr) side(pk.b_sliver_slots(), plan.nr);
  return out;
}

// True when the pack holds exactly the dense words its sliver flags imply
// and exactly one transpose byte per sample per 8-row group with a dense
// column.
bool pack_sizes_exact(const PackedBitMatrix& pk) {
  const GemmPlan& plan = pk.plan();
  const std::size_t n = pk.snps();
  std::size_t kcp_sum = 0;
  for (std::size_t p = 0; p < pk.panels(); ++p) {
    kcp_sum += pk.panel_kc_padded(p);
  }
  const auto side_words = [&](std::size_t r, bool a_side) {
    std::size_t dense = 0;
    for (std::size_t s = 0; s * r < n; ++s) {
      const bool sparse =
          a_side ? pk.a_sliver_sparse(s) : pk.b_sliver_sparse(s);
      if (!sparse) ++dense;
    }
    return dense * r * kcp_sum;
  };
  std::size_t words = side_words(plan.mr, true);
  if (plan.nr != plan.mr) words += side_words(plan.nr, false);
  const std::vector<ColumnKind>& kind = pk.sparse_columns().kind;
  std::size_t kept = 0;
  for (std::size_t g = 0; g * 8 < n; ++g) {
    const auto first = kind.begin() + static_cast<std::ptrdiff_t>(g * 8);
    const auto last =
        kind.begin() + static_cast<std::ptrdiff_t>(std::min(n, g * 8 + 8));
    if (std::find(first, last, ColumnKind::kDense) != last) ++kept;
  }
  const std::size_t sm_bytes =
      pk.sparse_columns().sparse_count != 0 ? pk.samples() * kept : 0;
  return pk.packed_words() == words &&
         pk.sample_major().owned.size() == sm_bytes;
}

// The pack-split rows (see the header comment). Returns false when the
// pack hash differs between teams or the pack's sizes are not exact.
bool pack_split(BenchJson& json, const BitMatrix& g, int trials) {
  const std::size_t n = g.snps();
  const std::size_t k = g.samples();
  const BitMatrixView v = g.view();
  const GemmPlan plan = gemm_plan_for(v);
  constexpr double kMiB = 1024.0 * 1024.0;

  Table table({"pack team", "classify s", "dense s", "lists s",
               "transpose s", "hybrid pack s", "dense MiB", "transpose MiB",
               "lists MiB", "pack hash"});
  std::string first_hash;
  bool same = true;
  bool exact = true;
  for (const unsigned team : {1u, 4u}) {
    const PackedBitMatrix pk =
        PackedBitMatrix::pack(v, GemmConfig{}, PackSides::kBoth, team);
    const SparseColumns& sc = pk.sparse_columns();
    const SampleMajor& sm = pk.sample_major();
    const double classify_s = best_seconds(trials, [&] {
      return classify_sparse_columns(v, plan.sparse_threshold, team);
    });
    const double dense_s =
        best_seconds(trials, [&] { return pack_dense_slivers(v, pk, team); });
    const double lists_s = best_seconds(trials, [&] {
      SparseColumns lists = sc;
      AlignedBuffer<std::uint32_t> scaled(sc.offset.back());
      extract_sparse_lists(v, lists, scaled.data(),
                           static_cast<std::uint32_t>(sm.row_bytes), team);
      return std::make_pair(std::move(lists), std::move(scaled));
    });
    const double transpose_s = best_seconds(trials, [&] {
      AlignedBuffer<std::uint8_t> bytes(k * sm.row_bytes);
      transpose_groups_into(v, sm.group_slot.data(), bytes.data(),
                            sm.row_bytes, team);
      return bytes;
    });
    const double pack_s = best_seconds(trials, [&] {
      return PackedBitMatrix::pack(v, GemmConfig{}, PackSides::kBoth, team);
    });
    const double dense_mib =
        static_cast<double>(pk.packed_words() * 8) / kMiB;
    const double transpose_mib = static_cast<double>(sm.owned.size()) / kMiB;
    // The lists and their prescaled copy.
    const double lists_mib =
        static_cast<double>(2 * sc.index.size() * sizeof(std::uint32_t)) /
        kMiB;
    const std::string hash = pack_hash(pk);
    if (first_hash.empty()) first_hash = hash;
    same = same && hash == first_hash;
    exact = exact && pack_sizes_exact(pk);

    char label[32];
    std::snprintf(label, sizeof label, "pack-rare95-t%u", team);
    json.add(label, "auto", n, k, pack_s, 0.0);
    json.set_last_field("pack_team", static_cast<double>(team));
    json.set_last_field("classify_s", classify_s);
    json.set_last_field("dense_s", dense_s);
    json.set_last_field("lists_s", lists_s);
    json.set_last_field("transpose_s", transpose_s);
    json.set_last_field("dense_mib", dense_mib);
    json.set_last_field("transpose_mib", transpose_mib);
    json.set_last_field("lists_mib", lists_mib);
    json.set_last_field("pack_hash", hash);
    table.add_row({std::to_string(team), fmt_fixed(classify_s, 3),
                   fmt_fixed(dense_s, 3), fmt_fixed(lists_s, 3),
                   fmt_fixed(transpose_s, 3), fmt_fixed(pack_s, 3),
                   fmt_fixed(dense_mib, 1), fmt_fixed(transpose_mib, 1),
                   fmt_fixed(lists_mib, 1), hash});
  }
  std::printf("\npack split: %zu x %zu, rare_fraction 0.95 (best of %d)\n", n,
              k, trials);
  std::fputs(table.str().c_str(), stdout);
  if (!same) std::printf("PACK-SPLIT HASH DIFFERS ACROSS TEAMS\n");
  if (!exact) {
    std::printf("PACK SIZES DIFFER FROM THE SLIVER FLAGS AND KEPT GROUPS\n");
  }
  return same && exact;
}

}  // namespace

int main(int argc, char** argv) {
  maybe_start_trace(argc, argv, "maf_sweep");
  print_header("MAF sweep — sparse/hybrid dispatch vs dense-only control",
               "perf tentpole: index-list kernels exploit the rare-variant "
               "excess of real site-frequency spectra");

  const int trials = smoke_mode() ? 1 : 3;
  BenchJson json("maf_sweep");
  Table table(
      {"workload", "sparse cols", "dense s", "hybrid s", "speedup"});
  int rc = 0;

  // Large sample counts make the dense words-per-SNP cost heavy enough for
  // the sparse crossover to show — this is the cohort-scale regime the
  // sparse dispatch targets (the 1/x spectrum keeps rare allele COUNTS
  // near-constant as samples grow, so list cost stays flat while dense
  // cost grows linearly). SNP counts keep total runtime bounded.
  const std::size_t n = full_mode() ? 2048 : smoke_mode() ? 192 : 1024;
  const std::size_t k = full_mode() ? 65536 : smoke_mode() ? 1024 : 32768;

  const double rare_grid[] = {0.0, 0.5, 0.8, 0.95};
  double common_speedup = 0.0;
  double rare80_speedup = 0.0;

  for (const double rare_fraction : rare_grid) {
    MafSpectrumParams p;
    p.n_snps = n;
    p.n_samples = k;
    p.rare_fraction = rare_fraction;
    p.rare_max_maf = 0.01;
    // The all-common control floors the spectrum at 5% MAF so NOTHING
    // classifies sparse — the neutral 1/x spectrum is otherwise itself
    // rare-dominated and would dilute the regression guard.
    if (rare_fraction == 0.0) p.min_maf = 0.05;
    p.seed = 6000 + static_cast<std::uint64_t>(rare_fraction * 100.0);
    const BitMatrix g = simulate_maf_spectrum(p);

    // Report how the pack-time classifier actually sees this panel.
    const GemmPlan plan = gemm_plan_for(g.view());
    const SparseColumns sc =
        classify_sparse_columns(g.view(), plan.sparse_threshold);
    const double sparse_pct =
        100.0 * static_cast<double>(sc.sparse_count) / static_cast<double>(n);
    std::printf(
        "panel rare_fraction=%.2f: %zu x %zu, auto threshold %zu set bits, "
        "%zu/%zu columns sparse (%.1f%%)\n",
        rare_fraction, n, k, plan.sparse_threshold, sc.sparse_count, n,
        sparse_pct);

    // Pack once per arm, outside the timed region (the PackedBitMatrix
    // operating mode); the pack cost — including the hybrid arm's
    // classification and sample-major transpose — is timed and printed on
    // its own so nothing is hidden.
    const auto pack_arm = [&](std::size_t threshold, double* pack_seconds) {
      GemmConfig pcfg;
      pcfg.sparse_threshold = threshold;
      Timer timer;
      PackedBitMatrix pk = PackedBitMatrix::pack(g.view(), pcfg);
      *pack_seconds = timer.seconds();
      return pk;
    };
    double dense_pack_s = 0.0;
    double hybrid_pack_s = 0.0;
    const PackedBitMatrix dense_pack = pack_arm(0, &dense_pack_s);
    const PackedBitMatrix hybrid_pack =
        pack_arm(kSparseThresholdAuto, &hybrid_pack_s);
    std::printf("  pack: dense %.3fs, hybrid %.3fs (classify, dense slivers, "
                "lists, transpose)\n",
                dense_pack_s, hybrid_pack_s);

    const auto run = [&](std::size_t threshold, const PackedBitMatrix* pk) {
      LdOptions opts;
      opts.stat = LdStatistic::kRSquared;
      opts.gemm.sparse_threshold = threshold;
      opts.packed = pk;
      double sum = 0.0;
      const trace::TraceSnapshot before = trace::snapshot();
      Timer timer;
      // Streaming scan: O(mc·nc) residency, so full-mode n never allocates
      // an n² output and the timing isolates the count engine + epilogue.
      ld_stat_scan(g, [&](const LdTile& tile) {
        for (std::size_t i = 0; i < tile.rows; ++i) {
          for (std::size_t j = 0; j < tile.cols; ++j) {
            const double v = tile.at(i, j);
            if (v == v) sum += v;  // finite (NaN != NaN)
          }
        }
      }, opts);
      return ArmResult{timer.seconds(), sum, trace::snapshot().since(before)};
    };

    const ArmResult dense = best_of(trials, [&] { return run(0, &dense_pack); });
    const ArmResult hybrid = best_of(
        trials, [&] { return run(kSparseThresholdAuto, &hybrid_pack); });
    // Same tile stream, same summation order, integer counts: the sums
    // must agree to the last bit.
    if (dense.checksum != hybrid.checksum) {
      std::printf("MAF-SWEEP CHECKSUM MISMATCH (rare_fraction=%.2f)\n",
                  rare_fraction);
      rc = 1;
    }

    const double pairs = static_cast<double>(ld_pair_count(n));
    const double speedup = dense.seconds / hybrid.seconds;
    char label[64];
    std::snprintf(label, sizeof label, "rare%02d",
                  static_cast<int>(rare_fraction * 100.0));
    json.add(std::string("maf-") + label + "-dense", "auto", n, k,
             dense.seconds, pairs / dense.seconds, -1.0, dense.phases);
    json.add(std::string("maf-") + label + "-hybrid", "auto", n, k,
             hybrid.seconds, pairs / hybrid.seconds, -1.0, hybrid.phases);
    json.set_last_speedup(speedup);
    table.add_row({std::string("rare_fraction ") + fmt_fixed(rare_fraction, 2),
                   fmt_fixed(sparse_pct, 1) + "%", fmt_fixed(dense.seconds, 3),
                   fmt_fixed(hybrid.seconds, 3),
                   fmt_fixed(speedup, 2) + "x"});
    if (rare_fraction == 0.0) common_speedup = speedup;
    if (rare_fraction == 0.8) rare80_speedup = speedup;
  }

  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\nexpected shape: speedup grows with the rare fraction — all-common\n"
      "panels classify nothing sparse (hybrid == dense path, <= noise), a\n"
      "rare-dominated panel replaces most register tiles with index-list\n"
      "merges whose cost tracks allele counts, not sample width. The\n"
      "counters rows attribute the work: sparse_ll/ld_tiles show how many\n"
      "register tiles left the dense path at each grid point.\n");
  std::printf("headline: rare80 speedup %.2fx; all-common control %.2fx\n",
              rare80_speedup, common_speedup);
  const BitMatrix rare95 = rare95_panel();
  if (!band_rows(json, rare95, trials)) rc = 1;
  if (!pack_split(json, rare95, trials)) rc = 1;
  const bool json_ok = json.flush();
  const bool trace_ok = finish_trace();
  return (json_ok && trace_ok) ? rc : 1;
}
