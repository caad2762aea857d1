// Shard-store round-trip, residency accounting and forged-input rejection,
// plus the tile-store codec round trip.
//
// The store's contract is byte-exactness: a shard mmap'd back must equal an
// in-memory pack of the same row window under the same plan — the aliased
// dense slivers and compact transpose bit for bit, and everything LDLASH03
// re-derives (kinds, CSR offsets, slot tables, prescaled gather lists,
// sliver flags, the hybrid switch) field for field — under a square plan
// (shared B) and a non-square one (a B section on disk). The forgery tests
// drive parse_shard_index directly (the same entry point the fuzzer owns)
// with targeted single-field corruptions of a genuine file, and
// materialize forged payloads through ShardStore, so every validation
// branch is known to be reachable from real bytes.
#include "io/shard_store.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/gemm/kernel.hpp"
#include "core/gemm/packed_bit_matrix.hpp"
#include "io/tile_store.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

BitMatrix random_matrix(std::size_t snps, std::size_t samples,
                        std::uint64_t seed, double density = 0.4) {
  Rng rng(seed);
  BitMatrix m(snps, samples);
  for (std::size_t s = 0; s < snps; ++s) {
    for (std::size_t b = 0; b < samples; ++b) {
      if (rng.next_bool(density)) m.set(s, b, true);
    }
  }
  return m;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Header layout: 8-byte magic then u64 fields (see shard_store.cpp).
constexpr std::size_t kHdr = 8;
enum HeaderField : std::size_t {
  kFSnps = 0, kFWords, kFSamples, kFArch, kFMr, kFNr, kFKu, kFKc, kFMc, kFNc,
  kFSparse, kFShardCount, kFFileBytes, kFDirOff,
};
constexpr std::size_t kRecordU64s = 8;

std::uint64_t get_field(const std::vector<std::uint8_t>& f, std::size_t i) {
  std::uint64_t v;
  std::memcpy(&v, f.data() + kHdr + i * 8, 8);
  return v;
}

void set_field(std::vector<std::uint8_t>& f, std::size_t i, std::uint64_t v) {
  std::memcpy(f.data() + kHdr + i * 8, &v, 8);
}

std::uint64_t get_rec(const std::vector<std::uint8_t>& f, std::size_t shard,
                      std::size_t field) {
  const std::size_t off =
      get_field(f, kFDirOff) + (shard * kRecordU64s + field) * 8;
  std::uint64_t v;
  std::memcpy(&v, f.data() + off, 8);
  return v;
}

void set_rec(std::vector<std::uint8_t>& f, std::size_t shard,
             std::size_t field, std::uint64_t v) {
  const std::size_t off =
      get_field(f, kFDirOff) + (shard * kRecordU64s + field) * 8;
  std::memcpy(f.data() + off, &v, 8);
}

// ShardRecord field indices within a directory record.
enum RecField : std::size_t {
  kRRowBegin = 0, kRRowEnd, kRAOff, kRBOff, kRPopOff, kRIndexOff,
  kRIndexCount, kRSmOff,
};

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(b.data()),
             static_cast<std::streamsize>(b.size()));
}

/// Append `bytes` zero bytes at the next 64-byte boundary of the file (and
/// record the new size in the header); returns the section's offset, for
/// forging a section that is in-bounds, aligned and disjoint from the rest.
std::uint64_t append_section(std::vector<std::uint8_t>& f, std::size_t bytes) {
  const std::uint64_t off = (f.size() + 63) / 64 * 64;
  f.resize(off + bytes, 0);
  set_field(f, kFFileBytes, f.size());
  return off;
}

/// The scalar square default (4x4, B shares A) and the scalar 2x8 variant
/// (B stored as its own section).
GemmConfig scalar_config(bool square) {
  GemmConfig cfg;
  cfg.arch = KernelArch::kScalar;
  cfg.kc_words = 4;
  if (!square) {
    cfg.mr = 2;
    cfg.nr = 8;
    cfg.ku = 1;
  }
  return cfg;
}

TEST(ShardStore, RoundTripAliasesPackIdenticalPayloads) {
  // Sparse threshold forced on so index lists, transpose and the derived
  // prescaled lists and sliver flags are all exercised; ragged shard split
  // (3 shards of 40/40/23). Columns 0..9 are made common so some slivers
  // are dense and some all-sparse.
  BitMatrix g = random_matrix(103, 530, 99, 0.05);
  for (std::size_t s = 0; s < 10; ++s) {
    for (std::size_t b = s; b < g.samples(); b += 2) g.set(s, b, true);
  }
  for (const bool square : {true, false}) {
    SCOPED_TRACE(square ? "square plan" : "2x8 plan");
    GemmConfig cfg = scalar_config(square);
    cfg.sparse_threshold = 40;  // the rare columns hold ~26 samples each
    const std::string path = temp_path("roundtrip.ldshard");
    write_shard_store(path, g.view(), cfg, /*rows_per_shard=*/40);
    ShardStore store = ShardStore::open(path);
    ASSERT_EQ(store.shards(), 3u);
    ASSERT_EQ(store.snps(), g.snps());
    ASSERT_EQ(store.samples(), g.samples());
    ASSERT_EQ(store.words_per_snp(), g.words_per_snp());
    ASSERT_EQ(store.plan().mr == store.plan().nr, square);

    bool any_hybrid = false;
    bool any_dense_payload = false;
    bool any_all_sparse = false;
    for (std::size_t i = 0; i < store.shards(); ++i) {
      const std::size_t r0 = store.shard_row_begin(i);
      const std::size_t rows = store.shard_rows(i);
      const BitMatrixView sub{g.row_data(r0), rows, g.words_per_snp(),
                              g.stride_words(), g.samples()};
      const PackedBitMatrix expect(sub, store.plan(), PackSides::kBoth);
      const PackedBitMatrix& got = store.shard(i);

      ASSERT_EQ(got.a_data_words(), expect.a_data_words());
      if (expect.a_data_words() != 0) {
        EXPECT_EQ(std::memcmp(got.a_data(), expect.a_data(),
                              expect.a_data_words() * 8), 0);
      }
      EXPECT_EQ(got.a_sliver_slots(), expect.a_sliver_slots());
      EXPECT_EQ(got.b_sliver_slots(), expect.b_sliver_slots());
      ASSERT_EQ(got.b_data_words(), expect.b_data_words());
      if (square) {
        ASSERT_EQ(expect.b_data_words(), 0u);
      }
      if (expect.b_data_words() != 0) {
        EXPECT_EQ(std::memcmp(got.b_data(), expect.b_data(),
                              expect.b_data_words() * 8), 0);
      }
      const SparseColumns& se = expect.sparse_columns();
      const SparseColumns& sg = got.sparse_columns();
      EXPECT_EQ(sg.threshold, se.threshold);
      EXPECT_EQ(sg.popcount, se.popcount);
      EXPECT_EQ(sg.kind, se.kind);
      EXPECT_EQ(sg.offset, se.offset);
      EXPECT_EQ(sg.index, se.index);
      EXPECT_EQ(sg.sparse_count, se.sparse_count);
      ASSERT_EQ(got.scaled_index() != nullptr,
                expect.scaled_index() != nullptr);
      if (expect.scaled_index() != nullptr) {
        EXPECT_EQ(std::memcmp(got.scaled_index(), expect.scaled_index(),
                              se.index.size() * 4), 0);
      }
      // One past the last sliver too: both must report it not sparse.
      const std::size_t mr = store.plan().mr;
      const std::size_t nr = store.plan().nr;
      for (std::size_t s = 0; s <= (rows + mr - 1) / mr; ++s) {
        EXPECT_EQ(got.a_sliver_sparse(s), expect.a_sliver_sparse(s))
            << "A sliver " << s;
      }
      for (std::size_t s = 0; s <= (rows + nr - 1) / nr; ++s) {
        EXPECT_EQ(got.b_sliver_sparse(s), expect.b_sliver_sparse(s))
            << "B sliver " << s;
      }
      EXPECT_EQ(got.hybrid_dispatch(), expect.hybrid_dispatch());
      any_hybrid = any_hybrid || expect.hybrid_dispatch();
      ASSERT_EQ(got.has_sample_major(), expect.has_sample_major());
      if (expect.has_sample_major()) {
        EXPECT_EQ(got.sample_major().group_slot,
                  expect.sample_major().group_slot);
        ASSERT_EQ(got.sample_major_stride(), expect.sample_major_stride());
        if (expect.sample_major_stride() != 0) {
          EXPECT_EQ(std::memcmp(got.sample_major().bytes,
                                expect.sample_major().bytes,
                                g.samples() * expect.sample_major_stride()),
                    0);
        }
      }
      any_dense_payload = any_dense_payload || expect.a_data_words() != 0;
      any_all_sparse = any_all_sparse || expect.a_data_words() == 0;
    }
    EXPECT_TRUE(any_hybrid) << "the fixture must exercise sparse slivers";
    EXPECT_TRUE(any_dense_payload && any_all_sparse)
        << "the fixture must hold a shard with dense slivers and one "
           "stored entirely as lists";

    // Persisted popcounts reproduce the matrix's derived counts globally.
    const std::vector<std::uint64_t> counts = store.allele_counts();
    ASSERT_EQ(counts.size(), g.snps());
    for (std::size_t s = 0; s < g.snps(); ++s) {
      EXPECT_EQ(counts[s], g.derived_count(s)) << "snp " << s;
    }
    std::remove(path.c_str());
  }
}

/// Relabel a genuine store with an older format's magic and expect open
/// to name that format and the re-ingest remedy.
void expect_old_format_rejected(const char* magic) {
  const BitMatrix g = random_matrix(30, 100, 4);
  const std::string path = temp_path("old_format.ldshard");
  write_shard_store(path, g.view(), scalar_config(true), /*rows_per_shard=*/8);
  std::vector<std::uint8_t> bytes = read_file(path);
  std::memcpy(bytes.data(), magic, 8);
  write_file(path, bytes);
  try {
    (void)ShardStore::open(path);
    FAIL() << "an " << magic << " store must be rejected at open";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(magic), std::string::npos) << msg;
    EXPECT_NE(msg.find("ldla_ingest"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

TEST(ShardStore, OpenRejectsFormat01WithTheReingestRemedy) {
  expect_old_format_rejected("LDLASH01");
}

TEST(ShardStore, OpenRejectsFormat02WithTheReingestRemedy) {
  expect_old_format_rejected("LDLASH02");
}

TEST(ShardStore, ResidencyAccountingTracksMaterializeAndRelease) {
  const BitMatrix g = random_matrix(64, 300, 5);
  const std::string path = temp_path("residency.ldshard");
  GemmConfig cfg;
  cfg.arch = KernelArch::kScalar;
  write_shard_store(path, g.view(), cfg, /*rows_per_shard=*/20);
  ShardStore store = open_shard_store(path);
  ASSERT_EQ(store.shards(), 4u);

  EXPECT_EQ(store.resident_bytes(), 0u);
  std::size_t sum = 0;
  for (std::size_t i = 0; i < store.shards(); ++i) {
    EXPECT_FALSE(store.is_materialized(i));
    store.shard(i);
    EXPECT_TRUE(store.is_materialized(i));
    sum += store.shard_bytes(i);
    EXPECT_EQ(store.resident_bytes(), sum);
  }
  EXPECT_EQ(sum, store.total_payload_bytes());
  EXPECT_GE(store.max_shard_bytes(), store.shard_bytes(3));

  // The mapping really is resident once materialized (page-cache probe).
  EXPECT_GT(store.probe_resident_bytes(), 0u);

  store.release(1);
  EXPECT_FALSE(store.is_materialized(1));
  EXPECT_EQ(store.resident_bytes(), sum - store.shard_bytes(1));
  store.release(1);  // idempotent
  EXPECT_EQ(store.resident_bytes(), sum - store.shard_bytes(1));

  // A released shard comes back bit-identical (stable re-materialization).
  const PackedBitMatrix& back = store.shard(1);
  EXPECT_EQ(back.snps(), store.shard_rows(1));
  EXPECT_EQ(store.resident_bytes(), sum);

  // prefetch is a pure hint: no materialization, no accounting change.
  store.release(2);
  store.prefetch(2);
  EXPECT_FALSE(store.is_materialized(2));
}

TEST(ShardStore, OpenRejectsMissingAndForeignFiles) {
  EXPECT_THROW(ShardStore::open(temp_path("nope.ldshard")), Error);
  const std::string bogus = temp_path("bogus.ldshard");
  std::ofstream(bogus, std::ios::binary) << "definitely not a shard store";
  EXPECT_THROW(ShardStore::open(bogus), ParseError);
}

TEST(ShardStore, OpenRejectsAPlanNoVariantRuns) {
  const BitMatrix g = random_matrix(90, 400, 21, 0.08);
  GemmConfig cfg;
  cfg.arch = KernelArch::kScalar;  // stored under the scalar default, 4x4u1
  cfg.kc_words = 4;
  const std::string path = temp_path("plan_check.ldshard");
  write_shard_store(path, g.view(), cfg, /*rows_per_shard=*/40);
  std::vector<std::uint8_t> bytes = read_file(path);
  ASSERT_EQ(get_field(bytes, kFMr), 4u);
  ASSERT_EQ(get_field(bytes, kFNr), 4u);
  ASSERT_EQ(get_field(bytes, kFKu), 1u);

  // Rename the family only: every extent stays consistent with the plan,
  // but no AVX-512 variant has a 4x4u1 register tile.
  set_field(bytes, kFArch, static_cast<std::uint64_t>(KernelArch::kAvx512));
  ASSERT_EQ(find_kernel(KernelArch::kAvx512, 4, 4, 1), nullptr);
  EXPECT_NO_THROW((void)parse_shard_index(bytes.data(), bytes.size()));
  const std::string forged = temp_path("plan_check_forged.ldshard");
  std::ofstream(forged, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));

  try {
    (void)ShardStore::open(forged);
    FAIL() << "a plan no variant runs must be rejected at open";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("re-ingest"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mr=4"), std::string::npos) << msg;
  }
  std::remove(forged.c_str());
  std::remove(path.c_str());
}

/// 80 x 333, rare (~1% carriers) but for rows 16t + 5, which are common:
/// every other 8-row group holds a dense column, the rest are all-sparse.
BitMatrix hybrid_matrix() {
  BitMatrix g = random_matrix(80, 333, 37, 0.01);
  Rng rng(43);
  for (std::size_t s = 5; s < g.snps(); s += 16) {
    for (std::size_t b = 0; b < g.samples(); ++b) {
      g.set(s, b, rng.next_bool(0.5));
    }
  }
  return g;
}

/// The 4x4 scalar plan with a threshold that lists every rare row.
GemmConfig hybrid_config() {
  GemmConfig cfg = scalar_config(true);
  cfg.sparse_threshold = 20;
  return cfg;
}

TEST(ShardStore, VerifyShardPopcountsCatchesCorruption) {
  // A store with sparse columns inside dense slivers (lists and a
  // transpose) and a dense one (no transpose).
  for (const double density : {0.05, 0.5}) {
    const BitMatrix g = random_matrix(80, 333, 31, density);
    GemmConfig cfg;
    cfg.arch = KernelArch::kScalar;
    cfg.kc_words = 4;
    if (density > 0.1) cfg.sparse_threshold = 0;  // keep the dense store dense
    const std::string path = temp_path("verify.ldshard");
    write_shard_store(path, g.view(), cfg, /*rows_per_shard=*/30);
    {
      ShardStore s = open_shard_store(path);
      for (std::size_t i = 0; i < s.shards(); ++i) {
        EXPECT_TRUE(s.verify_shard_popcounts(i))
            << "density " << density << " shard " << i;
      }
    }

    // Nudge one persisted popcount (staying within n_samples so the
    // materialize-time range check cannot be the thing that fires).
    std::vector<std::uint8_t> bytes = read_file(path);
    const std::uint64_t pop_off = get_rec(bytes, 1, kRPopOff);
    std::uint32_t pop0;
    std::memcpy(&pop0, bytes.data() + pop_off, 4);
    pop0 = pop0 > 0 ? pop0 - 1 : 1;
    std::memcpy(bytes.data() + pop_off, &pop0, 4);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));

    ShardStore s = open_shard_store(path);
    EXPECT_TRUE(s.verify_shard_popcounts(0)) << "untouched shard";
    EXPECT_FALSE(s.verify_shard_popcounts(1)) << "corrupt shard";
  }

  // A hybrid store: all-sparse slivers stored as lists only, and a
  // transpose of the kept groups.
  const BitMatrix g = hybrid_matrix();
  const std::string path = temp_path("verify_hybrid.ldshard");
  write_shard_store(path, g.view(), hybrid_config(), /*rows_per_shard=*/30);
  SparseColumns sc;
  std::vector<std::uint32_t> group_slot;
  {
    ShardStore s = open_shard_store(path);
    for (std::size_t i = 0; i < s.shards(); ++i) {
      EXPECT_TRUE(s.verify_shard_popcounts(i)) << "hybrid shard " << i;
    }
    const PackedBitMatrix& pk = s.shard(0);
    ASSERT_TRUE(pk.hybrid_dispatch());
    ASSERT_NE(pk.sample_major_stride(), 0u);
    sc = pk.sparse_columns();
    group_slot = pk.sample_major().group_slot;
  }
  const std::vector<std::uint8_t> pristine = read_file(path);
  const auto verify_forged = [&](const std::vector<std::uint8_t>& bytes) {
    write_file(path, bytes);
    ShardStore s = open_shard_store(path);
    EXPECT_TRUE(s.verify_shard_popcounts(1)) << "untouched shard";
    return s.verify_shard_popcounts(0);
  };

  // A flipped bit in a kept transpose group (sample 0, first kept byte).
  std::vector<std::uint8_t> bytes = pristine;
  bytes[get_rec(bytes, 0, kRSmOff)] ^= 1;
  EXPECT_FALSE(verify_forged(bytes)) << "flipped transpose bit";

  // A list entry moved to a sample it does not hold, still in range and in
  // order, in a column whose group is kept: its dense sliver or the
  // transpose contradicts it.
  std::size_t col = 0;
  std::uint64_t entry = 0;
  const auto movable = [&](std::uint64_t e, std::size_t c) {
    const std::uint32_t next = e + 1 < sc.offset[c + 1]
                                   ? sc.index[e + 1]
                                   : static_cast<std::uint32_t>(g.samples());
    return sc.index[e] + 1 < next;
  };
  for (bool found = false; !found; ++col) {
    ASSERT_LT(col, 30u) << "no movable entry in a kept group";
    if (sc.kind[col] != ColumnKind::kList || group_slot[col / 8] == kNoSlot) {
      continue;
    }
    for (entry = sc.offset[col]; entry < sc.offset[col + 1]; ++entry) {
      if (movable(entry, col)) {
        found = true;
        break;
      }
    }
  }
  bytes = pristine;
  ++*reinterpret_cast<std::uint32_t*>(
      bytes.data() + get_rec(bytes, 0, kRIndexOff) + entry * 4);
  EXPECT_FALSE(verify_forged(bytes)) << "moved list entry";
  std::remove(path.c_str());
}

TEST(ShardStore, ParseRejectsAPopcountThatReclassifiesASliver) {
  // The last shard's first 8-row group is all-sparse. A forged popcount
  // that makes one of its rows common keeps that group in the transpose
  // (and makes its sliver dense), so the derived transpose — the last
  // section before the directory — grows by a byte per sample and runs
  // past the end of the file.
  const BitMatrix g = hybrid_matrix();
  const std::string path = temp_path("reclassify.ldshard");
  write_shard_store(path, g.view(), hybrid_config(), /*rows_per_shard=*/30);
  std::vector<std::uint8_t> bytes = read_file(path);
  ASSERT_NO_THROW((void)parse_shard_index(bytes.data(), bytes.size()));
  {
    ShardStore s = open_shard_store(path);
    ASSERT_EQ(s.shards(), 3u);
    ASSERT_EQ(s.shard(2).sample_major().group_slot.at(0), kNoSlot);
  }
  const auto pop = static_cast<std::uint32_t>(g.samples() / 2);
  std::memcpy(bytes.data() + get_rec(bytes, 2, kRPopOff), &pop, 4);
  try {
    (void)parse_shard_index(bytes.data(), bytes.size());
    FAIL() << "a reclassifying popcount must be rejected";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("past the end of the file"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

TEST(ShardStore, MaterializeRejectsForgedIndexLists) {
  // A rare panel (every column a list) with one near-fixed column, which
  // classifies kComplement with a 3-entry list of its zero samples.
  BitMatrix g = random_matrix(40, 300, 53, 0.02);
  for (std::size_t b = 3; b < g.samples(); ++b) g.set(5, b, true);
  const std::string path = temp_path("forged_lists.ldshard");
  write_shard_store(path, g.view(), scalar_config(true), /*rows_per_shard=*/40);
  const std::vector<std::uint8_t> pristine = read_file(path);
  const auto materialize = [&](const std::vector<std::uint8_t>& bytes) {
    write_file(path, bytes);
    ShardStore s = open_shard_store(path);
    (void)s.shard(0);
  };
  ASSERT_NO_THROW(materialize(pristine));
  // The kinds and CSR offsets a pack derives from the persisted popcounts.
  const SparseColumns sc = [&] {
    ShardStore s = open_shard_store(path);
    return s.shard(0).sparse_columns();
  }();

  const auto u32_at = [](std::vector<std::uint8_t>& bytes, std::uint64_t off,
                         std::size_t i) {
    return reinterpret_cast<std::uint32_t*>(bytes.data() + off) + i;
  };
  ASSERT_EQ(sc.kind[5], ColumnKind::kComplement);
  ASSERT_EQ(sc.list_size(5), 3u);
  std::size_t col = 0;  // a kList column holding at least two samples
  while (sc.kind[col] != ColumnKind::kList || sc.list_size(col) < 2) {
    ++col;
    ASSERT_LT(col, g.snps());
  }
  const auto entry = [&](std::vector<std::uint8_t>& bytes, std::uint64_t e) {
    return u32_at(bytes, get_rec(bytes, 0, kRIndexOff), e);
  };

  std::vector<std::uint8_t> bytes = pristine;
  const std::uint32_t first = *entry(bytes, sc.offset[col]);
  *entry(bytes, sc.offset[col] + 1) = first;
  EXPECT_THROW(materialize(bytes), ParseError) << "duplicate entry";

  bytes = pristine;
  const std::uint32_t second = *entry(bytes, sc.offset[col] + 1);
  *entry(bytes, sc.offset[col]) = second;
  *entry(bytes, sc.offset[col] + 1) = first;
  EXPECT_THROW(materialize(bytes), ParseError) << "descending entries";

  bytes = pristine;
  *entry(bytes, sc.offset[col]) = static_cast<std::uint32_t>(g.samples());
  EXPECT_THROW(materialize(bytes), ParseError) << "entry out of range";

  bytes = pristine;
  ++*u32_at(bytes, get_rec(bytes, 0, kRPopOff), col);
  EXPECT_THROW(materialize(bytes), ParseError) << "list shorter than popcount";

  bytes = pristine;
  ++*u32_at(bytes, get_rec(bytes, 0, kRPopOff), 5);
  EXPECT_THROW(materialize(bytes), ParseError)
      << "complement list longer than the zero count";

  bytes = pristine;
  *u32_at(bytes, get_rec(bytes, 0, kRPopOff), 0) =
      static_cast<std::uint32_t>(g.samples() + 1);
  EXPECT_THROW(materialize(bytes), ParseError) << "popcount above n";

  // Popcounts untouched, the recorded count one short of their total: the
  // index parse accepts the smaller extent, materialize does not.
  bytes = pristine;
  set_rec(bytes, 0, kRIndexCount, get_rec(bytes, 0, kRIndexCount) - 1);
  ASSERT_NO_THROW((void)parse_shard_index(bytes.data(), bytes.size()));
  EXPECT_THROW(materialize(bytes), ParseError)
      << "index_count off the popcount-derived total";

  // The transpose extent is derived from the popcounts, so dropping it is
  // caught by the index parse itself.
  bytes = pristine;
  ASSERT_NE(get_rec(bytes, 0, kRSmOff), 0u);
  set_rec(bytes, 0, kRSmOff, 0);
  EXPECT_THROW((void)parse_shard_index(bytes.data(), bytes.size()),
               ParseError)
      << "sparse shard, no transpose";
  std::remove(path.c_str());
}

TEST(ShardStore, ParseRejectsATransposeOnAnAllDenseShard) {
  const BitMatrix g = random_matrix(40, 300, 8, 0.5);
  GemmConfig cfg = scalar_config(true);
  cfg.sparse_threshold = 0;
  const std::string path = temp_path("dense_transpose.ldshard");
  write_shard_store(path, g.view(), cfg, /*rows_per_shard=*/40);
  std::vector<std::uint8_t> bytes = read_file(path);
  ASSERT_EQ(get_rec(bytes, 0, kRSmOff), 0u);
  // An aligned, in-bounds transpose extent: the popcounts derive no
  // transpose for an all-dense shard, so the parse refuses it.
  set_rec(bytes, 0, kRSmOff, append_section(bytes, g.samples() * 5));
  EXPECT_THROW((void)parse_shard_index(bytes.data(), bytes.size()),
               ParseError);
  std::remove(path.c_str());
}

class ShardParseForgery : public ::testing::Test {
 protected:
  void SetUp() override {
    const BitMatrix g = random_matrix(50, 200, 7, 0.05);
    path_ = temp_path("forgery.ldshard");
    write_shard_store(path_, g.view(), scalar_config(true),
                      /*rows_per_shard=*/20);
    bytes_ = read_file(path_);
    ASSERT_GE(bytes_.size(), 120u);
    // The pristine file parses.
    const ShardIndex idx = parse_shard_index(bytes_.data(), bytes_.size());
    ASSERT_EQ(idx.shards.size(), 3u);
    ASSERT_EQ(idx.n_snps, 50u);
  }

  void expect_reject(const char* why) {
    EXPECT_THROW(parse_shard_index(bytes_.data(), bytes_.size()), ParseError)
        << why;
  }

  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(ShardParseForgery, BadMagic) {
  bytes_[0] ^= 0xFF;
  expect_reject("magic");
}

TEST_F(ShardParseForgery, TruncatedMap) {
  for (const std::size_t keep : {std::size_t{0}, std::size_t{7},
                                 std::size_t{119}, bytes_.size() - 1}) {
    EXPECT_THROW(parse_shard_index(bytes_.data(), keep), ParseError)
        << "kept " << keep;
  }
}

TEST_F(ShardParseForgery, FileBytesMismatch) {
  set_field(bytes_, kFFileBytes, bytes_.size() + 64);
  expect_reject("file_bytes");
}

TEST_F(ShardParseForgery, AbsurdSnpAndSampleCounts) {
  auto fresh = bytes_;
  set_field(bytes_, kFSnps, std::uint64_t{1} << 60);
  expect_reject("absurd SNP count");
  bytes_ = fresh;
  set_field(bytes_, kFSamples, std::uint64_t{1} << 40);
  expect_reject("absurd sample count");
  bytes_ = fresh;
  set_field(bytes_, kFShardCount, 0);
  expect_reject("zero shards");
  bytes_ = fresh;
  set_field(bytes_, kFShardCount, get_field(bytes_, kFSnps) + 1);
  expect_reject("more shards than rows");
}

TEST_F(ShardParseForgery, PlanGeometryOutOfRange) {
  auto fresh = bytes_;
  set_field(bytes_, kFArch, 0);  // kAuto is not a persistable arch
  expect_reject("arch auto");
  bytes_ = fresh;
  set_field(bytes_, kFArch, 99);
  expect_reject("arch unknown");
  bytes_ = fresh;
  set_field(bytes_, kFMr, 0);
  expect_reject("mr zero");
  bytes_ = fresh;
  set_field(bytes_, kFKc, std::uint64_t{1} << 40);
  expect_reject("absurd kc");
  bytes_ = fresh;
  set_field(bytes_, kFWords, get_field(bytes_, kFWords) + 1);
  expect_reject("words inconsistent with samples");
}

TEST_F(ShardParseForgery, BrokenRowPartition) {
  auto fresh = bytes_;
  set_rec(bytes_, 1, kRRowBegin, get_rec(bytes_, 1, kRRowBegin) + 1);
  expect_reject("gap in the partition");
  bytes_ = fresh;
  set_rec(bytes_, 2, kRRowEnd, get_rec(bytes_, 2, kRRowEnd) - 1);
  expect_reject("partition does not cover the matrix");
  bytes_ = fresh;
  set_rec(bytes_, 0, kRRowEnd, get_rec(bytes_, 0, kRRowBegin));
  expect_reject("empty shard");
}

TEST_F(ShardParseForgery, ExtentViolations) {
  auto fresh = bytes_;
  // Overlap: point shard 1's slivers at shard 0's.
  set_rec(bytes_, 1, kRAOff, get_rec(bytes_, 0, kRAOff));
  expect_reject("overlapping extents");
  bytes_ = fresh;
  set_rec(bytes_, 0, kRAOff, 8);  // inside the header
  expect_reject("extent inside the header");
  bytes_ = fresh;
  set_rec(bytes_, 0, kRAOff, get_rec(bytes_, 0, kRAOff) + 8);
  expect_reject("misaligned extent (and overlap)");
  bytes_ = fresh;
  set_rec(bytes_, 2, kRPopOff, bytes_.size() + (std::uint64_t{1} << 30));
  expect_reject("extent beyond the file");
  bytes_ = fresh;
  set_rec(bytes_, 0, kRPopOff, 0);
  expect_reject("popcounts are mandatory");
}

TEST_F(ShardParseForgery, SliverGeometryMismatch) {
  auto fresh = bytes_;
  // The A extent is the plan-implied size, never recorded: an offset whose
  // implied extent runs past the end of the file is rejected.
  set_rec(bytes_, 2, kRAOff, (bytes_.size() - 64) / 64 * 64);
  expect_reject("A slivers past the end of the file");
  bytes_ = fresh;
  // mr == nr stores share B with A: a B section, however well-formed (a
  // copy of the A extent, which the popcounts follow directly), is forged.
  ASSERT_EQ(get_field(bytes_, kFMr), get_field(bytes_, kFNr));
  ASSERT_EQ(get_rec(bytes_, 0, kRBOff), 0u);
  set_rec(bytes_, 0, kRBOff,
          append_section(bytes_, get_rec(bytes_, 0, kRPopOff) -
                                     get_rec(bytes_, 0, kRAOff)));
  expect_reject("B slivers on a square register tile");
}

TEST(ShardParse, NonSquareTileRequiresItsBSide) {
  const BitMatrix g = random_matrix(50, 200, 7, 0.05);
  const std::string path = temp_path("forgery_2x8.ldshard");
  write_shard_store(path, g.view(), scalar_config(false),
                    /*rows_per_shard=*/20);
  std::vector<std::uint8_t> bytes = read_file(path);
  ASSERT_NO_THROW((void)parse_shard_index(bytes.data(), bytes.size()));
  ASSERT_NE(get_rec(bytes, 1, kRBOff), 0u);
  set_rec(bytes, 1, kRBOff, 0);
  EXPECT_THROW((void)parse_shard_index(bytes.data(), bytes.size()),
               ParseError);
  std::remove(path.c_str());
}

TEST_F(ShardParseForgery, SparseSectionConsistency) {
  auto fresh = bytes_;
  // index_count without an index extent.
  ASSERT_NE(get_rec(bytes_, 0, kRIndexCount), 0u);
  set_rec(bytes_, 0, kRIndexOff, 0);
  expect_reject("count without list data");
  bytes_ = fresh;
  set_rec(bytes_, 0, kRIndexCount,
          get_rec(bytes_, 0, kRIndexCount) +
              (std::uint64_t{1} << 40));
  expect_reject("absurd index count");
}

TEST(TileStore, RoundTripBothCodecsAndRandomLookup) {
  // Values with shared high bytes (the XOR codec's favorable case) plus
  // NaN and exact-zero runs; strided tiles exercise the ld != cols path.
  const std::size_t n = 37;
  std::vector<double> matrix(n * n);
  Rng rng(11);
  double prev = 0.25;
  for (double& v : matrix) {
    const double r = rng.next_double();
    // Run-heavy like a real LD matrix: saturated blocks repeat the previous
    // value, monomorphic stretches are NaN, the rest is fresh entropy.
    if (r < 0.5) {
      v = prev;
    } else if (r < 0.6) {
      v = std::nan("");
    } else {
      v = rng.next_double();
    }
    prev = v;
  }
  for (const TileCodec codec : {TileCodec::kRaw, TileCodec::kXor}) {
    const std::string path = temp_path("tiles.ldtile");
    {
      TileStoreWriter w(path, LdStatistic::kD, n, n, codec);
      // Cover the matrix with 16-row/13-col tiles through a stride-n view.
      for (std::size_t i = 0; i < n; i += 16) {
        for (std::size_t j = 0; j < n; j += 13) {
          LdTile t;
          t.row_begin = i;
          t.col_begin = j;
          t.rows = std::min<std::size_t>(16, n - i);
          t.cols = std::min<std::size_t>(13, n - j);
          t.values = matrix.data() + i * n + j;
          t.ld = n;
          w.add(t);
        }
      }
      w.close();
      if (codec == TileCodec::kXor) {
        EXPECT_LT(w.payload_bytes(), w.raw_bytes());  // zeros/NaN runs pack
      } else {
        EXPECT_EQ(w.payload_bytes(), w.raw_bytes());
      }
    }

    TileStoreReader r(path);
    EXPECT_EQ(r.stat(), LdStatistic::kD);
    EXPECT_EQ(r.codec(), codec);
    EXPECT_EQ(r.matrix_rows(), n);
    EXPECT_EQ(r.matrix_cols(), n);
    std::size_t cells = 0;
    for (std::size_t t = 0; t < r.tiles(); ++t) {
      const TileData td = r.read_tile(t);
      for (std::size_t i = 0; i < td.rec.rows; ++i) {
        for (std::size_t j = 0; j < td.rec.cols; ++j) {
          const double want =
              matrix[(td.rec.row_begin + i) * n + td.rec.col_begin + j];
          const double have = td.at(i, j);
          EXPECT_EQ(std::memcmp(&want, &have, 8), 0);
          ++cells;
        }
      }
    }
    EXPECT_EQ(cells, n * n);

    double v = 0.0;
    ASSERT_TRUE(r.find(19, 33, &v));
    EXPECT_EQ(std::memcmp(&v, &matrix[19 * n + 33], 8), 0);
  }
}

TEST(TileStore, ReaderRejectsTruncationAndCorruptPayload) {
  const std::string path = temp_path("tile_forge.ldtile");
  std::vector<double> vals(24, 0.5);
  {
    TileStoreWriter w(path, LdStatistic::kRSquared, 6, 4, TileCodec::kXor);
    LdTile t;
    t.rows = 6;
    t.cols = 4;
    t.values = vals.data();
    t.ld = 4;
    w.add(t);
    w.close();
  }
  std::vector<std::uint8_t> bytes = read_file(path);

  // Missing footer = writer died mid-stream.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size() - 8));
  }
  EXPECT_THROW(TileStoreReader{path}, ParseError);

  // Corrupt XOR control byte in the payload.
  auto forged = bytes;
  forged[40] = 0xFF;  // first payload byte (header is 40 bytes)
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(forged.data()),
              static_cast<std::streamsize>(forged.size()));
  }
  TileStoreReader r(path);
  EXPECT_THROW(r.read_tile(0), ParseError);
}

TEST(TileStore, ReaderRejectsForgedTileGeometry) {
  // A one-record store written field by field: header (magic, stat, matrix
  // rows, cols, codec), `payload` bytes, one index record, then the footer.
  const auto forge = [](std::uint64_t n, TileCodec codec,
                        std::uint64_t payload, std::uint64_t raw_bytes) {
    const std::string path = temp_path("tile_geometry.ldtile");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const auto put = [&](std::uint64_t v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    out.write("LDLATIL1", 8);
    put(static_cast<std::uint64_t>(LdStatistic::kRSquared));
    put(n);
    put(n);
    put(static_cast<std::uint64_t>(codec));
    for (std::uint64_t b = 0; b < payload; ++b) out.put('\0');
    for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{0}, n, n,
                                  std::uint64_t{40}, payload, raw_bytes}) {
      put(v);
    }
    put(40 + payload);
    put(1);
    out.write("LDLATIX1", 8);
    return path;
  };
  // rows = cols = 2^32: rows * cols * 8 wraps to 0, which used to open and
  // hand find() an empty tile to read through.
  const std::uint64_t big = std::uint64_t{1} << 32;
  EXPECT_THROW(TileStoreReader{forge(big, TileCodec::kRaw, 0, 0)}, ParseError);
  // 2^40 XOR values cannot fit in a one-byte payload (one control byte
  // each); rejecting it at open bounds read_tile's allocation by the file.
  const std::uint64_t wide = std::uint64_t{1} << 20;
  EXPECT_THROW(
      TileStoreReader{forge(wide, TileCodec::kXor, 1, wide * wide * 8)},
      ParseError);
  // The same writer makes a valid store when the shape is honest.
  EXPECT_NO_THROW(TileStoreReader{forge(1, TileCodec::kRaw, 8, 8)});
}

}  // namespace
}  // namespace ldla
