// Differential test of the tile-store writer (io/tile_store.hpp) against a
// byte-at-a-time reference writer kept here: the reference packs each tile
// row-major, XOR-encodes it one value and one byte at a time, and lays out
// header, payloads, index and footer with single-u64 stores. Every file the
// writer produces, for both codecs, must equal the reference's bytes, and
// must read back to the source values bit for bit. Also: a writer whose
// block writes fail (/dev/full) must throw from add() or close().
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ld.hpp"
#include "io/tile_store.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

// The writer's block size (kBlockBytes in src/io/tile_store.cpp); the
// boundary tests size tiles and streams around it.
constexpr std::size_t kWriteBlock = std::size_t{1} << 20;

// ---- reference writer -------------------------------------------------------

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

/// The original encoder: per value, one control byte (significant
/// low-order byte count of bits ^ prev, found by a shrinking loop), then
/// those bytes one push_back at a time.
void reference_xor_encode(const double* v, std::size_t n,
                          std::vector<std::uint8_t>& enc) {
  std::uint64_t prev = 0;
  for (std::size_t k = 0; k < n; ++k) {
    std::uint64_t bits;
    std::memcpy(&bits, &v[k], sizeof(bits));
    const std::uint64_t delta = bits ^ prev;
    prev = bits;
    std::uint8_t sig = 8;
    while (sig > 0 && (delta >> ((sig - 1) * 8)) == 0) {
      --sig;
    }
    enc.push_back(sig);
    for (std::uint8_t b = 0; b < sig; ++b) {
      enc.push_back(static_cast<std::uint8_t>(delta >> (b * 8)));
    }
  }
}

/// The whole LDLATIL1 file the reference writer produces for `tiles`.
std::vector<std::uint8_t> reference_file(LdStatistic stat, std::size_t rows,
                                         std::size_t cols, TileCodec codec,
                                         const std::vector<LdTile>& tiles) {
  std::vector<std::uint8_t> out = {'L', 'D', 'L', 'A', 'T', 'I', 'L', '1'};
  put_u64(out, static_cast<std::uint64_t>(stat));
  put_u64(out, rows);
  put_u64(out, cols);
  put_u64(out, static_cast<std::uint64_t>(codec));
  std::vector<TileRecord> index;
  for (const LdTile& t : tiles) {
    std::vector<double> dense;
    for (std::size_t i = 0; i < t.rows; ++i) {
      dense.insert(dense.end(), t.values + i * t.ld,
                   t.values + i * t.ld + t.cols);
    }
    TileRecord rec{t.row_begin, t.col_begin, t.rows, t.cols, out.size(), 0,
                   dense.size() * 8};
    if (codec == TileCodec::kRaw) {
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(dense.data());
      out.insert(out.end(), bytes, bytes + dense.size() * 8);
    } else {
      reference_xor_encode(dense.data(), dense.size(), out);
    }
    rec.bytes = out.size() - rec.offset;
    index.push_back(rec);
  }
  const std::uint64_t index_off = out.size();
  for (const TileRecord& rec : index) {
    for (const std::uint64_t v : {rec.row_begin, rec.col_begin, rec.rows,
                                  rec.cols, rec.offset, rec.bytes,
                                  rec.raw_bytes}) {
      put_u64(out, v);
    }
  }
  put_u64(out, index_off);
  put_u64(out, index.size());
  for (const char c : std::string("LDLATIX1")) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
  return out;
}

// ---- harness ----------------------------------------------------------------

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// A matrix of values plus the tiles (views into it) to store.
struct Stream {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> values;
  std::vector<LdTile> tiles;

  Stream(std::size_t r, std::size_t c) : rows(r), cols(c), values(r * c) {}

  void tile(std::size_t i, std::size_t j, std::size_t h, std::size_t w) {
    LdTile t;
    t.row_begin = i;
    t.col_begin = j;
    t.rows = h;
    t.cols = w;
    t.values = values.data() + i * cols + j;
    t.ld = cols;
    tiles.push_back(t);
  }
};

/// Writes `s` with both codecs and requires the reference's exact bytes and
/// a bit-exact read-back of every tile.
void expect_reference_bytes(const Stream& s, const std::string& what) {
  for (const TileCodec codec : {TileCodec::kRaw, TileCodec::kXor}) {
    SCOPED_TRACE(what + (codec == TileCodec::kRaw ? " / raw" : " / xor"));
    const std::string path = temp_path("tile_differential.ldtile");
    std::uint64_t payload = 0;
    {
      TileStoreWriter w(path, LdStatistic::kRSquared, s.rows, s.cols, codec);
      for (const LdTile& t : s.tiles) w.add(t);
      w.close();
      payload = w.payload_bytes();
    }
    const std::vector<std::uint8_t> got = read_file(path);
    const std::vector<std::uint8_t> want = reference_file(
        LdStatistic::kRSquared, s.rows, s.cols, codec, s.tiles);
    ASSERT_EQ(got.size(), want.size());
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    ASSERT_TRUE(diff.first == got.end())
        << "first differing byte at offset " << (diff.first - got.begin());

    TileStoreReader r(path);
    ASSERT_EQ(r.tiles(), s.tiles.size());
    std::uint64_t stored = 0;
    for (std::size_t k = 0; k < r.tiles(); ++k) {
      const TileData td = r.read_tile(k);
      stored += td.rec.bytes;
      for (std::size_t i = 0; i < td.rec.rows; ++i) {
        ASSERT_EQ(std::memcmp(td.values.data() + i * td.rec.cols,
                              &s.tiles[k].values[i * s.tiles[k].ld],
                              td.rec.cols * 8),
                  0)
            << "tile " << k << " row " << i;
      }
    }
    EXPECT_EQ(stored, payload);
    std::remove(path.c_str());
  }
}

// ---- value classes ----------------------------------------------------------

TEST(TileDifferential, EverySignificantByteClass) {
  // Row `sig` holds three deltas of that class (its lowest pattern, all its
  // bytes set, and a seeded one), so every control byte value and every
  // store width is written, both mid-chain and at a tile's first value.
  Stream s(9, 3);
  Rng rng(5);
  std::uint64_t bits = 0;
  std::size_t k = 0;
  for (unsigned sig = 0; sig <= 8; ++sig) {
    const std::uint64_t top =
        sig == 0 ? 0 : std::uint64_t{1} << (8 * sig - 1);
    const std::uint64_t mask = sig == 8 ? ~std::uint64_t{0}
                                        : (std::uint64_t{1} << (8 * sig)) - 1;
    const std::uint64_t lowest =
        sig == 0 ? 0 : std::uint64_t{1} << (8 * (sig - 1));
    for (const std::uint64_t delta :
         {lowest, mask, (rng.next_u64() & mask) | top}) {
      bits ^= delta;
      s.values[k++] = from_bits(bits);
    }
  }
  s.tile(0, 0, 9, 3);  // one chain across all rows
  for (std::size_t i = 0; i < 9; ++i) s.tile(i, 0, 1, 3);  // one per row
  expect_reference_bytes(s, "sig classes");
}

TEST(TileDifferential, SignedZerosNanPayloadsInfinitiesSubnormals) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {
      0.0,
      -0.0,
      0.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      from_bits(0x7FF8000000000001ULL),  // quiet NaN, low payload bit
      from_bits(0x7FF0000000000001ULL),  // signaling NaN, smallest payload
      from_bits(0xFFFFFFFFFFFFFFFFULL),  // negative NaN, all payload bits
      from_bits(0x7FF8DEADBEEF0000ULL),
      inf,
      -inf,
      inf,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      from_bits(0x000FFFFFFFFFFFFFULL),  // largest subnormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      1.0,
      1.0,
      0.5,
  };
  Stream s(specials.size(), specials.size());
  // Each row is the list rotated by its index, so every special follows
  // every other one somewhere in the chain.
  for (std::size_t i = 0; i < s.rows; ++i) {
    for (std::size_t j = 0; j < s.cols; ++j) {
      s.values[i * s.cols + j] = specials[(i + j) % specials.size()];
    }
  }
  s.tile(0, 0, s.rows, s.cols);
  s.tile(3, 5, 7, 11);
  s.tile(21, 0, 1, 22);
  expect_reference_bytes(s, "special values");
}

// ---- tile shapes ------------------------------------------------------------

/// A run-heavy matrix like an LD stream: repeats, NaN stretches, fresh
/// values that share only their high bytes, and fresh entropy.
void fill_ld_like(Stream& s, std::uint64_t seed) {
  Rng rng(seed);
  double prev = 0.25;
  for (double& v : s.values) {
    const double r = rng.next_double();
    if (r < 0.3) {
      v = prev;
    } else if (r < 0.4) {
      v = std::nan("");
    } else if (r < 0.7) {
      v = prev + 1e-6 * rng.next_double();
    } else {
      v = rng.next_double();
    }
    prev = v;
  }
}

TEST(TileDifferential, StridedTilesAndOneRowFragments) {
  Stream s(150, 130);
  fill_ld_like(s, 17);
  // A lower-triangle stream as the streaming drivers emit it: square tiles
  // below the diagonal, and each diagonal block as one-row fragments of
  // growing width, all read through ld = 130.
  const std::size_t b = 32;
  for (std::size_t i = 0; i < s.rows; i += b) {
    const std::size_t h = std::min(b, s.rows - i);
    for (std::size_t j = 0; j < i && j < s.cols; j += b) {
      s.tile(i, j, h, std::min(b, s.cols - j));
    }
    for (std::size_t r = 0; r < h && i < s.cols; ++r) {
      s.tile(i + r, i, 1, std::min(r + 1, s.cols - i));
    }
  }
  s.tile(0, 0, 150, 1);    // one column, ld != cols
  s.tile(149, 0, 1, 130);  // one full row
  expect_reference_bytes(s, "strided and fragments");
}

TEST(TileDifferential, TileLargerThanOneBlock) {
  // 400 x 400 uniform doubles: ~9 bytes each under XOR and 8 raw, so the
  // single tile spans more than one block with either codec.
  Stream s(400, 400);
  Rng rng(23);
  for (double& v : s.values) v = rng.next_double();
  ASSERT_GT(s.values.size() * 8, kWriteBlock);
  s.tile(0, 0, 400, 400);
  expect_reference_bytes(s, "tile larger than a block");
}

TEST(TileDifferential, TilesStraddlingBlockBoundaries) {
  // ~3.6 MB of raw values cut into tiles of seeded shapes: several tiles
  // cross each 1 MiB boundary at unrelated offsets, for both codecs.
  Stream s(600, 750);
  fill_ld_like(s, 29);
  ASSERT_GT(s.values.size() * 8, 3 * kWriteBlock);
  Rng rng(31);
  for (std::size_t i = 0; i < s.rows;) {
    const std::size_t h =
        std::min<std::size_t>(1 + rng.next_below(40), s.rows - i);
    for (std::size_t j = 0; j < s.cols;) {
      const std::size_t w =
          std::min<std::size_t>(1 + rng.next_below(200), s.cols - j);
      s.tile(i, j, h, w);
      j += w;
    }
    i += h;
  }
  expect_reference_bytes(s, "block-straddling tiles");
}

TEST(TileDifferential, RealLdStream) {
  // The r² tiles ld_stat_scan emits for a random panel, in emission order.
  const std::size_t n = 300;
  BitMatrix g(n, 190);
  Rng rng(41);
  for (std::size_t snp = 0; snp < n; ++snp) {
    for (std::size_t b = 0; b < 190; ++b) {
      if (rng.next_bool(0.25)) g.set(snp, b, true);
    }
  }
  Stream s(n, n);
  ld_stat_scan(g, [&](const LdTile& t) {
    for (std::size_t i = 0; i < t.rows; ++i) {
      std::memcpy(&s.values[(t.row_begin + i) * n + t.col_begin],
                  t.values + i * t.ld, t.cols * 8);
    }
    s.tile(t.row_begin, t.col_begin, t.rows, t.cols);
  });
  ASSERT_FALSE(s.tiles.empty());
  expect_reference_bytes(s, "ld_stat_scan r2 stream");
}

// ---- failed writes ----------------------------------------------------------

TEST(TileStoreWriter, FailedBlockWriteThrows) {
  const std::string full = "/dev/full";
  if (!std::filesystem::exists(full)) GTEST_SKIP() << full << " is absent";
  // Uniform doubles need ~9 bytes each under XOR, so `large` exceeds one
  // block with either codec.
  std::vector<double> values(400 * 400);
  Rng rng(43);
  for (double& v : values) v = rng.next_double();
  LdTile small;
  small.rows = 2;
  small.cols = 3;
  small.values = values.data();
  small.ld = 400;
  LdTile large = small;
  large.rows = 400;
  large.cols = 400;

  for (const TileCodec codec : {TileCodec::kRaw, TileCodec::kXor}) {
    // Less than a block: nothing leaves until close(), which must throw.
    {
      TileStoreWriter w(full, LdStatistic::kRSquared, 400, 400, codec);
      w.add(small);
      try {
        w.close();
        ADD_FAILURE() << "close() on a full device succeeded";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(full), std::string::npos)
            << e.what();
      }
    }
    // More than a block: the first full block fails inside add().
    {
      TileStoreWriter w(full, LdStatistic::kRSquared, 400, 400, codec);
      EXPECT_THROW(w.add(large), Error);
      EXPECT_THROW(w.close(), Error);
    }
  }
}

}  // namespace
}  // namespace ldla
