#include "io/tile_store.hpp"

#include <cstring>
#include <limits>

#include "util/contract.hpp"
#include "util/metrics.hpp"

namespace ldla {
namespace {

// "LDLATIL1" opens the file, "LDLATIX1" seals the footer: a reader that
// finds the head magic but not the tail knows the writer died mid-stream.
constexpr unsigned char kMagic[8] = {'L', 'D', 'L', 'A', 'T', 'I', 'L', '1'};
constexpr unsigned char kFootMagic[8] = {'L', 'D', 'L', 'A',
                                         'T', 'I', 'X', '1'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4 * 8;
constexpr std::size_t kRecordU64s = 7;
constexpr std::size_t kRecordBytes = kRecordU64s * 8;
constexpr std::size_t kFooterBytes = 2 * 8 + sizeof(kFootMagic);

[[noreturn]] void bad(const std::string& what) {
  throw ParseError("tile store: " + what);
}

void put_u64(std::ostream& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(v));
  out.write(buf, sizeof(buf));
}

std::uint64_t get_u64(std::istream& in) {
  char buf[8];
  in.read(buf, sizeof(buf));
  std::uint64_t v;
  std::memcpy(&v, buf, sizeof(v));
  return v;
}

/// XOR-encode `n` doubles into `enc`: per value, one control byte holding
/// the count of significant low-order bytes of (bits ^ prev), then exactly
/// those bytes. prev starts at 0 so the block is self-contained.
void xor_encode(const double* v, std::size_t n,
                std::vector<std::uint8_t>& enc) {
  enc.clear();
  enc.reserve(n * 9);
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

void xor_decode(const std::uint8_t* enc, std::size_t bytes, double* v,
                std::size_t n) {
  std::uint64_t prev = 0;
  std::size_t pos = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (pos >= bytes) bad("XOR payload truncated");
    const std::uint8_t sig = enc[pos++];
    if (sig > 8 || pos + sig > bytes) bad("corrupt XOR control byte");
    std::uint64_t delta = 0;
    for (std::uint8_t b = 0; b < sig; ++b) {
      delta |= static_cast<std::uint64_t>(enc[pos++]) << (b * 8);
    }
    prev ^= delta;
    std::memcpy(&v[k], &prev, sizeof(prev));
  }
  if (pos != bytes) bad("XOR payload has trailing bytes");
}

}  // namespace

TileStoreWriter::TileStoreWriter(const std::string& path, LdStatistic stat,
                                 std::size_t matrix_rows,
                                 std::size_t matrix_cols, TileCodec codec)
    : out_(path, std::ios::binary | std::ios::trunc),
      path_(path),
      codec_(codec) {
  if (!out_) throw Error("tile store: cannot create " + path);
  out_.write(reinterpret_cast<const char*>(kMagic), sizeof(kMagic));
  put_u64(out_, static_cast<std::uint64_t>(stat));
  put_u64(out_, matrix_rows);
  put_u64(out_, matrix_cols);
  put_u64(out_, static_cast<std::uint64_t>(codec));
}

TileStoreWriter::~TileStoreWriter() {
  try {
    close();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
    // Destructor path: the file is left without a footer, which the
    // reader reports as truncated — the recoverable outcome.
  }
}

void TileStoreWriter::add(const LdTile& t) {
  LDLA_EXPECT(!closed_, "tile store already closed");
  TileRecord rec;
  rec.row_begin = t.row_begin;
  rec.col_begin = t.col_begin;
  rec.rows = t.rows;
  rec.cols = t.cols;
  rec.offset = static_cast<std::uint64_t>(out_.tellp());
  rec.raw_bytes = static_cast<std::uint64_t>(t.rows) * t.cols * 8;

  if (codec_ == TileCodec::kRaw) {
    rec.bytes = rec.raw_bytes;
    for (std::size_t i = 0; i < t.rows; ++i) {
      out_.write(reinterpret_cast<const char*>(t.values + i * t.ld),
                 static_cast<std::streamsize>(t.cols * 8));
    }
  } else {
    // Pack the (possibly ld-strided) tile row-major, then XOR-encode.
    std::vector<double> dense;
    const double* src = t.values;
    if (t.ld != t.cols && t.rows > 1) {
      dense.resize(static_cast<std::size_t>(t.rows) * t.cols);
      for (std::size_t i = 0; i < t.rows; ++i) {
        std::memcpy(dense.data() + i * t.cols, t.values + i * t.ld,
                    t.cols * 8);
      }
      src = dense.data();
    }
    xor_encode(src, static_cast<std::size_t>(t.rows) * t.cols, scratch_);
    rec.bytes = scratch_.size();
    out_.write(reinterpret_cast<const char*>(scratch_.data()),
               static_cast<std::streamsize>(scratch_.size()));
  }
  payload_bytes_ += rec.bytes;
  raw_bytes_ += rec.raw_bytes;
  index_.push_back(rec);
  LDLA_METRICS_ONLY(
      static metrics::Counter& c_tiles = metrics::counter(
          "ldla_tiles_written_total", "stat tiles written to tile stores");
      static metrics::Counter& c_payload = metrics::counter(
          "ldla_tile_payload_bytes_total",
          "encoded tile payload bytes written");
      static metrics::Counter& c_raw = metrics::counter(
          "ldla_tile_raw_bytes_total",
          "pre-codec tile bytes (rows * cols * 8)");
      c_tiles.inc();
      c_payload.add(rec.bytes);
      c_raw.add(rec.raw_bytes);)
}

void TileStoreWriter::close() {
  if (closed_) return;
  closed_ = true;
  const std::uint64_t index_off = static_cast<std::uint64_t>(out_.tellp());
  for (const TileRecord& rec : index_) {
    put_u64(out_, rec.row_begin);
    put_u64(out_, rec.col_begin);
    put_u64(out_, rec.rows);
    put_u64(out_, rec.cols);
    put_u64(out_, rec.offset);
    put_u64(out_, rec.bytes);
    put_u64(out_, rec.raw_bytes);
  }
  put_u64(out_, index_off);
  put_u64(out_, index_.size());
  out_.write(reinterpret_cast<const char*>(kFootMagic), sizeof(kFootMagic));
  out_.flush();
  if (!out_) throw Error("tile store: write failed for " + path_);
  out_.close();
}

TileStoreReader::TileStoreReader(const std::string& path)
    : in_(path, std::ios::binary) {
  if (!in_) throw Error("tile store: cannot open " + path);
  in_.seekg(0, std::ios::end);
  const std::uint64_t size = static_cast<std::uint64_t>(in_.tellg());
  if (size < kHeaderBytes + kFooterBytes) bad("truncated file");

  in_.seekg(0);
  unsigned char magic[8];
  in_.read(reinterpret_cast<char*>(magic), sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(magic)) != 0) bad("bad magic");
  const std::uint64_t stat = get_u64(in_);
  if (stat > static_cast<std::uint64_t>(LdStatistic::kRSquared)) {
    bad("unknown statistic");
  }
  stat_ = static_cast<LdStatistic>(stat);
  rows_ = get_u64(in_);
  cols_ = get_u64(in_);
  const std::uint64_t codec = get_u64(in_);
  if (codec > static_cast<std::uint64_t>(TileCodec::kXor)) {
    bad("unknown codec");
  }
  codec_ = static_cast<TileCodec>(codec);

  in_.seekg(static_cast<std::streamoff>(size - kFooterBytes));
  const std::uint64_t index_off = get_u64(in_);
  const std::uint64_t count = get_u64(in_);
  unsigned char foot[8];
  in_.read(reinterpret_cast<char*>(foot), sizeof(foot));
  if (std::memcmp(foot, kFootMagic, sizeof(foot)) != 0) {
    bad("missing footer (writer did not close the store)");
  }
  if (index_off < kHeaderBytes || index_off > size - kFooterBytes ||
      count != (size - kFooterBytes - index_off) / kRecordBytes ||
      index_off + count * kRecordBytes != size - kFooterBytes) {
    bad("index extent inconsistent with the file size");
  }

  in_.seekg(static_cast<std::streamoff>(index_off));
  index_.resize(count);
  for (TileRecord& rec : index_) {
    rec.row_begin = get_u64(in_);
    rec.col_begin = get_u64(in_);
    rec.rows = get_u64(in_);
    rec.cols = get_u64(in_);
    rec.offset = get_u64(in_);
    rec.bytes = get_u64(in_);
    rec.raw_bytes = get_u64(in_);
    if (rec.rows == 0 || rec.cols == 0) bad("empty tile record");
    if (rec.rows > rows_ || rec.row_begin > rows_ - rec.rows ||
        rec.cols > cols_ || rec.col_begin > cols_ - rec.cols) {
      bad("tile outside the matrix");
    }
    // rows * cols * 8 can wrap (2^32 x 2^32 wraps to 0), which would let a
    // forged shape pass with a tiny raw_bytes and an empty decoded tile.
    if (rec.cols > std::numeric_limits<std::uint64_t>::max() / 8 / rec.rows ||
        rec.raw_bytes != rec.rows * rec.cols * 8) {
      bad("raw size inconsistent with the tile shape");
    }
    if (rec.offset < kHeaderBytes || rec.offset > index_off ||
        rec.bytes > index_off - rec.offset) {
      bad("tile payload outside the payload region");
    }
    if (codec_ == TileCodec::kRaw && rec.bytes != rec.raw_bytes) {
      bad("raw tile with mismatched payload size");
    }
    // Every XOR value costs at least its control byte, so the payload
    // bounds the decoded size (no allocation larger than 8x the file).
    if (codec_ == TileCodec::kXor && rec.bytes < rec.rows * rec.cols) {
      bad("XOR tile payload shorter than its value count");
    }
  }
  if (!in_) bad("index read failed");
}

const TileRecord& TileStoreReader::record(std::size_t t) const {
  LDLA_EXPECT(t < index_.size(), "tile index out of range");
  return index_[t];
}

TileData TileStoreReader::read_tile(std::size_t t) {
  const TileRecord& rec = record(t);
  TileData out;
  out.rec = rec;
  out.values.resize(static_cast<std::size_t>(rec.rows) * rec.cols);
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(rec.offset));
  if (codec_ == TileCodec::kRaw) {
    in_.read(reinterpret_cast<char*>(out.values.data()),
             static_cast<std::streamsize>(rec.bytes));
  } else {
    std::vector<std::uint8_t> enc(rec.bytes);
    in_.read(reinterpret_cast<char*>(enc.data()),
             static_cast<std::streamsize>(enc.size()));
    if (!in_) bad("payload read failed");
    xor_decode(enc.data(), enc.size(), out.values.data(),
               out.values.size());
  }
  if (!in_) bad("payload read failed");
  return out;
}

bool TileStoreReader::find(std::size_t i, std::size_t j, double* out) {
  LDLA_EXPECT(out != nullptr, "find needs an output location");
  for (std::size_t t = 0; t < index_.size(); ++t) {
    const TileRecord& rec = index_[t];
    if (i >= rec.row_begin && i < rec.row_begin + rec.rows &&
        j >= rec.col_begin && j < rec.col_begin + rec.cols) {
      const TileData data = read_tile(t);
      *out = data.at(i - rec.row_begin, j - rec.col_begin);
      return true;
    }
  }
  return false;
}

}  // namespace ldla
