#include "io/tile_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <type_traits>

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
constexpr std::size_t kRecordBytes = 7 * 8;
constexpr std::size_t kFooterBytes = 2 * 8 + sizeof(kFootMagic);
// The writer's append block: header, payload, index and footer all pass
// through it, and each full block leaves in one unbuffered write.
constexpr std::size_t kBlockBytes = std::size_t{1} << 20;
// Worst-case XOR value: control byte plus all 8 delta bytes.
constexpr std::size_t kMaxValueBytes = 9;

// Index records move as raw memory and XOR deltas as whole words: both
// need a little-endian host and TileRecord's fields in on-disk order.
static_assert(std::endian::native == std::endian::little);
static_assert(std::is_standard_layout_v<TileRecord> &&
              sizeof(TileRecord) == kRecordBytes);

[[noreturn]] void bad(const std::string& what) {
  throw ParseError("tile store: " + what);
}

std::uint64_t get_u64(std::istream& in) {
  char buf[8];
  in.read(buf, sizeof(buf));
  std::uint64_t v;
  std::memcpy(&v, buf, sizeof(v));
  return v;
}

/// XOR-encode `n` doubles to `dst`, continuing the chain from `prev`: per
/// value, one control byte holding the count of significant low-order bytes
/// of (bits ^ prev), then exactly those bytes. The whole delta is stored
/// and the cursor skips its zero high bytes, so `dst` needs
/// kMaxValueBytes * n bytes of room. Returns the bytes used.
std::size_t xor_encode(const double* v, std::size_t n, std::uint64_t& prev,
                       std::uint8_t* dst) {
  std::uint64_t last = prev;
  std::size_t pos = 0;
  for (std::size_t k = 0; k < n; ++k) {
    std::uint64_t bits;
    std::memcpy(&bits, &v[k], sizeof(bits));
    const std::uint64_t delta = bits ^ last;
    last = bits;
    // delta | 1 spares countl_zero its zero test; (delta == 0) undoes the
    // byte that costs a zero delta. No branch either way.
    const int sig = (71 - std::countl_zero(delta | 1)) / 8 - (delta == 0);
    dst[pos] = static_cast<std::uint8_t>(sig);
    std::memcpy(dst + pos + 1, &delta, sizeof(delta));
    pos += 1 + static_cast<std::size_t>(sig);
  }
  prev = last;
  return pos;
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
    std::memcpy(&delta, enc + pos, sig);
    pos += sig;
    prev ^= delta;
    std::memcpy(&v[k], &prev, sizeof(prev));
  }
  if (pos != bytes) bad("XOR payload has trailing bytes");
}

}  // namespace

TileStoreWriter::TileStoreWriter(const std::string& path, LdStatistic stat,
                                 std::size_t matrix_rows,
                                 std::size_t matrix_cols, TileCodec codec)
    : path_(path), codec_(codec), block_(kBlockBytes) {
  out_.rdbuf()->pubsetbuf(nullptr, 0);
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) throw Error("tile store: cannot create " + path);
  const std::uint64_t head[4] = {static_cast<std::uint64_t>(stat),
                                 matrix_rows, matrix_cols,
                                 static_cast<std::uint64_t>(codec)};
  append(kMagic, sizeof(kMagic));
  append(head, sizeof(head));
}

TileStoreWriter::~TileStoreWriter() {
  try {
    close();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
    // Destructor path: the file is left without a footer, which the
    // reader reports as truncated — the recoverable outcome.
  }
}

void TileStoreWriter::flush_block() {
  out_.write(reinterpret_cast<const char*>(block_.data()),
             static_cast<std::streamsize>(fill_));
  if (!out_) throw Error("tile store: write failed for " + path_);
  flushed_ += fill_;
  fill_ = 0;
}

void TileStoreWriter::append(const void* data, std::size_t n) {
  const auto* src = static_cast<const std::uint8_t*>(data);
  for (std::size_t m = 0; n > 0; src += m, n -= m) {
    if (fill_ == kBlockBytes) flush_block();
    m = std::min(n, kBlockBytes - fill_);
    std::memcpy(block_.data() + fill_, src, m);
    fill_ += m;
  }
}

void TileStoreWriter::add(const LdTile& t) {
  LDLA_EXPECT(!closed_, "tile store already closed");
  TileRecord rec{t.row_begin, t.col_begin, t.rows, t.cols, flushed_ + fill_,
                 0, std::uint64_t{t.rows} * t.cols * 8};

  // Rows are read through `ld` and the XOR chain runs across them, so the
  // payload is the row-major tile's without a packed copy.
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < t.rows; ++i) {
    const double* row = t.values + i * t.ld;
    for (std::size_t j = 0, m = 0; j < t.cols; j += m) {
      if (kBlockBytes - fill_ < kMaxValueBytes) flush_block();
      m = std::min(t.cols - j, (kBlockBytes - fill_) / kMaxValueBytes);
      if (codec_ == TileCodec::kRaw) {
        std::memcpy(block_.data() + fill_, row + j, m * 8);
        fill_ += m * 8;
      } else {
        fill_ += xor_encode(row + j, m, prev, block_.data() + fill_);
      }
    }
  }
  rec.bytes = flushed_ + fill_ - rec.offset;
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
  const std::uint64_t foot[2] = {flushed_ + fill_, index_.size()};
  append(index_.data(), index_.size() * kRecordBytes);
  append(foot, sizeof(foot));
  append(kFootMagic, sizeof(kFootMagic));
  flush_block();
  out_.close();
  if (!out_) throw Error("tile store: write failed for " + path_);
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
  in_.read(reinterpret_cast<char*>(index_.data()),
           static_cast<std::streamsize>(count * kRecordBytes));
  for (const TileRecord& rec : index_) {
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
