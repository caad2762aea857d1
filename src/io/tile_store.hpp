// Indexed on-disk store of streamed LD stat tiles.
//
// The streaming drivers (core/ld_stream.hpp) emit statistic tiles straight
// out of the fused epilogue; for chromosome-scale panels the full matrix
// never fits in RAM, so the tiles go to disk as they are produced:
// append-only payload, then a fixed-record index and a footer, and a reader
// seeks any tile in one index lookup — random (i, j) -> value access
// without decoding anything but the owning tile.
//
// Buffering: the writer encodes into one 1 MiB block and writes each full
// block in a single write, so a writer crash loses at most the unflushed
// block plus the index (the reader then reports the missing footer), and
// payload written before it stays intact. A failed write (short write,
// ENOSPC) throws ldla::Error naming the path from the add() or close()
// that issued it.
//
// Codec (flag-selectable, no external dependencies): kRaw stores the
// doubles verbatim; kXor XORs each value with its predecessor within the
// tile (prev = 0 at tile start, so tiles decode independently) and stores
// one control byte (the count of significant low-order bytes) plus only
// those bytes — the Gorilla-style float-XOR scheme at byte granularity.
// Runs of equal values (monomorphic NaN blocks, saturated r² = 1 regions)
// cost one byte per value, but neighbouring r² values rarely share their
// low mantissa bytes, so on real LD output the codec expands the data: a
// 1000 Genomes-shaped 8 000-SNP r² stream stores 265.6 MB (253.3 MiB) of
// payload for 256.0 MB raw (raw/payload ratio 0.964).
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/ld.hpp"
#include "util/aligned_buffer.hpp"

namespace ldla {

/// Tile payload encoding (persisted in the header).
enum class TileCodec : std::uint8_t {
  kRaw = 0,  ///< doubles verbatim (8 bytes/value)
  kXor = 1,  ///< per-tile XOR-with-previous, zero high bytes stripped
};

/// Index record of one stored tile. `offset`/`bytes` locate the encoded
/// payload; `raw_bytes` is rows*cols*8 (kept explicit so compression
/// ratios are computable from the index alone).
struct TileRecord {
  std::uint64_t row_begin = 0;
  std::uint64_t col_begin = 0;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t raw_bytes = 0;
};

/// A decoded tile: the record plus its row-major values.
struct TileData {
  TileRecord rec;
  std::vector<double> values;

  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    return values[i * rec.cols + j];
  }
};

/// Append-only tile writer. Feed it the streaming driver's tiles (it is
/// a valid LdTileVisitor body); close() writes index + footer.
/// NOT thread-safe: nest-mode streams must serialize add() calls.
/// add() and close() throw ldla::Error when a block write fails.
class TileStoreWriter {
 public:
  TileStoreWriter(const std::string& path, LdStatistic stat,
                  std::size_t matrix_rows, std::size_t matrix_cols,
                  TileCodec codec = TileCodec::kXor);
  ~TileStoreWriter();
  TileStoreWriter(const TileStoreWriter&) = delete;
  TileStoreWriter& operator=(const TileStoreWriter&) = delete;

  /// Encode and append one tile (values read through the tile's `ld`);
  /// writes out the block whenever it fills.
  void add(const LdTile& t);

  /// Write the last block, the index and the footer, and close the file.
  /// Idempotent; called by the destructor if not called explicitly (errors
  /// are swallowed there — call close() yourself when you care).
  void close();

  [[nodiscard]] std::size_t tiles() const noexcept { return index_.size(); }
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept {
    return payload_bytes_;
  }
  [[nodiscard]] std::uint64_t raw_bytes() const noexcept { return raw_bytes_; }

 private:
  /// Copy `n` bytes into the block, writing it out each time it fills.
  void append(const void* data, std::size_t n);
  /// Write the block's `fill_` bytes; throws ldla::Error on failure.
  void flush_block();

  std::ofstream out_;
  std::string path_;
  TileCodec codec_;
  std::vector<TileRecord> index_;
  AlignedBuffer<std::uint8_t> block_;  ///< not zero-filled
  std::size_t fill_ = 0;               ///< bytes of block_ in use
  std::uint64_t flushed_ = 0;          ///< bytes already in the file
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t raw_bytes_ = 0;
  bool closed_ = false;
};

/// Random-access tile reader. The whole index is loaded at open (56 bytes
/// per tile); payloads are read and decoded per request.
class TileStoreReader {
 public:
  explicit TileStoreReader(const std::string& path);

  [[nodiscard]] LdStatistic stat() const noexcept { return stat_; }
  [[nodiscard]] TileCodec codec() const noexcept { return codec_; }
  [[nodiscard]] std::size_t matrix_rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t matrix_cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t tiles() const noexcept { return index_.size(); }
  [[nodiscard]] const TileRecord& record(std::size_t t) const;

  /// Decode tile `t` (throws ParseError on a corrupt payload).
  [[nodiscard]] TileData read_tile(std::size_t t);

  /// Random lookup of element (i, j): linear scan of the in-memory index
  /// for the owning tile, then a single tile decode. Returns false when no
  /// stored tile covers (i, j) — e.g. the strictly-upper triangle of a
  /// same-matrix stream.
  bool find(std::size_t i, std::size_t j, double* out);

 private:
  std::ifstream in_;
  LdStatistic stat_ = LdStatistic::kRSquared;
  TileCodec codec_ = TileCodec::kRaw;
  std::uint64_t rows_ = 0;
  std::uint64_t cols_ = 0;
  std::vector<TileRecord> index_;
};

}  // namespace ldla
