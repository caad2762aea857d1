// Indexed on-disk store of streamed LD stat tiles.
//
// The streaming drivers (core/ld_stream.hpp) emit statistic tiles straight
// out of the fused epilogue; for chromosome-scale panels the full matrix
// never fits in RAM, so the tiles go to disk as they are produced:
// append-only payload, then a fixed-record index and a footer, so a writer
// crash loses the index but never corrupts earlier payload, and a reader
// seeks any tile in one index lookup — random (i, j) -> value access
// without decoding anything but the owning tile.
//
// Codec (flag-selectable, no external dependencies): kRaw stores the
// doubles verbatim; kXor XORs each value with its predecessor within the
// tile (prev = 0 at tile start, so tiles decode independently) and stores
// one control byte (the count of significant low-order bytes) plus only
// those bytes. Neighboring LD values share sign/exponent/high-mantissa
// bits, so the XOR residual's high bytes are zero and long runs of equal
// values (monomorphic NaN blocks, saturated r² = 1 regions) collapse to
// one byte per value — the classic Gorilla-style float-XOR scheme at byte
// granularity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/ld.hpp"

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
class TileStoreWriter {
 public:
  TileStoreWriter(const std::string& path, LdStatistic stat,
                  std::size_t matrix_rows, std::size_t matrix_cols,
                  TileCodec codec = TileCodec::kXor);
  ~TileStoreWriter();
  TileStoreWriter(const TileStoreWriter&) = delete;
  TileStoreWriter& operator=(const TileStoreWriter&) = delete;

  /// Encode and append one tile (values read through the tile's `ld`).
  void add(const LdTile& t);

  /// Write the index and footer and close the file. Idempotent; called by
  /// the destructor if not called explicitly (errors are swallowed there —
  /// call close() yourself when you care).
  void close();

  [[nodiscard]] std::size_t tiles() const noexcept { return index_.size(); }
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept {
    return payload_bytes_;
  }
  [[nodiscard]] std::uint64_t raw_bytes() const noexcept { return raw_bytes_; }

 private:
  std::ofstream out_;
  std::string path_;
  TileCodec codec_;
  std::vector<TileRecord> index_;
  std::vector<std::uint8_t> scratch_;
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
