// Fuzz harness for the LD tile-store reader (io/tile_store.hpp).
//
// TileStoreReader opens a path, so each input is written to a per-process
// temp file first. An accepted store must keep the promises find() and
// read_tile() rely on: every record lies inside the matrix and its raw
// size is rows * cols * 8, every tile decodes to exactly rows * cols values
// (or throws ldla::Error on a corrupt payload), and find() locates every
// covered element and no element outside the matrix.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "fuzz_target.hpp"
#include "io/tile_store.hpp"
#include "util/contract.hpp"

namespace {

const std::string& input_path() {
  static const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ldla_fuzz_tile_" + std::to_string(::getpid()) + ".ldtile"))
          .string();
  return path;
}

/// Decode tile `t` and probe find() at its corners; a corrupt payload may
/// throw ldla::Error from either call.
void check_tile(ldla::TileStoreReader& r, std::size_t t) {
  const ldla::TileRecord rec = r.record(t);
  ldla::fuzz::require(rec.rows > 0 && rec.cols > 0, "tile: empty record");
  ldla::fuzz::require(rec.row_begin + rec.rows <= r.matrix_rows() &&
                          rec.col_begin + rec.cols <= r.matrix_cols(),
                      "tile: record outside the matrix");
  ldla::fuzz::require(rec.raw_bytes == rec.rows * rec.cols * 8,
                      "tile: raw size inconsistent with the shape");
  try {
    const ldla::TileData data = r.read_tile(t);
    ldla::fuzz::require(data.values.size() == rec.rows * rec.cols,
                        "tile: decoded value count differs from the shape");
  } catch (const ldla::Error&) {
  }
  try {
    double v = 0.0;
    ldla::fuzz::require(r.find(rec.row_begin, rec.col_begin, &v) &&
                            r.find(rec.row_begin + rec.rows - 1,
                                   rec.col_begin + rec.cols - 1, &v),
                        "tile: find misses a covered element");
  } catch (const ldla::Error&) {
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  {
    std::ofstream out(input_path(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    if (!out) ldla::fuzz::invariant_failure("tile: cannot write temp input");
  }
  try {
    ldla::TileStoreReader r(input_path());
    for (std::size_t t = 0; t < r.tiles(); ++t) check_tile(r, t);
    double v = 0.0;
    ldla::fuzz::require(!r.find(r.matrix_rows(), 0, &v) &&
                            !r.find(0, r.matrix_cols(), &v),
                        "tile: find hit an element outside the matrix");
  } catch (const ldla::Error&) {
  }
  std::remove(input_path().c_str());
  return 0;
}
