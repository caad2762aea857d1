// Dense row-major matrix of pair counts (the integer H·Nseq of Section II).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"

namespace ldla {

/// Non-owning reference to a row-major uint32 matrix with leading dimension.
struct CountMatrixRef {
  std::uint32_t* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t ld = 0;  ///< elements between consecutive rows (>= cols)

  /// Element reference; bounds-checked in debug / checked builds.
  [[nodiscard]] std::uint32_t& at(std::size_t i, std::size_t j) const {
    LDLA_BOUNDS_CHECK(i < rows && j < cols, "count matrix index out of range");
    return data[i * ld + j];
  }
};

/// Owning count matrix.
class CountMatrix {
 public:
  CountMatrix() = default;
  CountMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        ld_(cols),
        buf_(detail::checked_size_mul(rows, cols)) {
    buf_.zero();
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t ld() const noexcept { return ld_; }

  [[nodiscard]] std::uint32_t operator()(std::size_t i, std::size_t j) const {
    LDLA_ASSERT(i < rows_ && j < cols_);
    return buf_[i * ld_ + j];
  }
  [[nodiscard]] std::uint32_t& operator()(std::size_t i, std::size_t j) {
    LDLA_ASSERT(i < rows_ && j < cols_);
    return buf_[i * ld_ + j];
  }

  [[nodiscard]] CountMatrixRef ref() noexcept {
    return {buf_.data(), rows_, cols_, ld_};
  }

  void zero() noexcept { buf_.zero(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t ld_ = 0;
  AlignedBuffer<std::uint32_t> buf_;
};

}  // namespace ldla
