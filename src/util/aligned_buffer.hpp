// Cache-line / SIMD-aligned heap buffer with RAII ownership.
//
// The GEMM packing buffers and the bit matrix backing store must be aligned
// for aligned vector loads (64 B covers AVX-512) and to avoid split lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <type_traits>

#include "util/contract.hpp"

namespace ldla {

/// Default alignment: one cache line, which also satisfies AVX-512 loads.
inline constexpr std::size_t kDefaultAlignment = 64;

namespace detail {
void* aligned_alloc_bytes(std::size_t bytes, std::size_t alignment);
void aligned_free_bytes(void* p) noexcept;

/// a * b for an allocation size; throws std::bad_alloc instead of wrapping,
/// so an impossible request fails before anything is allocated.
[[nodiscard]] inline std::size_t checked_size_mul(std::size_t a,
                                                  std::size_t b) {
  std::size_t product = 0;
  if (__builtin_mul_overflow(a, b, &product)) throw std::bad_alloc{};
  return product;
}
}  // namespace detail

/// Owning, aligned, fixed-size array of trivially-copyable T.
///
/// Unlike std::vector this guarantees the requested alignment and never
/// value-initializes on resize-free construction paths where callers will
/// overwrite the contents anyway (explicit zeroing is available).
template <typename T>
class AlignedBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "AlignedBuffer is for POD-like element types");

 public:
  AlignedBuffer() noexcept = default;

  explicit AlignedBuffer(std::size_t count,
                         std::size_t alignment = kDefaultAlignment)
      : size_(count) {
    if (count != 0) {
      data_ = static_cast<T*>(detail::aligned_alloc_bytes(
          detail::checked_size_mul(count, sizeof(T)), alignment));
    }
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(other.data_), size_(other.size_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      detail::aligned_free_bytes(data_);
      data_ = other.data_;
      size_ = other.size_;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }

  ~AlignedBuffer() { detail::aligned_free_bytes(data_); }

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  // Bounds-checked in debug / checked builds; the functions stay noexcept,
  // so a violation terminates rather than unwinding (exercised by the
  // contract death tests).
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    LDLA_BOUNDS_CHECK(i < size_, "buffer index out of range");
    return data_[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    LDLA_BOUNDS_CHECK(i < size_, "buffer index out of range");
    return data_[i];
  }

  [[nodiscard]] std::span<T> span() noexcept { return {data_, size_}; }
  [[nodiscard]] std::span<const T> span() const noexcept {
    return {data_, size_};
  }

  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

  /// Set every byte to zero.
  void zero() noexcept;

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

template <typename T>
void AlignedBuffer<T>::zero() noexcept {
  if (data_ != nullptr) {
    __builtin_memset(data_, 0, size_ * sizeof(T));
  }
}

}  // namespace ldla
