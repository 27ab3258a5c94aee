// Zero-page arrays: per-capacity storage that costs address space, not
// set-up time.
//
// A ZeroPageArray<T> maps its n elements from anonymous memory. The
// kernel hands out shared zero pages and commits a private page only
// when it is first written, so a large bound is a reservation: neither
// constructing the array nor reading untouched elements writes a byte.
// Every element starts as all-zero bytes, which is why the types stored
// here (the admission ring's slots, the plan cell's payload words) are
// encoded so that zero is their valid initial state.
//
// calloc() is not a substitute: once the first large block is freed,
// glibc raises its mmap threshold and serves (and memsets) the next one
// from the heap. These arrays are not heap allocations, so AddressSanitizer
// sees no overrun inside one; index masking in the owners is the bound.
#pragma once

#include <cstddef>
#include <type_traits>

namespace qes::runq {

namespace detail {
/// mmap()s `bytes` of anonymous zero pages; throws std::bad_alloc on
/// failure. `bytes` == 0 returns nullptr.
void* map_zero_pages(std::size_t bytes);
void unmap_zero_pages(void* p, std::size_t bytes) noexcept;
}  // namespace detail

template <typename T>
class ZeroPageArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "zero-page elements are raw bytes: no constructors run");

 public:
  explicit ZeroPageArray(std::size_t n)
      : n_(n), data_(static_cast<T*>(detail::map_zero_pages(n * sizeof(T)))) {}
  ~ZeroPageArray() { detail::unmap_zero_pages(data_, n_ * sizeof(T)); }

  ZeroPageArray(const ZeroPageArray&) = delete;
  ZeroPageArray& operator=(const ZeroPageArray&) = delete;

  [[nodiscard]] std::size_t size() const { return n_; }
  /// Like unique_ptr<T[]>: constness of the owner does not reach the
  /// elements (readers wrap them in std::atomic_ref).
  T& operator[](std::size_t i) const { return data_[i]; }

 private:
  std::size_t n_;
  T* data_;
};

}  // namespace qes::runq
