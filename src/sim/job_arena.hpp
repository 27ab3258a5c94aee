// Chunked append-only arena with prefix release.
//
// Each plane's per-job state (sim/job_table.hpp) is indexed by dense job
// id and written in arrival order; once the live window moves past a job
// (finalized, fed to the run accumulator, and no stale plan segment
// references it), its state is never touched again. A std::vector keeps
// every one of those dead entries resident — ~100 bytes/job, which is
// what used to push the 10M-job scenario cell past a gigabyte of RSS.
//
// ChunkedArena stores the entries in fixed-size chunks (32Ki entries by
// default) and lets the owner free the fully-dead prefix chunk by
// chunk: release_before(i) drops every chunk that lies entirely below
// index i. Indexing is two loads (chunk pointer, then element);
// accessing a released index is a hard assert. Chunks are allocated on
// the append path one per kChunkSize entries — amortized O(1/32768)
// allocations per job, which keeps the engine's differential
// steady-state allocation gate (bench/sim_event_core) intact.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/assert.hpp"

namespace qes::sim {

template <typename T>
class ChunkedArena {
 public:
  static constexpr std::size_t kChunkLog2 = 15;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkLog2;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// First index that is still resident; everything below has been
  /// released (0 until the first release_before call takes effect).
  [[nodiscard]] std::size_t resident_floor() const {
    return released_chunks_ * kChunkSize;
  }

  /// Chunks currently resident (diagnostics / RSS accounting).
  [[nodiscard]] std::size_t resident_chunks() const {
    return chunks_.size() - released_chunks_;
  }

  void reserve(std::size_t n) {
    chunks_.reserve((n + kChunkSize - 1) >> kChunkLog2);
  }

  T& push_back(T value) {
    const std::size_t chunk = size_ >> kChunkLog2;
    if (chunk == chunks_.size()) {
      chunks_.push_back(std::make_unique<std::vector<T>>());
      chunks_.back()->reserve(kChunkSize);
    }
    std::vector<T>& c = *chunks_[chunk];
    c.push_back(std::move(value));
    ++size_;
    return c.back();
  }

  [[nodiscard]] T& operator[](std::size_t i) {
    QES_ASSERT_MSG(i < size_, "arena index out of range");
    QES_ASSERT_MSG((i >> kChunkLog2) >= released_chunks_,
                   "arena index below the released floor");
    return (*chunks_[i >> kChunkLog2])[i & kChunkMask];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return const_cast<ChunkedArena*>(this)->operator[](i);
  }

  /// Frees every chunk lying entirely below index `floor`. Indices in
  /// [resident_floor(), floor) that share a chunk with `floor` stay
  /// resident; release is monotone and idempotent.
  void release_before(std::size_t floor) {
    QES_ASSERT_MSG(floor <= size_, "release floor past the arena end");
    const std::size_t target = floor >> kChunkLog2;
    while (released_chunks_ < target) {
      chunks_[released_chunks_].reset();
      ++released_chunks_;
    }
  }

 private:
  std::vector<std::unique_ptr<std::vector<T>>> chunks_;
  std::size_t size_ = 0;
  std::size_t released_chunks_ = 0;
};

}  // namespace qes::sim
