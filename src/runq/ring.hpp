// Bounded lock-free MPSC ring (Vyukov-style per-slot sequence numbers).
//
// One ring per core shard in the admission substrate: many producers
// (ingress workers, in-process load threads) CAS-claim slots, exactly
// one consumer (the trigger thread) drains.  The consumer side performs
// no atomic read-modify-write at all — it only loads slot sequences and
// stores the head cursor, so a drain of k items is k acquire loads plus
// k release stores.
//
// Slots live in zero pages (runq/zero_pages.hpp), so a ring's capacity
// is reserved address space: construction writes nothing, and a page is
// committed when a push first reaches it. For that, each slot stores
// its Vyukov sequence relative to its index i (stored = seq - i): the
// classic initial stamp seq = i becomes 0, and an all-zero page is the
// valid empty ring. For the slot of cursor `pos`, seq - pos is
// stored - lap(pos), where lap(pos) = pos - i = pos & ~mask.
//
// Memory-order contract (see docs/ARCHITECTURE.md "Hot path"); the
// sequence words are accessed through std::atomic_ref:
//   producer: seq.load(acquire) observes consumer's slot release;
//             tail CAS (relaxed) only arbitrates between producers;
//             value store happens-before seq.store(lap+1, release).
//   consumer: seq.load(acquire) synchronizes with the producer's
//             release store, making the value visible;
//             seq.store(lap+capacity, release) hands the slot back.
//
// Closing the ring makes every subsequent push fail (shed) without
// disturbing items already enqueued; `close()` is called by the owner
// before the final drain so producers cannot race jobs past shutdown
// accounting.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/assert.hpp"
#include "runq/zero_pages.hpp"

namespace qes::runq {

template <typename T>
class MpscRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "slots are zero-page bytes: the payload is copied, never "
                "constructed");

 public:
  /// `capacity` is the exact logical bound (>= 1): the ring never holds
  /// more than `capacity` items. Slot storage is rounded up to a power
  /// of two (minimum 2 — the Vyukov sequence encoding cannot represent
  /// a one-slot ring); the logical bound is enforced with a ticket vs.
  /// head check, which is exact single-threaded and conservative (may
  /// shed a hair early, never late) under producer races.
  explicit MpscRing(std::size_t capacity)
      : mask_(slot_count(capacity) - 1),
        logical_cap_(capacity),
        slots_(mask_ + 1) {}

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return logical_cap_; }

  /// Multi-producer push. Returns false when the ring is full or
  /// closed; never blocks, never allocates.
  bool try_push(const T& value) {
    if (closed_.load(std::memory_order_acquire)) return false;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      if (pos - head_.load(std::memory_order_acquire) >= logical_cap_) {
        return false;  // logical bound (head only advances: conservative)
      }
      Slot& slot = slots_[pos & mask_];
      const std::size_t lap = pos & ~mask_;
      const std::size_t seq = seq_of(slot).load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(lap);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.value = value;
          seq_of(slot).store(lap + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded `pos`; retry with the fresh cursor.
      } else if (dif < 0) {
        return false;  // full: consumer has not recycled this slot yet
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Prefix-accepting batch push: pushes items[0..k) for the largest k
  /// that fits, returns k. Interleaving with other producers is allowed;
  /// each accepted item is individually claimed.
  std::size_t try_push_many(const T* items, std::size_t n) {
    std::size_t pushed = 0;
    while (pushed < n && try_push(items[pushed])) ++pushed;
    return pushed;
  }

  /// Single-consumer pop. No RMW: one acquire load + two plain/release
  /// stores per item.
  bool try_pop(T& out) {
    const std::size_t pos = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[pos & mask_];
    const std::size_t lap = pos & ~mask_;
    const std::size_t seq = seq_of(slot).load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) -
            static_cast<std::intptr_t>(lap + 1) < 0) {
      return false;  // empty (or producer mid-claim; treat as empty)
    }
    out = slot.value;
    seq_of(slot).store(lap + mask_ + 1, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Approximate occupancy (exact when quiescent or read by the
  /// consumer with no in-flight producers).
  [[nodiscard]] std::size_t approx_size() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

  /// Consumer-side emptiness: exact once producers have stopped (e.g.
  /// after close() + a final drain), because tail_ is monotone and the
  /// consumer owns head_.
  [[nodiscard]] bool empty() const { return approx_size() == 0; }

  void close() { closed_.store(true, std::memory_order_release); }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

 private:
  /// Sequence relative to the slot index (see the file comment); only
  /// ever accessed through seq_of().
  struct Slot {
    std::size_t seq;
    T value;
  };
  static_assert(alignof(Slot) >=
                std::atomic_ref<std::size_t>::required_alignment);

  static std::size_t slot_count(std::size_t capacity) {
    QES_ASSERT(capacity >= 1);
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    return cap;
  }
  static std::atomic_ref<std::size_t> seq_of(Slot& slot) {
    return std::atomic_ref<std::size_t>(slot.seq);
  }

  std::size_t mask_;
  std::size_t logical_cap_;
  ZeroPageArray<Slot> slots_;
  alignas(64) std::atomic<std::size_t> tail_{0};  // producers (CAS)
  alignas(64) std::atomic<std::size_t> head_{0};  // single consumer
  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace qes::runq
