// Seqlock plan-publication cell: the trigger thread publishes each
// core's installed Schedule, pacing workers read it with ZERO locks and
// ZERO atomic read-modify-writes — the read path is plain atomic loads
// plus one acquire fence, so N workers re-reading every pacing slice
// never contend on anything.
//
// This retires the per-core mutexed shared_ptr<PlanSnapshot> slots (and
// sidesteps libstdc++ 12's _Sp_atomic, which trips ThreadSanitizer).
//
// Seqlock recipe (Boehm, "Can seqlocks get along with programming
// language memory models?") — every payload word is accessed as a
// relaxed atomic (std::atomic_ref over plain arrays) so concurrent
// read/write of the payload is not a C++ data race; the sequence
// counter plus fences order them:
//
//   writer:  seq.store(s+1, relaxed);            // odd: write in progress
//            atomic_thread_fence(release);
//            <relaxed payload stores>
//            seq.store(s+2, release);            // even: consistent
//
//   reader:  s1 = seq.load(acquire); retry if odd;
//            <relaxed payload loads>
//            atomic_thread_fence(acquire);
//            retry if seq.load(relaxed) != s1;
//
// Memory-order table in docs/ARCHITECTURE.md "Hot path".
//
// The four payload arrays live in zero pages (runq/zero_pages.hpp):
// capacity is reserved address space, and a page is committed when a
// publish first writes that far. Zero means "no segments", and size_
// gates every read, so an unpublished cell reads as the empty plan.
//
// Capacity is fixed at construction. A plan longer than the cell is
// truncated (publish() reports how many segments were dropped so the
// owner can count them); a worker that exhausts a truncated plan simply
// goes idle early until the next publication — the model's accounting
// lives in RuntimeCore, so truncation can cost pacing fidelity, never
// correctness.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/schedule.hpp"
#include "runq/zero_pages.hpp"

namespace qes::runq {

/// Published C-state of the core owning a cell. kSleep means the
/// trigger thread parked the core after its plan exhausted
/// (race-to-idle): a pacing worker seeing it skips the idle-poll spin
/// and blocks until the next generation bump wakes the core.
enum class CoreState : std::uint32_t { kActive = 0, kSleep = 1 };

/// Reader-side buffer. reserve() once per worker at startup; read()
/// then never allocates (resize stays within capacity).
struct PlanView {
  std::vector<Segment> segments;
  std::uint64_t gen = 0;
  CoreState core_state = CoreState::kActive;

  void reserve(std::size_t capacity) { segments.reserve(capacity); }
};

class PlanCell {
 public:
  explicit PlanCell(std::size_t capacity)
      : capacity_(capacity),
        t0_(capacity),
        t1_(capacity),
        speed_(capacity),
        job_(capacity) {}

  PlanCell(const PlanCell&) = delete;
  PlanCell& operator=(const PlanCell&) = delete;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Single-writer publish. Returns the number of segments truncated
  /// (0 when the plan fits). `state` rides inside the same seqlock
  /// window as the segments, so a reader never pairs a fresh plan with
  /// a stale C-state (or vice versa) — still zero RMW on either side.
  std::size_t publish(const Schedule& plan, std::uint64_t gen,
                      CoreState state = CoreState::kActive) {
    const auto segs = plan.segments();
    const std::size_t n = segs.size() < capacity_ ? segs.size() : capacity_;
    const std::uint64_t s = seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t i = 0; i < n; ++i) {
      word(t0_, i).store(segs[i].t0, std::memory_order_relaxed);
      word(t1_, i).store(segs[i].t1, std::memory_order_relaxed);
      word(speed_, i).store(segs[i].speed, std::memory_order_relaxed);
      word(job_, i).store(segs[i].job, std::memory_order_relaxed);
    }
    size_.store(n, std::memory_order_relaxed);
    gen_.store(gen, std::memory_order_relaxed);
    state_.store(static_cast<std::uint32_t>(state),
                 std::memory_order_relaxed);
    seq_.store(s + 2, std::memory_order_release);
    return segs.size() - n;
  }

  /// Wait-free-in-practice consistent read (retries only while a
  /// publish is in flight; publishes are rare and take nanoseconds).
  /// No locks, no RMW, no allocation once `out` is reserved.
  void read(PlanView& out) const {
    for (int spins = 0;; ++spins) {
      const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
      if ((s1 & 1) == 0) {
        std::size_t n = size_.load(std::memory_order_relaxed);
        if (n > capacity_) n = capacity_;  // torn size: bounded, re-checked
        out.segments.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          out.segments[i].t0 = word(t0_, i).load(std::memory_order_relaxed);
          out.segments[i].t1 = word(t1_, i).load(std::memory_order_relaxed);
          out.segments[i].speed =
              word(speed_, i).load(std::memory_order_relaxed);
          out.segments[i].job = word(job_, i).load(std::memory_order_relaxed);
        }
        out.gen = gen_.load(std::memory_order_relaxed);
        out.core_state = static_cast<CoreState>(
            state_.load(std::memory_order_relaxed));
        std::atomic_thread_fence(std::memory_order_acquire);
        if (seq_.load(std::memory_order_relaxed) == s1) return;
      }
      if (spins >= 64) std::atomic_thread_fence(std::memory_order_seq_cst);
    }
  }

  /// Last published generation (acquire peek; for wake checks/tests).
  [[nodiscard]] std::uint64_t generation() const {
    return gen_.load(std::memory_order_acquire);
  }

 private:
  template <typename W>
  static std::atomic_ref<W> word(const ZeroPageArray<W>& a, std::size_t i) {
    return std::atomic_ref<W>(a[i]);
  }

  std::size_t capacity_;
  alignas(64) std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> gen_{0};
  std::atomic<std::uint32_t> state_{0};
  ZeroPageArray<double> t0_;
  ZeroPageArray<double> t1_;
  ZeroPageArray<double> speed_;
  ZeroPageArray<JobId> job_;
};

}  // namespace qes::runq
