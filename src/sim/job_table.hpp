// JobTable: one execution plane's per-job state, retired as the run
// advances — the one implementation sim::Engine and runtime::RuntimeCore
// share, templated on their record types.
//
// Once a job is finalized and no installed plan segment names it, its
// record is read exactly once more: to fold it into the run statistics.
// retire() does that fold during the run, feeding such jobs to one
// persistent obs::RunAccumulator in id order (the order and arithmetic of
// an end-of-run loop, so RunStats stay bitwise identical), then frees the
// fed prefix chunk by chunk through ChunkedArena. Job state thus stays
// O(live jobs) however long the run, and the accumulator's registry
// mirror advances while it runs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "core/assert.hpp"
#include "core/quality.hpp"
#include "core/time.hpp"
#include "obs/run_accumulator.hpp"
#include "sim/job_arena.hpp"

namespace qes::sim {

/// `Record` is shaped like sim::JobState (job, phase, quality, satisfied,
/// processed, finalized_at). Records with a set `abandoned` member are
/// skipped by the feed: the runtime accounts a job pulled off a killed
/// node where it is re-dispatched.
template <typename Record>
class JobTable : public ChunkedArena<Record> {
  using Arena = ChunkedArena<Record>;

 public:
  /// `registry` and `prefix` go to the accumulator, built at the first
  /// feed or accumulator() call. retire() scans the plans once
  /// `feed_batch` jobs have died since the last feed, or a whole chunk
  /// since the last release.
  JobTable(obs::Registry* registry, std::string prefix,
           std::size_t feed_batch)
      : registry_(registry),
        prefix_(std::move(prefix)),
        feed_batch_(feed_batch) {}

  /// Records not yet released (admitted minus the freed prefix).
  [[nodiscard]] std::size_t resident_jobs() const {
    return this->size() - this->resident_floor();
  }

  obs::RunAccumulator& accumulator() {
    if (!acc_) {
      acc_ = std::make_unique<obs::RunAccumulator>(registry_, prefix_);
    }
    return *acc_;
  }

  /// Feeds the finalized jobs [fed so far, limit) into the accumulator,
  /// in id order.
  void feed_upto(std::size_t limit, const QualityFunction& quality) {
    if (limit <= fed_upto_) return;
    obs::RunAccumulator& acc = accumulator();
    for (; fed_upto_ < limit; ++fed_upto_) {
      const Record& st = (*this)[fed_upto_];
      QES_ASSERT(st.phase == Record::Phase::Finalized);
      if constexpr (requires(const Record& r) { r.abandoned; }) {
        if (st.abandoned) continue;
      }
      acc.on_job(st.quality, st.job.weight * quality(st.job.demand),
                 st.satisfied, st.processed > kTimeEps,
                 !st.job.partial_ok && !st.satisfied,
                 st.finalized_at - st.job.release);
    }
  }

  /// Feeds and frees the dead prefix: every job below both `first_live`
  /// (the earliest possibly-unfinalized job) and the earliest job that
  /// any core's remaining plan segments name. Integrating a plan
  /// dereferences the finalized jobs of its stale segments, so
  /// first_live alone is not a safe floor. `cores` is a range of per-core
  /// slots with `plan` and `next_seg` members.
  template <typename Cores>
  void retire(std::size_t first_live, const Cores& cores,
              const QualityFunction& quality) {
    if (first_live < fed_upto_ + feed_batch_ &&
        first_live < this->resident_floor() + Arena::kChunkSize) {
      return;
    }
    std::size_t floor = first_live;
    for (const auto& c : cores) {
      for (std::size_t k = c.next_seg; k < c.plan.size(); ++k) {
        floor = std::min(floor, static_cast<std::size_t>(c.plan[k].job - 1));
      }
    }
    feed_upto(floor, quality);
    this->release_before(floor);
  }

 private:
  obs::Registry* registry_;
  std::string prefix_;
  std::size_t feed_batch_;
  std::size_t fed_upto_ = 0;  // jobs below this are in the accumulator
  std::unique_ptr<obs::RunAccumulator> acc_;
};

}  // namespace qes::sim
