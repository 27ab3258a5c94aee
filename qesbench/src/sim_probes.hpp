// Probes the benchmark wraps around sim::Engine's two plug-in points:
// the job stream it pulls from and the policy it replans with. Both are
// public interfaces, so the program itself is measured unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common.hpp"
#include "core/job_stream.hpp"
#include "sim/engine.hpp"

namespace qesbench {

// Counts the jobs the engine pulls and ends the stream after `limit`
// jobs. With `timed` it also accumulates the wall time spent
// inside the generator (workload.next_s).
class CountingStream final : public qes::JobStream {
 public:
  CountingStream(std::unique_ptr<qes::JobStream> inner, bool timed,
                 std::uint64_t limit)
      : inner_(std::move(inner)), timed_(timed), limit_(limit) {}

  std::optional<qes::Job> next() override {
    if (yielded == limit_) return std::nullopt;
    const double t0 = timed_ ? now_s() : 0.0;
    std::optional<qes::Job> j = inner_->next();
    if (timed_) next_s += now_s() - t0;
    if (j) ++yielded;
    return j;
  }

  std::uint64_t yielded = 0;
  double next_s = 0.0;

 private:
  std::unique_ptr<qes::JobStream> inner_;
  bool timed_;
  std::uint64_t limit_;
};

// Times every SchedulingPolicy::replan (policy.replan_s).
class TimedPolicy final : public qes::SchedulingPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<qes::SchedulingPolicy> inner)
      : inner_(std::move(inner)) {}

  void replan(qes::Engine& engine) override {
    const double t0 = now_s();
    inner_->replan(engine);
    replan_s += now_s() - t0;
    ++replans;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  double replan_s = 0.0;
  std::uint64_t replans = 0;

 private:
  std::unique_ptr<qes::SchedulingPolicy> inner_;
};

}  // namespace qesbench
