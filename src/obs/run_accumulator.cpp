#include "obs/run_accumulator.hpp"

#include <algorithm>

#include "obs/registry.hpp"

namespace qes::obs {

RunAccumulator::RunAccumulator(Registry* registry, std::string prefix)
    : registry_(registry), prefix_(std::move(prefix)) {
  if (registry_ == nullptr) return;
  // Register every instrument up front so the exposition carries the full
  // schema (and a deterministic series order) even for outcomes that never
  // occur in a given run — e.g. the latency histogram when no job is
  // satisfied. The returned references are kept (registry entries are
  // never removed) so on_job() skips the name+label lookup on its
  // once-per-finalized-job hot path.
  const char* outcomes[] = {"satisfied", "partial", "zero"};
  for (int i = 0; i < 3; ++i) {
    outcome_jobs_[i] =
        &registry_->counter(prefix_ + "_jobs_total",
                            "finalized jobs by outcome",
                            {{"outcome", outcomes[i]}});
  }
  discarded_rigid_ = &registry_->counter(
      prefix_ + "_jobs_discarded_rigid_total",
      "rigid (non-partial) jobs that missed their demand");
  quality_total_ = &registry_->counter(prefix_ + "_quality_total",
                                       "sum of achieved job quality");
  quality_max_total_ = &registry_->counter(prefix_ + "_quality_max_total",
                                           "sum of attainable job quality");
  job_quality_ =
      &registry_->histogram(prefix_ + "_job_quality",
                            "per-job achieved quality", {},
                            Histogram::quality());
  job_latency_ms_ =
      &registry_->histogram(prefix_ + "_job_latency_ms",
                            "response time of satisfied jobs (ms)", {},
                            Histogram::latency_ms());
}

void RunAccumulator::on_job(double quality, double max_quality,
                            bool satisfied, bool got_volume,
                            bool rigid_failed, Time latency_ms) {
  ++stats_.jobs_total;
  stats_.total_quality += quality;
  stats_.max_quality += max_quality;
  int outcome;
  if (satisfied) {
    ++stats_.jobs_satisfied;
    outcome = 0;
    latency_sum_ += latency_ms;
    latencies_.push_back(latency_ms);
  } else if (got_volume) {
    ++stats_.jobs_partial;
    outcome = 1;
  } else {
    ++stats_.jobs_zero;
    outcome = 2;
  }
  if (rigid_failed) ++stats_.jobs_discarded_rigid;

  if (registry_ == nullptr) return;
  // on_job has one writer at a time (the sim main loop / whichever
  // runtime thread holds the model lock, which orders the handoffs):
  // the single-writer store path skips the CAS these counters would
  // otherwise pay per job.
  outcome_jobs_[outcome]->inc_single_writer();
  if (rigid_failed) discarded_rigid_->inc_single_writer();
  quality_total_->add_single_writer(quality);
  quality_max_total_->add_single_writer(max_quality);
  job_quality_->record(quality);
  if (satisfied) job_latency_ms_->record(latency_ms);
}

RunStats RunAccumulator::finish(Joules dynamic_energy, Joules static_energy,
                                Watts peak_power, Time end_time,
                                std::size_t replans) {
  stats_.normalized_quality = stats_.max_quality > 0.0
                                  ? stats_.total_quality / stats_.max_quality
                                  : 0.0;
  if (!latencies_.empty()) {
    stats_.mean_latency =
        latency_sum_ / static_cast<double>(latencies_.size());
    // Nearest-rank percentiles, matching the engine's historical formula.
    // Nested selections instead of a full sort: each partitions the
    // prefix left below the previous rank, and a rank's value is the
    // same number a sort would put there.
    auto rank = [&](double p) {
      return std::min(latencies_.size() - 1,
                      static_cast<std::size_t>(
                          p * static_cast<double>(latencies_.size())));
    };
    const auto first = latencies_.begin();
    auto select = [&](std::size_t idx, std::size_t end) {
      std::nth_element(first, first + static_cast<std::ptrdiff_t>(idx),
                       first + static_cast<std::ptrdiff_t>(end));
      return latencies_[idx];
    };
    const std::size_t i99 = rank(0.99);
    const std::size_t i95 = rank(0.95);
    const std::size_t i50 = rank(0.50);
    stats_.p99_latency = select(i99, latencies_.size());
    stats_.p95_latency = select(i95, i99);
    stats_.p50_latency = select(i50, i95);
  }
  stats_.dynamic_energy = dynamic_energy;
  stats_.static_energy = static_energy;
  stats_.peak_power = peak_power;
  stats_.end_time = end_time;
  stats_.replans = replans;

  if (registry_ != nullptr) {
    registry_
        ->gauge(prefix_ + "_dynamic_energy_joules",
                "integrated dynamic energy over the run")
        .set(dynamic_energy);
    registry_
        ->gauge(prefix_ + "_static_energy_joules",
                "static energy over the run")
        .set(static_energy);
    registry_
        ->gauge(prefix_ + "_peak_power_watts",
                "maximum instantaneous total power")
        .set(peak_power);
    registry_->gauge(prefix_ + "_end_time_ms", "end of the accounted window")
        .set(end_time);
    registry_
        ->counter(prefix_ + "_replans_total", "scheduler invocations")
        .add(static_cast<double>(replans));
  }
  return stats_;
}

}  // namespace qes::obs
