// RunAccumulator: the single implementation of end-of-run statistics,
// shared by sim::Engine and runtime::RuntimeCore.
//
// Both stacks used to aggregate RunStats with private copies of the same
// ~40-line loop; conformance then depended on the two copies staying
// textually identical. The accumulator centralizes the arithmetic: the
// caller feeds one on_job() per finalized job (in job-id order) plus the
// run-level energy/power/replan figures, and finish() produces the
// RunStats that stats_to_json renders — unchanged JSON shape. Both
// planes feed it during the run, as finalized jobs retire from their
// sim::JobTable (src/sim/job_table.hpp), and call finish() once.
//
// When a Registry is attached, every observation is mirrored into obs
// instruments as it is recorded — the same values, in the same order, so
// histogram count/sum totals reconcile exactly with the RunStats
// aggregates at finish() (see docs/USAGE.md "Metric reference"); on a
// live qesd the job instruments therefore advance while it serves:
//
//   <prefix>_job_latency_ms   histogram  latency of satisfied jobs
//   <prefix>_job_quality      histogram  per-job quality w*f(p)
//   <prefix>_jobs_total       counter    {outcome=satisfied|partial|zero}
//   <prefix>_jobs_discarded_rigid_total  counter
//   <prefix>_quality_total / _quality_max_total        counters
//   <prefix>_dynamic_energy_joules / _static_energy_joules  gauges
//   <prefix>_peak_power_watts / _end_time_ms           gauges
//   <prefix>_replans_total                             counter
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "sim/metrics.hpp"

namespace qes::obs {

class Counter;
class Histogram;
class Registry;

class RunAccumulator {
 public:
  /// `registry` may be nullptr (stats only, no metrics mirroring);
  /// `prefix` namespaces the mirrored instruments ("qes_sim", "qesd").
  explicit RunAccumulator(Registry* registry = nullptr,
                          std::string prefix = "qes_sim");

  /// One finalized job. `latency_ms` is finalize-time minus release for
  /// satisfied jobs and ignored otherwise. `got_volume` distinguishes
  /// partial from zero outcomes; `rigid_failed` counts non-partial jobs
  /// that missed their full demand.
  void on_job(double quality, double max_quality, bool satisfied,
              bool got_volume, bool rigid_failed, Time latency_ms);

  /// Folds in the run-level figures and returns the final RunStats.
  [[nodiscard]] RunStats finish(Joules dynamic_energy, Joules static_energy,
                                Watts peak_power, Time end_time,
                                std::size_t replans);

 private:
  Registry* registry_;
  std::string prefix_;
  // Instrument pointers resolved once at construction (registry entries
  // are never removed, so they stay valid): on_job() runs once per
  // finalized job and must not pay a name+label lookup each time.
  Counter* outcome_jobs_[3] = {};  // satisfied, partial, zero
  Counter* discarded_rigid_ = nullptr;
  Counter* quality_total_ = nullptr;
  Counter* quality_max_total_ = nullptr;
  Histogram* job_quality_ = nullptr;
  Histogram* job_latency_ms_ = nullptr;
  RunStats stats_;
  Time latency_sum_ = 0.0;
  std::vector<Time> latencies_;
};

}  // namespace qes::obs
