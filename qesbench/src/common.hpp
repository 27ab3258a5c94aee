// Shared plumbing for the qesbench workloads: clocks, CPU and RSS
// probes, exact quantiles, and the Report every workload fills in.
//
// A workload reports each metric with its unit and the number of samples
// behind it, the operations it attempted and how many failed, and the
// outcome of every correctness check. main.cpp prints the report as
// human-readable lines followed by one JSON line that run.py consumes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace qes::obs {
class Registry;
}  // namespace qes::obs

namespace qesbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Floor on QE-OPT passes of oracle_qeopt.
  int min_reps = 3;
  /// Self-test size: every workload shrinks to a sub-second run.
  bool tiny = false;
};

/// Wall-clock seconds on the steady clock (arbitrary epoch).
[[nodiscard]] double now_s();
/// CPU seconds consumed by the whole process (all threads, live or
/// joined).
[[nodiscard]] double process_cpu_s();
/// CPU seconds consumed by the calling thread.
[[nodiscard]] double thread_cpu_s();
/// Process high-water resident set size (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mb();

/// Nearest-rank quantile (q in [0,1]) of `v`; 0 for an empty vector.
/// Reorders `v`.
[[nodiscard]] double quantile(std::vector<double>& v, double q);
/// Lower median (an observed element also for an even count); 0 for an
/// empty vector.
[[nodiscard]] double lower_median(std::vector<double> v);

/// "v1 v2 ..." with 6 significant digits, for notes.
[[nodiscard]] std::string join_values(const std::vector<double>& v);

/// Runs `setup` `count` times, appending each call's wall time to
/// `walls`. `teardown` (untimed) runs after every call but the last, so
/// the workload keeps the final instance. Workloads call this between
/// repetitions too, so set-up samples span the whole run rather than one
/// moment of it.
void timed_setups(int count, const std::function<void()>& setup,
                  const std::function<void()>& teardown,
                  std::vector<double>& walls);

/// CPU seconds per thread of this process, read from /proc/self/task,
/// keyed by thread id in ascending order.
struct ThreadCpu {
  int tid = 0;
  double cpu_s = 0.0;
};
[[nodiscard]] std::vector<ThreadCpu> thread_cpu_table();

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples);
  void check(const std::string& name, bool pass, const std::string& detail);
  void note(const std::string& line);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Human-readable lines, then the JSON line (always last).
  void print() const;
  [[nodiscard]] bool correct() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::uint64_t samples;
  };
  struct Check {
    std::string name;
    bool pass;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::string> notes_;
};

/// Sample count and summed wall ms of the C-RR, YDS, WF and Online-QE
/// phases of qes_replan_phase_ms{plane=...}, accumulated over any number
/// of registries. The planner times one replan in eight, so counts are a
/// sample.
struct PhaseTotals {
  std::uint64_t count[4] = {0, 0, 0, 0};
  double sum_ms[4] = {0.0, 0.0, 0.0, 0.0};

  void add(const qes::obs::Registry& reg, const std::string& plane);
  /// Reports policy.<phase>_ms_mean and policy.<phase>_count.
  void report(Report& rep) const;
};

/// True when |a - b| <= rel * max(|a|, |b|, 1e-300).
[[nodiscard]] bool rel_close(double a, double b, double rel);

void run_wire(const Options& opt, Report& rep);
void run_oracle_qeopt(const Options& opt, Report& rep);

}  // namespace qesbench
