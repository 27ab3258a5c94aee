// oracle_qeopt: the offline QE-OPT quality bound on web-search traces,
// computed exactly as the scenario runner's qe_opt_bound does (one
// migratory core at the aggregate speed 8 x speed_for_dynamic_power of
// H/8), plus online DES on the same traces. This is the only workload
// that runs Quality-OPT and YDS at trace scale.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim_probes.hpp"
#include "core/power.hpp"
#include "core/quality.hpp"
#include "multicore/des_scheduler.hpp"
#include "obs/registry.hpp"
#include "sched/qe_opt.hpp"
#include "sched/quality_opt.hpp"
#include "sched/yds.hpp"
#include "sim/engine.hpp"
#include "workload/stream.hpp"

namespace qesbench {

namespace {

constexpr int kCores = 8;
constexpr double kBudgetW = 160.0;  // 20 W per core
constexpr std::uint64_t kDefaultSeed = 1;
// Trace shape. A run bounds many short traces rather than one long one:
// a 600-job trace's QE-OPT time swings +-20% from seed to seed (it
// follows how many critical intervals Quality-OPT peels), and ~10 ms
// calls let the per-trace minimum filter out bursts of host contention.
constexpr std::size_t kJobs = 100;
constexpr std::size_t kTraces = 60;
constexpr std::size_t kJobsTiny = 60;
constexpr std::size_t kTracesTiny = 2;
// Σ QE-OPT quality over the default seed's traces, recorded from this
// benchmark: full size and self-test size.
constexpr double kRecordedQuality = 1679.9880915501808;
constexpr double kRecordedQualityTiny = 36.278268795964337;

qes::WorkloadConfig trace_config(std::uint64_t seed) {
  qes::WorkloadConfig wc;
  wc.arrival_rate = 200.0;
  wc.deadline_ms = 150.0;
  wc.horizon_ms = 1e12;  // cut by job count, not time
  wc.seed = seed;
  return wc;
}

std::vector<qes::Job> make_trace(std::uint64_t seed, std::size_t jobs) {
  qes::WebsearchJobStream stream(trace_config(seed));
  std::vector<qes::Job> out;
  out.reserve(jobs);
  while (out.size() < jobs) out.push_back(*stream.next());
  return out;
}

// One QE-OPT pass over every trace; per-trace vectors are in trace order.
struct Pass {
  double run_s = 0.0;
  std::vector<double> call_ms;  // wall ms per QE-OPT call
  std::vector<double> cpu_ms;   // process CPU ms per call
  std::vector<double> qopt_ms;  // traced: step 1 (Quality-OPT) alone
  std::vector<double> yds_ms;   // traced: step 2 (rewrite + YDS) alone
  std::vector<double> quality;  // QE-OPT quality per trace
  bool volumes_ok = true;       // every volume in [0, demand]
};

// QE-OPT as qe_opt_schedule runs it; with `split` its two steps are
// called separately so each can be timed.
void qe_opt(const std::vector<qes::Job>& jobs, qes::Speed speed, bool split,
            const qes::QualityFunction& f, Pass& p) {
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  std::vector<qes::Work> volumes;
  if (!split) {
    volumes = qes::qe_opt_schedule(qes::AgreeableJobSet(jobs), speed).volumes;
  } else {
    const qes::AgreeableJobSet set(jobs);
    volumes = qes::quality_opt_schedule(set, speed).volumes;
    const double t1 = now_s();
    std::vector<qes::Job> rewritten(set.jobs().begin(), set.jobs().end());
    for (std::size_t k = 0; k < rewritten.size(); ++k) {
      rewritten[k].demand = volumes[k];
    }
    (void)qes::yds_schedule_capped(qes::AgreeableJobSet(std::move(rewritten)),
                                   speed);
    p.qopt_ms.push_back((t1 - t0) * 1000.0);
    p.yds_ms.push_back((now_s() - t1) * 1000.0);
  }
  p.call_ms.push_back((now_s() - t0) * 1000.0);
  p.cpu_ms.push_back((process_cpu_s() - cpu0) * 1000.0);
  p.quality.push_back(qes::total_quality(volumes, f));
  const qes::AgreeableJobSet sorted(jobs);
  p.volumes_ok = p.volumes_ok && volumes.size() == jobs.size();
  for (std::size_t k = 0; p.volumes_ok && k < volumes.size(); ++k) {
    p.volumes_ok = volumes[k] >= -1e-9 &&
                   volumes[k] <= sorted[k].demand * (1.0 + 1e-9) + 1e-9;
  }
}

// Per-trace minimum over passes of `field`.
std::vector<double> per_trace_min(const std::vector<Pass>& passes,
                                  std::vector<double> Pass::*field) {
  std::vector<double> out = passes.front().*field;
  for (const Pass& p : passes) {
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k] = std::min(out[k], (p.*field)[k]);
    }
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

void run_oracle_qeopt(const Options& opt, Report& rep) {
  const std::size_t n = opt.tiny ? kJobsTiny : kJobs;
  const std::size_t ntraces = opt.tiny ? kTracesTiny : kTraces;
  const qes::QualityFunction f = qes::QualityFunction::exponential(0.003);
  const qes::PowerModel pm = qes::default_power_model();
  const qes::Speed aggregate =
      kCores * pm.speed_for_dynamic_power(kBudgetW / kCores);

  // Set-up draws every trace; it is repeated before each pass (the same
  // seed gives the same traces) so its samples span the run.
  auto trace_seed = [&opt](std::size_t k) {
    return opt.seed * 1000003ULL + static_cast<std::uint64_t>(k);
  };
  std::vector<std::vector<qes::Job>> traces;
  std::vector<double> setup_walls;
  const int setups_per_pass = 3;
  auto draw_traces = [&] {
    timed_setups(
        setups_per_pass,
        [&] {
          for (std::size_t k = 0; k < ntraces; ++k) {
            traces.push_back(make_trace(trace_seed(k), n));
          }
        },
        [&] { traces.clear(); }, setup_walls);
  };
  draw_traces();

  // Online DES on the same traces (once each). The engine pulls each
  // trace from its generator, so the workload layer is measured too.
  qes::EngineConfig ec;
  ec.cores = kCores;
  ec.power_budget = kBudgetW;
  ec.record_execution = false;
  ec.record_replan_times = false;
  std::unique_ptr<qes::obs::Registry> registry;
  if (opt.trace) {
    registry = std::make_unique<qes::obs::Registry>();
    ec.registry = registry.get();
  }
  std::vector<qes::RunStats> des;
  std::uint64_t des_pulled = 0;
  std::uint64_t des_events = 0;
  std::uint64_t des_replans = 0;
  double des_run_s = 0.0;
  double des_next_s = 0.0;
  double des_replan_s = 0.0;
  for (std::size_t k = 0; k < ntraces; ++k) {
    auto stream = std::make_unique<CountingStream>(
        std::make_unique<qes::WebsearchJobStream>(trace_config(trace_seed(k))),
        opt.trace, n);
    const CountingStream* pulled = stream.get();
    std::unique_ptr<qes::SchedulingPolicy> policy = qes::make_des_policy();
    const TimedPolicy* timed = nullptr;
    if (opt.trace) {
      auto t = std::make_unique<TimedPolicy>(std::move(policy));
      timed = t.get();
      policy = std::move(t);
    }
    qes::Engine engine(ec, std::move(stream), std::move(policy));
    const double t0 = now_s();
    des.push_back(engine.run().stats);
    des_run_s += now_s() - t0;
    des_events += engine.events_processed();
    des_pulled += pulled->yielded;
    des_next_s += pulled->next_s;
    if (timed != nullptr) {
      des_replan_s += timed->replan_s;
      des_replans += timed->replans;
    }
  }

  // QE-OPT passes until the next would overrun --seconds (at least
  // --min-reps).
  std::vector<Pass> passes;
  const double t_start = now_s();
  for (;;) {
    if (!passes.empty()) {
      traces.clear();
      draw_traces();
    }
    Pass p;
    const double t0 = now_s();
    for (const std::vector<qes::Job>& jobs : traces) {
      qe_opt(jobs, aggregate, opt.trace, f, p);
    }
    p.run_s = now_s() - t0;
    passes.push_back(std::move(p));
    const double elapsed = now_s() - t_start;
    const double per_pass = elapsed / static_cast<double>(passes.size());
    if (static_cast<int>(passes.size()) >= opt.min_reps &&
        des_run_s + elapsed + per_pass > opt.seconds) {
      break;
    }
  }
  // Every pass does identical work, and contention from other tenants
  // of the host only ever adds time. So each trace's cost is its fastest
  // pass, and the timings below are sums and quantiles of those per-trace
  // minima ("best of N" per QE-OPT call).
  std::vector<double> run_s;
  for (const Pass& p : passes) run_s.push_back(p.run_s);
  std::vector<double> call_ms = per_trace_min(passes, &Pass::call_ms);
  const double run_est_s = sum(call_ms) / 1000.0;
  const double cpu_est_s = sum(per_trace_min(passes, &Pass::cpu_ms)) / 1000.0;
  const Pass& first = passes.front();
  const double jobs_total = static_cast<double>(n * ntraces);
  const double opt_quality = sum(first.quality);
  double des_quality = 0.0;
  double des_max_quality = 0.0;
  double des_energy = 0.0;
  for (const qes::RunStats& s : des) {
    des_quality += s.total_quality;
    des_max_quality += s.max_quality;
    des_energy += s.total_energy();
  }

  rep.attempted = n * ntraces;
  rep.failed = 0;
  rep.metric("setup_s", lower_median(setup_walls), "s", setup_walls.size());
  rep.metric("run_s", run_est_s, "s", passes.size());
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  rep.metric("goodput_rps", jobs_total / run_est_s, "1/s", passes.size());
  // The oracle answers one query per trace: its latency is the wall
  // time of one QE-OPT call.
  rep.metric("served_p50_ms", quantile(call_ms, 0.50), "ms", call_ms.size());
  rep.metric("served_p99_ms", quantile(call_ms, 0.99), "ms", call_ms.size());
  rep.metric("served_pct", 100.0, "%", n * ntraces);
  rep.metric("quality_norm", des_quality / des_max_quality, "ratio", n * ntraces);
  rep.metric("joules_per_req", des_energy / jobs_total, "J", n * ntraces);
  rep.metric("cpu_us_per_req", cpu_est_s / jobs_total * 1e6, "us", passes.size());

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu traces x %zu jobs, aggregate speed %.6f, QE-OPT quality "
                "%.17g, online DES %.17g (%.4f of the bound), %zu passes",
                ntraces, n, aggregate, opt_quality, des_quality,
                des_quality / opt_quality, passes.size());
  rep.note(buf);
  rep.note("pass run_s: " + join_values(run_s) + "; per-trace best total " +
           join_values({run_est_s}));
  rep.note("run_s, goodput_rps, served_p50/p99_ms and cpu_us_per_req time "
           "QE-OPT calls; quality_norm and joules_per_req are online DES's");

  // ---- correctness ----
  bool online_le = true;
  bool conserved = true;
  for (std::size_t k = 0; k < ntraces; ++k) {
    online_le = online_le && des[k].total_quality <= first.quality[k] + 1e-6;
    conserved = conserved && des[k].jobs_total == n && des_pulled == n * ntraces &&
                des[k].peak_power <= kBudgetW * (1.0 + 1e-9) + 1e-9;
  }
  std::snprintf(buf, sizeof(buf), "online %.12g QE-OPT %.12g (summed)",
                des_quality, opt_quality);
  rep.check("online_le_qeopt", online_le, buf);
  rep.check("volumes_le_demands",
            std::all_of(passes.begin(), passes.end(),
                        [](const Pass& p) { return p.volumes_ok; }),
            "every granted volume lies in [0, demand]");
  rep.check("repetitions_identical",
            std::all_of(passes.begin(), passes.end(),
                        [&first](const Pass& p) { return p.quality == first.quality; }),
            "every QE-OPT pass gives bitwise-equal qualities");
  rep.check("des_conservation_power", conserved,
            "online DES finalizes every job with peak power <= H");
  if (opt.seed == kDefaultSeed) {
    const double want = opt.tiny ? kRecordedQualityTiny : kRecordedQuality;
    std::snprintf(buf, sizeof(buf), "QE-OPT %.17g recorded %.17g", opt_quality,
                  want);
    rep.check("recorded_quality", rel_close(opt_quality, want, 1e-9), buf);
  }

  // Also untraced, so the traced run can set its DES parts against it.
  rep.metric("sim.des_run_s", des_run_s, "s", ntraces);
  if (!opt.trace) return;

  rep.metric("sched.quality_opt_s",
             sum(per_trace_min(passes, &Pass::qopt_ms)) / 1000.0, "s", ntraces);
  rep.metric("sched.yds_s", sum(per_trace_min(passes, &Pass::yds_ms)) / 1000.0,
             "s", ntraces);
  rep.metric("policy.replan_s", des_replan_s, "s", des_replans);
  rep.metric("policy.replans", static_cast<double>(des_replans), "count", 1);
  rep.metric("policy.replan_us_mean",
             des_replans > 0
                 ? des_replan_s / static_cast<double>(des_replans) * 1e6
                 : 0.0,
             "us", des_replans);
  rep.metric("workload.next_s", des_next_s, "s", des_pulled);
  rep.metric("sim.engine_self_s", des_run_s - des_replan_s - des_next_s, "s", 1);
  rep.metric("sim.events", static_cast<double>(des_events), "count", 1);
  rep.metric("sim.events_per_s", static_cast<double>(des_events) / des_run_s,
             "1/s", 1);
  PhaseTotals phases;
  phases.add(*registry, "sim");
  phases.report(rep);
}

}  // namespace qesbench
