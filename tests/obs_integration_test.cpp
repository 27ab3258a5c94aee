// Integration of the obs layer with both execution stacks: the
// registry-mirrored aggregates of sim::Engine and RuntimeCore must
// reconcile exactly with their RunStats, the Prometheus exposition must
// carry the same totals, and the trace ring must tell a consistent
// lifecycle story.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "multicore/des_scheduler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/conformance.hpp"
#include "runtime/server.hpp"
#include "sim/engine.hpp"
#include "workload/generator.hpp"

namespace qes {
namespace {

std::vector<Job> small_workload(std::uint64_t seed, double rate = 150.0,
                                double horizon_ms = 3000.0) {
  WorkloadConfig wl;
  wl.arrival_rate = rate;
  wl.horizon_ms = horizon_ms;
  wl.seed = seed;
  return generate_websearch_jobs(wl);
}

EngineConfig engine_config() {
  EngineConfig cfg;
  cfg.cores = 4;
  cfg.power_budget = 80.0;
  cfg.record_execution = false;
  return cfg;
}

// Pulls "name value" (unlabeled single-value series) out of Prometheus
// text; fails the test when absent.
double prom_value(const std::string& text, const std::string& series) {
  const std::string needle = "\n" + series + " ";
  const std::size_t pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << "series " << series << " missing";
  if (pos == std::string::npos) return -1.0;
  return std::stod(text.substr(pos + needle.size()));
}

TEST(ObsIntegration, EngineHistogramsReconcileExactlyWithRunStats) {
  obs::Registry reg;
  EngineConfig cfg = engine_config();
  cfg.registry = &reg;
  Engine engine(cfg, small_workload(11), make_des_policy());
  const RunResult r = engine.run();
  const RunStats& s = r.stats;
  ASSERT_GT(s.jobs_total, 0u);

  const obs::Histogram* hq = reg.find_histogram("qes_sim_job_quality");
  const obs::Histogram* hl = reg.find_histogram("qes_sim_job_latency_ms");
  ASSERT_NE(hq, nullptr);
  ASSERT_NE(hl, nullptr);
  // Exact reconciliation: one quality observation per job recorded in
  // the same order as the aggregate sum, one latency observation per
  // satisfied job.
  EXPECT_EQ(hq->count(), s.jobs_total);
  EXPECT_EQ(hq->sum(), s.total_quality);  // bitwise
  EXPECT_EQ(hl->count(), s.jobs_satisfied);

  // Outcome counters partition the job population.
  auto outcome = [&](const char* o) {
    const obs::Counter* c =
        reg.find_counter("qes_sim_jobs_total", {{"outcome", o}});
    return c == nullptr ? 0.0 : c->value();
  };
  EXPECT_DOUBLE_EQ(outcome("satisfied"),
                   static_cast<double>(s.jobs_satisfied));
  EXPECT_DOUBLE_EQ(outcome("partial"), static_cast<double>(s.jobs_partial));
  EXPECT_DOUBLE_EQ(outcome("zero"), static_cast<double>(s.jobs_zero));
  EXPECT_DOUBLE_EQ(outcome("satisfied") + outcome("partial") +
                       outcome("zero"),
                   static_cast<double>(s.jobs_total));

  // Gauges carry the run-level figures verbatim.
  EXPECT_DOUBLE_EQ(reg.find_gauge("qes_sim_dynamic_energy_joules")->value(),
                   s.dynamic_energy);
  EXPECT_DOUBLE_EQ(reg.find_gauge("qes_sim_peak_power_watts")->value(),
                   s.peak_power);
  EXPECT_DOUBLE_EQ(reg.find_counter("qes_sim_replans_total")->value(),
                   static_cast<double>(s.replans));
}

TEST(ObsIntegration, PrometheusTextReconcilesWithLegacyJson) {
  // The acceptance check of the PR: a sim run emits Prometheus text
  // whose histogram count/sum agree exactly with the stats_to_json
  // aggregates of the same run.
  obs::Registry reg;
  EngineConfig cfg = engine_config();
  cfg.registry = &reg;
  Engine engine(cfg, small_workload(23), make_des_policy());
  const RunStats s = engine.run().stats;
  const std::string legacy = stats_to_json(s);
  EXPECT_NE(legacy.find("\"jobs_total\""), std::string::npos);

  const std::string prom = reg.to_prometheus();
  EXPECT_DOUBLE_EQ(prom_value(prom, "qes_sim_job_quality_count"),
                   static_cast<double>(s.jobs_total));
  EXPECT_DOUBLE_EQ(prom_value(prom, "qes_sim_job_quality_sum"),
                   s.total_quality);
  EXPECT_DOUBLE_EQ(prom_value(prom, "qes_sim_job_latency_ms_count"),
                   static_cast<double>(s.jobs_satisfied));
  EXPECT_DOUBLE_EQ(prom_value(prom, "qes_sim_quality_total"),
                   s.total_quality);
  EXPECT_DOUBLE_EQ(prom_value(prom, "qes_sim_dynamic_energy_joules"),
                   s.dynamic_energy);
  // The JSON exposition carries the same totals.
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"qes_sim_job_quality\": {\"count\": " +
                      std::to_string(s.jobs_total)),
            std::string::npos)
      << json;
}

TEST(ObsIntegration, EngineTraceTellsAConsistentLifecycleStory) {
  obs::Registry reg;
  obs::TraceRing ring(1u << 18);
  EngineConfig cfg = engine_config();
  cfg.registry = &reg;
  cfg.trace = &ring;
  const std::vector<Job> jobs = small_workload(31);
  Engine engine(cfg, jobs, make_des_policy());
  const RunStats s = engine.run().stats;
  ASSERT_EQ(ring.dropped(), 0u);

  std::size_t releases = 0, finalizes = 0, assigns = 0, replans = 0;
  Time prev_t = 0.0;
  for (const obs::TraceEvent& e : ring.drain()) {
    EXPECT_GE(e.t, prev_t - 1e-9) << "trace must be time-ordered";
    prev_t = e.t;
    switch (e.kind) {
      case obs::TraceEvent::Kind::Release: ++releases; break;
      case obs::TraceEvent::Kind::Finalize: ++finalizes; break;
      case obs::TraceEvent::Kind::Assign: ++assigns; break;
      case obs::TraceEvent::Kind::Replan: ++replans; break;
      case obs::TraceEvent::Kind::Exec:
        EXPECT_GT(e.t1, e.t0);
        EXPECT_GT(e.speed, 0.0);
        EXPECT_GE(e.core, 0);
        EXPECT_LT(e.core, cfg.cores);
        break;
      default: break;
    }
  }
  EXPECT_EQ(releases, jobs.size());
  EXPECT_EQ(finalizes, jobs.size());
  EXPECT_LE(assigns, jobs.size());
  EXPECT_EQ(replans, s.replans);
}

TEST(ObsIntegration, RuntimeLockstepMirrorsUnderQesdPrefix) {
  obs::Registry reg;
  runtime::RuntimeConfig rc;
  rc.cores = 4;
  rc.power_budget = 80.0;
  rc.registry = &reg;
  const std::vector<Job> jobs = small_workload(41);
  const RunStats s = runtime::run_lockstep(rc, jobs);
  ASSERT_EQ(s.jobs_total, jobs.size());

  const obs::Histogram* hq = reg.find_histogram("qesd_job_quality");
  ASSERT_NE(hq, nullptr);
  EXPECT_EQ(hq->count(), s.jobs_total);
  EXPECT_EQ(hq->sum(), s.total_quality);
  EXPECT_EQ(reg.find_histogram("qesd_job_latency_ms")->count(),
            s.jobs_satisfied);
  // The simulator prefix must not appear: the two stacks share the
  // accumulator but never a namespace.
  EXPECT_EQ(reg.find_histogram("qes_sim_job_quality"), nullptr);
}

TEST(ObsIntegration, ServerRegistryCarriesLiveAndFinalInstruments) {
  runtime::ServerConfig sc;
  sc.model.cores = 2;
  sc.model.power_budget = 40.0;
  sc.time_scale = 20.0;
  sc.deadline_ms = 100.0;
  sc.metrics_interval_ms = 20.0;
  obs::TraceRing ring(1u << 16);
  sc.model.trace = &ring;
  runtime::Server server(sc);
  server.start();
  for (int i = 0; i < 50; ++i) {
    runtime::Request r;
    r.demand = 20.0;
    (void)server.submit(r, std::chrono::milliseconds(50));
  }
  const RunStats s = server.drain_and_stop();
  // Repeat call returns the identical cached stats (finish() must only
  // record into the registry once).
  const RunStats again = server.drain_and_stop();
  EXPECT_EQ(again.jobs_total, s.jobs_total);
  EXPECT_EQ(again.total_quality, s.total_quality);

  const obs::Registry& reg = server.registry();
  const obs::Histogram* hq = reg.find_histogram("qesd_job_quality");
  ASSERT_NE(hq, nullptr);
  EXPECT_EQ(hq->count(), s.jobs_total);
  EXPECT_EQ(hq->sum(), s.total_quality);
  // Live server instruments exist alongside the final aggregates.
  EXPECT_NE(reg.find_gauge("qesd_admission_queue_depth"), nullptr);
  EXPECT_NE(reg.find_histogram("qesd_replan_publish_ms"), nullptr);
  EXPECT_NE(reg.find_gauge("qesd_virtual_time_ms"), nullptr);
  // And the trace saw every admitted job released and finalized.
  std::size_t releases = 0, finalizes = 0;
  for (const obs::TraceEvent& e : ring.drain()) {
    if (e.kind == obs::TraceEvent::Kind::Release) ++releases;
    if (e.kind == obs::TraceEvent::Kind::Finalize) ++finalizes;
  }
  EXPECT_EQ(releases, s.jobs_total);
  EXPECT_EQ(finalizes, s.jobs_total);
}

TEST(ObsIntegration, ServerJobAggregatesAdvanceWhileServing) {
  // The qesd_* run aggregates are fed as finalized jobs retire, so a
  // scrape of a live server already counts served jobs — and the final
  // totals still equal the RunStats exactly.
  runtime::ServerConfig sc;
  sc.model.cores = 2;
  sc.model.power_budget = 40.0;
  sc.time_scale = 20.0;
  sc.deadline_ms = 100.0;
  runtime::Server server(sc);
  server.start();
  const obs::Registry& reg = server.registry();
  auto jobs_total = [&] {
    double total = 0.0;
    for (const char* o : {"satisfied", "partial", "zero"}) {
      total += reg.find_counter("qesd_jobs_total", {{"outcome", o}})->value();
    }
    return total;
  };
  EXPECT_EQ(jobs_total(), 0.0);
  for (int i = 0; i < 100; ++i) {
    runtime::Request r;
    r.demand = 20.0;
    (void)server.submit(r, std::chrono::milliseconds(50));
  }
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (jobs_total() == 0.0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(jobs_total(), 0.0) << "no job counted before drain_and_stop()";

  const RunStats s = server.drain_and_stop();
  ASSERT_GT(s.jobs_total, 0u);
  EXPECT_EQ(jobs_total(), static_cast<double>(s.jobs_total));
  EXPECT_EQ(reg.find_counter("qesd_jobs_total", {{"outcome", "satisfied"}})
                ->value(),
            static_cast<double>(s.jobs_satisfied));
  EXPECT_EQ(reg.find_counter("qesd_jobs_total", {{"outcome", "partial"}})
                ->value(),
            static_cast<double>(s.jobs_partial));
  EXPECT_EQ(reg.find_counter("qesd_quality_total")->value(), s.total_quality);
  EXPECT_EQ(reg.find_counter("qesd_quality_max_total")->value(),
            s.max_quality);
  EXPECT_EQ(reg.find_histogram("qesd_job_quality")->count(), s.jobs_total);
  EXPECT_EQ(reg.find_histogram("qesd_job_latency_ms")->count(),
            s.jobs_satisfied);
}

TEST(ObsIntegration, ConformanceStillHoldsWithObsAttached) {
  // Observability must be a pure observer: attaching a registry to the
  // runtime side must not perturb conformance with the simulator.
  obs::Registry reg;
  runtime::RuntimeConfig rc;
  rc.cores = 4;
  rc.power_budget = 80.0;
  rc.registry = &reg;
  const runtime::ConformanceResult r =
      runtime::run_conformance(rc, small_workload(53));
  EXPECT_LE(r.quality_abs_diff(),
            1e-6 * std::max(1.0, r.sim.total_quality));
  EXPECT_LE(r.energy_rel_diff(), 0.05);
}

}  // namespace
}  // namespace qes
