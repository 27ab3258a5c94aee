// End-to-end request-plane latency: qes_loadgen -> epoll ingress ->
// runq admission rings -> C-RR drain + replan -> seqlock plan cells ->
// pacing workers, all over real loopback sockets in one process.
//
// The open-loop generator offers QES_E2E_RATE req/s (default 500k) for
// QES_E2E_SECONDS and reports scheduled-send-to-reply latency as HDR
// percentiles (p50/p99/p999) over every reply, plus p50/p99 over served
// replies only (shed replies skip the plane). At that rate the
// admission rings shed most of the offered load by design — the
// bench's contract is not "serve everything" but "account for
// everything and stay off the slow paths":
//
//  - exact reconciliation: every SUBMIT gets exactly one REPLY, client
//    wire counts == Server::shed()/RunStats == the runq admission
//    ledger (pushed == drained == jobs admitted, shed double-entried);
//  - hot-path discipline: a global operator-new hook and a
//    pthread_mutex_lock interposer (dlsym RTLD_NEXT) feed the
//    qes::runq::hotpath per-thread counters; every pacing worker's
//    steady-state delta must be ZERO allocations and ZERO mutex locks.
//
// Any violated contract exits 1. The RESULT_JSON line is consumed by
// scripts/record_bench.sh into BENCH_<tag>.json.
#include <dlfcn.h>
#include <pthread.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>

#include "net/loadgen.hpp"
#include "obs/http_exporter.hpp"
#include "runq/hotpath.hpp"
#include "runtime/server.hpp"

namespace {

// Every heap allocation and mutex acquisition in the process bumps the
// calling thread's hotpath counter; the pacing workers snapshot their
// own counters around the steady-state loop, so only worker-thread
// activity is gated — the loadgen / ingress / trigger threads may
// allocate freely.
void* counted_alloc(std::size_t n) {
  qes::runq::hotpath::note_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atof(v) : fallback;
}

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atoi(v) : fallback;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

extern "C" int pthread_mutex_lock(pthread_mutex_t* m) {
  using Fn = int (*)(pthread_mutex_t*);
  static Fn real =
      reinterpret_cast<Fn>(dlsym(RTLD_NEXT, "pthread_mutex_lock"));
  qes::runq::hotpath::note_mutex_lock();
  return real(m);
}

int main() {
  using namespace qes;

  // Default a hair above the 500k floor: the Poisson schedule draws its
  // arrival count around the mean, and the recorded run must clear
  // >= 500k req/s offered.
  const double rate = env_double("QES_E2E_RATE", 525000.0);
  const double seconds = env_double("QES_E2E_SECONDS", 1.0);
  const int conns = env_int("QES_E2E_CONNS", 8);
  const int cores = env_int("QES_E2E_CORES", 8);

  runtime::ServerConfig sc;
  sc.model.cores = cores;
  sc.model.power_budget = 20.0 * cores;
  sc.time_scale = 50.0;
  sc.deadline_ms = 150.0;
  sc.tick_wall_ms = 1.0;
  sc.admission_capacity = 4096;
  sc.listen_port = 0;  // ephemeral loopback port
  sc.ingress_workers = 2;
  sc.http_port = 0;  // live scrape plane stays mounted during the storm
  runtime::Server server(sc);
  server.start();
  if (server.listen_port() <= 0) {
    std::fprintf(stderr, "e2e_latency: server failed to listen\n");
    return 1;
  }

  std::printf("=== e2e request-plane latency ===\n");
  std::printf("setup: %d cores, %zu admission shards, loopback port %d, "
              "offered %.0f req/s for %.1fs over %d connections\n\n",
              cores, server.admission_shards(), server.listen_port(), rate,
              seconds, conns);

  net::LoadgenConfig lg;
  lg.port = server.listen_port();
  lg.rate = rate;
  lg.duration_s = seconds;
  lg.connections = conns;
  lg.arrival = net::ArrivalKind::kPoisson;
  // Small demands + the 150ms deadline: admitted jobs finish inside the
  // (time-scaled) horizon, so replies carry real qualities instead of
  // uniform timeouts.
  lg.demand_min = 5.0;
  lg.demand_max = 50.0;
  lg.seed = 20260810;
  // Mid-run live scrape on a side thread (it may allocate freely — only
  // the pacing workers are gated): the attribution families must be
  // visible WHILE the shard plane is under full load.
  std::string live_scrape;
  std::thread scraper([&server, &live_scrape, seconds] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(seconds * 0.5, 0.1)));
    try {
      live_scrape = obs::http_get(server.http_port(), "/metrics");
    } catch (const std::exception&) {
      // leave empty; checked below
    }
  });

  net::LoadgenReport rep;
  try {
    rep = net::run_loadgen(lg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_latency: loadgen failed: %s\n", e.what());
    scraper.join();
    (void)server.kill();
    return 1;
  }
  scraper.join();

  const RunStats stats = server.drain_and_stop();
  const runq::AdmissionLedger led = server.admission_ledger();
  const obs::EnergyAttribution att = server.attribution();

  std::printf("offered %.0f req/s, achieved %.0f req/s, reply rate %.0f/s, "
              "max send lag %.2f ms\n",
              rate, rep.offered_rate, rep.reply_rate, rep.max_send_lag_ms);
  std::printf("submitted %llu  replies %llu  shed %llu (%.1f%%)  lost %llu\n",
              static_cast<unsigned long long>(rep.submitted),
              static_cast<unsigned long long>(rep.replies),
              static_cast<unsigned long long>(rep.shed),
              rep.submitted > 0
                  ? 100.0 * static_cast<double>(rep.shed) /
                        static_cast<double>(rep.submitted)
                  : 0.0,
              static_cast<unsigned long long>(rep.lost));
  std::printf("latency ms: p50 %.3f  p99 %.3f  p999 %.3f  max %.3f\n",
              rep.latency.quantile(0.50), rep.latency.quantile(0.99),
              rep.latency.quantile(0.999), rep.latency.max);
  std::printf("served latency ms (shed excluded, n=%llu): p50 %.3f  "
              "p99 %.3f\n",
              static_cast<unsigned long long>(rep.served_latency.count),
              rep.served_latency.quantile(0.50),
              rep.served_latency.quantile(0.99));
  std::printf("ledger: pushed %llu  drained %llu  stolen %llu  shed %llu\n",
              static_cast<unsigned long long>(led.pushed),
              static_cast<unsigned long long>(led.drained),
              static_cast<unsigned long long>(led.stolen),
              static_cast<unsigned long long>(led.shed));

  // --- Exact reconciliation: wire == server == ring ledger. ---
  bool ok = true;
  auto require = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "e2e_latency: RECONCILIATION FAILED: %s\n", what);
      ok = false;
    }
  };
  require(rep.lost == 0, "every SUBMIT owes exactly one REPLY (lost != 0)");
  require(rep.replies == rep.submitted, "replies != submitted");
  require(rep.replies - rep.shed == stats.jobs_total,
          "client accepted count != RunStats::jobs_total");
  require(rep.shed == server.shed(), "client shed count != Server::shed()");
  require(led.pushed == led.drained, "ring ledger pushed != drained");
  require(led.drained == stats.jobs_total,
          "ring ledger drained != RunStats::jobs_total");
  require(led.shed == server.shed(), "ring ledger shed != Server::shed()");

  // --- Shard plane: the wait-free cells agree with the ring ledger. ---
  const obs::ShardSet& shards = server.shard_set();
  require(shards.fold(runtime::kShardSlotDrained) == led.drained,
          "shard telemetry drained != ring ledger drained");
  require(shards.fold(runtime::kShardSlotShed) == led.shed,
          "shard telemetry shed != ring ledger shed");

  // --- Attribution: per-job energy partitions RunStats.dynamic_energy,
  //     and the families were live on the wire mid-run. ---
  const double energy_rel =
      std::abs(att.energy_total() - stats.dynamic_energy) /
      std::max(1.0, stats.dynamic_energy);
  std::printf("attribution: %.3f J across %llu jobs (rel diff %.2e), "
              "quality/J %.6f\n",
              att.energy_total(),
              static_cast<unsigned long long>(
                  att.jobs(obs::EnergyAttribution::kPartial) +
                  att.jobs(obs::EnergyAttribution::kRigid)),
              energy_rel,
              obs::EnergyAttribution::quality_per_joule(att.quality_total(),
                                                        att.energy_total()));
  require(energy_rel <= 1e-9,
          "attributed energy != RunStats.dynamic_energy (1e-9 rel)");
  require(live_scrape.find("qes_energy_joules_total") != std::string::npos,
          "mid-run /metrics scrape missing qes_energy_joules_total");
  require(live_scrape.find("qes_quality_per_joule") != std::string::npos,
          "mid-run /metrics scrape missing qes_quality_per_joule");

  // --- Hot-path discipline: pacing workers never allocate or lock. ---
  std::uint64_t worker_allocs = 0, worker_locks = 0;
  for (const runtime::WorkerStats& ws : server.worker_stats()) {
    worker_allocs += ws.steady_allocs;
    worker_locks += ws.steady_mutex_locks;
  }
  std::printf("pacing workers steady-state: %llu allocs, %llu mutex locks "
              "across %d workers\n",
              static_cast<unsigned long long>(worker_allocs),
              static_cast<unsigned long long>(worker_locks), cores);
  require(worker_allocs == 0, "pacing worker allocated on the steady path");
  require(worker_locks == 0, "pacing worker took a mutex on the steady path");

  std::printf("\nRESULT_JSON {\"bench\": \"e2e_latency\", "
              "\"target_rate\": %.0f, \"offered_rate\": %.1f, "
              "\"reply_rate\": %.1f, \"submitted\": %llu, "
              "\"replies\": %llu, \"shed\": %llu, \"lost\": %llu, "
              "\"jobs_total\": %zu, \"stolen\": %llu, "
              "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"p999_ms\": %.4f, "
              "\"max_ms\": %.4f, \"served_p50_ms\": %.4f, "
              "\"served_p99_ms\": %.4f, \"max_send_lag_ms\": %.3f, "
              "\"worker_steady_allocs\": %llu, "
              "\"worker_steady_mutex_locks\": %llu, "
              "\"attributed_energy_j\": %.6f, "
              "\"quality_per_joule\": %.6f, "
              "\"reconciled\": %s}\n",
              rate, rep.offered_rate, rep.reply_rate,
              static_cast<unsigned long long>(rep.submitted),
              static_cast<unsigned long long>(rep.replies),
              static_cast<unsigned long long>(rep.shed),
              static_cast<unsigned long long>(rep.lost), stats.jobs_total,
              static_cast<unsigned long long>(led.stolen),
              rep.latency.quantile(0.50), rep.latency.quantile(0.99),
              rep.latency.quantile(0.999), rep.latency.max,
              rep.served_latency.quantile(0.50),
              rep.served_latency.quantile(0.99), rep.max_send_lag_ms,
              static_cast<unsigned long long>(worker_allocs),
              static_cast<unsigned long long>(worker_locks),
              att.energy_total(),
              obs::EnergyAttribution::quality_per_joule(att.quality_total(),
                                                        att.energy_total()),
              ok ? "true" : "false");
  return ok ? 0 : 1;
}
