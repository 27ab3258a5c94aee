// End-to-end loopback: the open-loop load generator drives a real
// runtime server over the wire, and the generator's client-side ledger
// must reconcile exactly with the server's final run statistics —
// nothing lost, nothing double-counted, quality sums equal.
#include <gtest/gtest.h>

#include <cmath>

#include "net/loadgen.hpp"
#include "runtime/server.hpp"

namespace qes {
namespace {

TEST(NetLoadgenE2E, ClientLedgerReconcilesWithServerStats) {
  runtime::ServerConfig sc;
  sc.model.cores = 8;
  sc.model.power_budget = 160.0;
  sc.time_scale = 20.0;
  sc.deadline_ms = 150.0;
  sc.listen_port = 0;
  sc.ingress_workers = 2;
  runtime::Server server(sc);
  server.start();
  ASSERT_GT(server.listen_port(), 0);

  net::LoadgenConfig lg;
  lg.port = server.listen_port();
  lg.rate = 1500.0;
  lg.duration_s = 1.0;
  lg.connections = 4;
  lg.arrival = net::ArrivalKind::kPoisson;
  lg.seed = 11;
  const net::LoadgenReport rep = net::run_loadgen(lg);

  const RunStats stats = server.drain_and_stop();

  // The wire contract: exactly one REPLY per SUBMIT.
  EXPECT_GT(rep.submitted, 0u);
  EXPECT_EQ(rep.lost, 0u);
  EXPECT_EQ(rep.replies, rep.submitted);
  EXPECT_EQ(rep.satisfied + rep.partial + rep.shed, rep.replies);

  // Client-side outcome counts == server-side accounting.
  EXPECT_EQ(rep.replies - rep.shed, stats.jobs_total);
  EXPECT_EQ(rep.shed, server.shed());
  EXPECT_EQ(rep.satisfied, stats.jobs_satisfied);
  // The REPLY frames carry the finalized quality; summed client-side
  // they reproduce the server's total (floating-point sum order aside).
  EXPECT_NEAR(rep.quality_sum, stats.total_quality,
              1e-6 * std::max(1.0, stats.total_quality));

  // Every reply latency was recorded against its scheduled send time.
  EXPECT_EQ(rep.latency.count, rep.replies);
  EXPECT_GE(rep.latency.max, 0.0);
  // The served-only histogram holds exactly the non-shed replies.
  EXPECT_EQ(rep.served_latency.count, rep.replies - rep.shed);

  // The report serializes (consumed by scripts/record_bench.sh).
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"submitted\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"served_latency_ms\""), std::string::npos);
}

TEST(NetLoadgenE2E, MmppArrivalsDriveTheSameContract) {
  runtime::ServerConfig sc;
  sc.model.cores = 8;
  sc.model.power_budget = 160.0;
  sc.time_scale = 20.0;
  sc.listen_port = 0;
  sc.ingress_workers = 1;
  runtime::Server server(sc);
  server.start();

  net::LoadgenConfig lg;
  lg.port = server.listen_port();
  lg.rate = 800.0;
  lg.duration_s = 0.5;
  lg.connections = 2;
  lg.arrival = net::ArrivalKind::kMmpp;
  lg.mmpp_burst = 6.0;
  lg.mmpp_switch_hz = 4.0;
  lg.seed = 23;
  const net::LoadgenReport rep = net::run_loadgen(lg);
  const RunStats stats = server.drain_and_stop();

  EXPECT_GT(rep.submitted, 0u);
  EXPECT_EQ(rep.lost, 0u);
  EXPECT_EQ(rep.replies, rep.submitted);
  EXPECT_EQ(rep.replies - rep.shed, stats.jobs_total);
}

}  // namespace
}  // namespace qes
