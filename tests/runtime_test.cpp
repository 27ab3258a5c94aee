// Tests for the qesd runtime building blocks (virtual clock, admission
// queue) and the live multi-threaded server. The live tests run
// time-dilated so a 30-virtual-second serve finishes in ~2 wall seconds.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/prng.hpp"
#include "net/frame.hpp"
#include "net/socket_util.hpp"
#include "runtime/clock.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/server.hpp"
#include "workload/demand.hpp"

namespace qes::runtime {
namespace {

using std::chrono::milliseconds;

TEST(VirtualClock, AdvancesAtScale) {
  VirtualClock clock(50.0);
  std::this_thread::sleep_for(milliseconds(20));
  const Time t = clock.now();
  // 20 wall ms at scale 50 = 1000 virtual ms; allow generous scheduling
  // slack but require clear dilation.
  EXPECT_GE(t, 500.0);
  EXPECT_GT(clock.now(), t - 1e-9);  // monotone
  EXPECT_DOUBLE_EQ(clock.scale(), 50.0);
}

TEST(VirtualClock, WallDeadlineInvertsNow) {
  VirtualClock clock(8.0);
  const Time target = clock.now() + 400.0;  // 50 wall ms ahead
  std::this_thread::sleep_until(clock.wall_deadline(target));
  EXPECT_GE(clock.now(), target - 1.0);
}

TEST(BoundedMpmcQueue, FifoAndCapacity) {
  BoundedMpmcQueue<int> q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full
  EXPECT_FALSE(q.push(3, milliseconds(1)));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedMpmcQueue, DrainAppendsInOrder) {
  BoundedMpmcQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  std::vector<int> out{-1};
  q.drain(out);
  ASSERT_EQ(out.size(), 6u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i) + 1], i);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedMpmcQueue, CloseFailsPushesButDrainsBufferedItems) {
  BoundedMpmcQueue<int> q(4);
  EXPECT_TRUE(q.try_push(7));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_push(8));
  EXPECT_FALSE(q.push(8, milliseconds(1)));
  EXPECT_EQ(q.try_pop().value(), 7);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedMpmcQueue, ConcurrentProducersConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  BoundedMpmcQueue<int> q(16);  // small: exercises blocking backpressure
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (popped.load() < kProducers * kPerProducer) {
        if (auto v = q.try_pop()) {
          sum.fetch_add(*v);
          popped.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i, milliseconds(1000)));
      }
    });
  }
  for (auto& t : threads) t.join();
  const long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

ServerConfig test_server_config(double time_scale) {
  ServerConfig sc;
  sc.model.cores = 8;
  sc.model.power_budget = 160.0;
  sc.time_scale = time_scale;
  sc.deadline_ms = 150.0;
  sc.metrics_interval_ms = 25.0;
  return sc;
}

TEST(Server, ServesDirectSubmissionsToCompletion) {
  Server server(test_server_config(8.0));
  server.start();
  // Light enough (12 x 100 units inside one 150 ms window on 8 cores at
  // 160 W) that the planner completes jobs rather than spreading partial
  // volume across everything.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(server.submit({.demand = 100.0}, milliseconds(100)));
  }
  const RunStats stats = server.drain_and_stop();
  EXPECT_EQ(stats.jobs_total, 12u);
  EXPECT_GT(stats.total_quality, 0.0);
  EXPECT_GT(stats.jobs_satisfied, 0u);
  EXPECT_LE(stats.peak_power, 160.0 * (1.0 + 1e-6) + 1e-6);
  EXPECT_EQ(server.shed(), 0u);
}

TEST(Server, ShedsWhenAdmissionQueueStaysFull) {
  ServerConfig sc = test_server_config(8.0);
  sc.admission_capacity = 1;
  Server server(sc);
  // Submitting before start() makes the outcome deterministic: nothing
  // drains the queue, so exactly one request fits and three are shed.
  std::size_t accepted = 0;
  for (int i = 0; i < 4; ++i) {
    if (server.submit({.demand = 150.0}, milliseconds(0))) ++accepted;
  }
  EXPECT_EQ(accepted, 1u);
  EXPECT_EQ(server.shed(), 3u);
  server.start();
  const RunStats stats = server.drain_and_stop();
  EXPECT_EQ(stats.jobs_total, 1u);
  EXPECT_EQ(server.shed(), 3u);
}

// The acceptance scenario: a 30-virtual-second Poisson workload from
// multiple producers onto 8 worker threads, power budget respected in
// every published metrics snapshot.
TEST(Server, ThirtySecondPoissonWorkloadUnderBudget) {
  const double kScale = 16.0;
  const Time kDurationMs = 30'000.0;
  const double kRate = 120.0;  // requests per virtual second
  constexpr int kProducers = 4;

  Server server(test_server_config(kScale));
  server.start();
  std::atomic<std::size_t> produced{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Xoshiro256 rng(17 + static_cast<std::uint64_t>(p));
      const BoundedPareto demand = BoundedPareto::websearch();
      const double rate_per_ms = kRate / kProducers / 1000.0;
      while (server.now() < kDurationMs) {
        const double gap_ms = rng.exponential(rate_per_ms);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(gap_ms / kScale));
        if (server.now() >= kDurationMs) break;
        if (server.submit({.demand = demand.sample(rng)}, milliseconds(50))) {
          produced.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  const RunStats stats = server.drain_and_stop();

  EXPECT_EQ(stats.jobs_total, produced.load());
  EXPECT_GT(stats.jobs_total, 100u);  // ~3600 expected at rate 120
  EXPECT_GT(stats.jobs_satisfied, 0u);
  EXPECT_GT(stats.normalized_quality, 0.0);
  EXPECT_GT(stats.replans, 0u);

  // The paper's hard constraint: instantaneous power never exceeds H.
  const double budget = 160.0;
  EXPECT_LE(stats.peak_power, budget * (1.0 + 1e-6) + 1e-6);
  ASSERT_FALSE(server.snapshots().empty());
  for (const MetricsSnapshot& s : server.snapshots()) {
    EXPECT_LE(s.planned_power_w, budget + 1e-6);
    EXPECT_LE(s.peak_power_w, budget * (1.0 + 1e-6) + 1e-6);
    EXPECT_FALSE(s.to_json().empty());
  }
  // Workers actually paced jobs (not everything expired unserved).
  Time busy = 0.0;
  for (const WorkerStats& w : server.worker_stats()) busy += w.busy_virtual_ms;
  EXPECT_GT(busy, 0.0);
}

// The trigger sleeps to the next planned segment end: with a 50 ms tick
// and nothing else running, a wire job must be finalized and its REPLY
// forwarded within a few wall ms of its planned finish. The workers never
// poke the trigger, so a reply that waited for the next tick would land
// tens of ms late. Time scale 1 makes virtual ms wall ms.
constexpr double kBoundaryTickWallMs = 50.0;
constexpr double kBoundarySlackWallMs = 10.0;

ServerConfig boundary_server_config() {
  ServerConfig sc;
  sc.model.cores = 1;
  sc.model.power_budget = 20.0;
  sc.time_scale = 1.0;
  sc.deadline_ms = 10.0;
  sc.tick_wall_ms = kBoundaryTickWallMs;
  sc.metrics_interval_ms = 1000.0;
  sc.listen_port = 0;
  sc.ingress_workers = 1;
  return sc;
}

// Connects and lets the trigger settle into a tick-long wait with no
// plan installed, so only a boundary wake can beat the tick.
int connect_idle(const Server& server) {
  const int fd = net::connect_loopback(server.listen_port());
  std::this_thread::sleep_for(milliseconds(60));
  return fd;
}

void send_job(int fd, double demand) {
  net::SubmitFrame f;
  f.req_id = 7;
  f.demand = demand;
  f.partial_ok = true;
  std::string wire;
  net::encode_submit(f, wire);
  ASSERT_TRUE(net::send_all(fd, wire));
}

// Blocks for the REPLY (the socket's 2 s receive timeout bounds it).
net::ReplyFrame await_reply(int fd) {
  net::FrameDecoder dec;
  net::Frame frame;
  char buf[256];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      ADD_FAILURE() << "no REPLY before the socket timeout";
      return {};
    }
    dec.feed(buf, static_cast<std::size_t>(n));
    if (dec.next(&frame) == net::FrameDecoder::Result::kFrame) {
      EXPECT_EQ(frame.type, net::FrameType::kReply);
      return frame.reply;
    }
  }
}

// `elapsed_ms` runs from the send; the job's planned finish is its
// release (the send, give or take the admission wake) plus the REPLY's
// latency.
void expect_forwarded_at_planned_finish(const net::ReplyFrame& reply,
                                        double elapsed_ms) {
  EXPECT_EQ(reply.req_id, 7u);
  EXPECT_EQ(reply.status, net::ReplyStatus::kSatisfied);
  EXPECT_GT(reply.latency_ms, 0.0);
  EXPECT_LE(elapsed_ms, reply.latency_ms + kBoundarySlackWallMs)
      << "REPLY forwarded " << elapsed_ms << " wall ms after submission "
      << "for a job planned to finish " << reply.latency_ms
      << " ms after release (tick " << kBoundaryTickWallMs << " ms)";
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(Server, TriggerForwardsCompletionAtPlannedSegmentEnd) {
  Server server(boundary_server_config());
  server.start();
  const int fd = connect_idle(server);
  const auto t_send = std::chrono::steady_clock::now();
  send_job(fd, 5.0);
  const net::ReplyFrame reply = await_reply(fd);
  expect_forwarded_at_planned_finish(reply, ms_since(t_send));
  EXPECT_LE(reply.latency_ms, 10.0 + 1e-6);  // within its deadline
  ::close(fd);
  EXPECT_EQ(server.drain_and_stop().jobs_total, 1u);
}

// The broker path replans and republishes off the trigger thread. With a
// sleep state, race-to-idle runs the job flat out at the budget's speed
// cap: at H = 5 W (cap 1) it ends 50 ms after release, which is the
// boundary the trigger goes to sleep on; raising H to 20 W mid-flight
// (cap 2 = the critical speed) re-times it to end ~27 ms after release.
// Unless set_power_budget() pokes the trigger to recompute its wake from
// the new plan, the REPLY waits for the stale 50 ms boundary.
TEST(Server, TriggerFollowsNewPlansAfterBudgetChange) {
  ServerConfig sc = boundary_server_config();
  sc.model.power_budget = 5.0;
  sc.deadline_ms = 100.0;
  sc.model.power_model.b = 20.0;  // critical speed sqrt(20 / 5) = 2
  sc.model.power_model.sleep_enabled = true;
  Server server(sc);
  server.start();
  const int fd = connect_idle(server);
  const auto t_send = std::chrono::steady_clock::now();
  send_job(fd, 50.0);
  std::this_thread::sleep_for(milliseconds(5));
  server.set_power_budget(20.0);
  const net::ReplyFrame reply = await_reply(fd);
  expect_forwarded_at_planned_finish(reply, ms_since(t_send));
  // Raced at the new cap, not the old one (which would end at 50 ms).
  EXPECT_LT(reply.latency_ms, 40.0);
  ::close(fd);
  const RunStats stats = server.drain_and_stop();
  EXPECT_EQ(stats.jobs_total, 1u);
  EXPECT_LE(stats.peak_power, 20.0 * (1.0 + 1e-6) + 1e-6);
}

TEST(Server, SnapshotJsonHasExpectedKeys) {
  MetricsSnapshot s;
  s.t_virtual_ms = 1234.5;
  s.admitted = 10;
  const std::string j = s.to_json();
  EXPECT_NE(j.find("\"t_ms\": 1234.500"), std::string::npos);
  EXPECT_NE(j.find("\"admitted\": 10"), std::string::npos);
  EXPECT_NE(j.find("\"planned_power_w\""), std::string::npos);
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
}

}  // namespace
}  // namespace qes::runtime
