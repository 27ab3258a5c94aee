// The benchmark's own open-loop wire client: one thread, four loopback
// connections, Poisson arrivals drawn in full on construction. Demands are
// bounded Pareto (alpha 3, [5, 50]), every request is partial_ok, and
// replies are scored with the server's quality function
// f(x) = 1 - exp(-0.003 x).
//
// Unlike net::run_loadgen, which pools every reply into one coarse
// histogram, this client keeps one exact sample per request: scheduled
// send time, receive time, reply status, and the model time the server
// reports. Served and shed replies are therefore separated, and each
// served reply splits into model time (REPLY.latency_ms over the time
// scale) and plane wait (everything else: send lag, wire, admission
// ring, trigger tick, reply flush). Latency is measured from the
// scheduled send time, so a stall in the generator or the server is
// charged to every request it delays.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.hpp"

namespace qesbench {

struct ClientConfig {
  double rate = 40000.0;  ///< offered requests per second (Poisson)
  double window_s = 10.0;
  std::uint64_t seed = 1;
};

/// Reply outcome per request; kNone until the REPLY arrives.
enum class Outcome : std::uint8_t { kNone = 0, kServed, kShed };

class OpenLoopClient {
 public:
  /// Draws the whole arrival schedule and every demand, and sizes the
  /// per-request arrays, so the send loop never allocates.
  explicit OpenLoopClient(const ClientConfig& cfg);
  ~OpenLoopClient();

  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Opens the loopback connections (blocking connect, then
  /// non-blocking with TCP_NODELAY).
  void connect(int port);
  /// Closes the connections, so the client can connect to another
  /// server before run().
  void disconnect();

  /// Sends on schedule for the window, then waits until every request
  /// has its reply or 30 s pass. Throws on a protocol error or a dropped
  /// connection.
  void run();

  [[nodiscard]] std::size_t requests() const { return sched_ms_.size(); }
  /// Σ f(demand) over every request: the quality_norm denominator.
  [[nodiscard]] double max_quality() const { return max_quality_; }

  // ---- results (valid after run()) ----
  std::uint64_t replies = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  double quality_sum = 0.0;
  double max_send_lag_ms = 0.0;
  double gen_cpu_s = 0.0;  ///< this thread's CPU inside run()

  /// Exact per-served-reply samples in wall ms. `model_scale` converts
  /// REPLY.latency_ms (virtual ms) to wall ms.
  struct Samples {
    std::vector<double> latency_ms;
    std::vector<double> model_ms;
    std::vector<double> plane_wait_ms;
  };
  [[nodiscard]] Samples served_samples(double model_scale) const;

 private:
  struct Conn {
    int fd = -1;
    qes::net::FrameDecoder decoder;
    std::string out;
    std::size_t out_off = 0;
  };
  void pump_out(Conn& c);
  void on_reply(const qes::net::ReplyFrame& r, double recv_ms);

  ClientConfig cfg_;
  std::vector<Conn> conns_;
  // One slot per request, indexed by req_id (= arrival order).
  std::vector<double> sched_ms_;
  std::vector<double> demand_;
  std::vector<double> recv_ms_;
  std::vector<float> reply_latency_ms_;  // REPLY.latency_ms, virtual
  std::vector<Outcome> outcome_;
  double max_quality_ = 0.0;
};

}  // namespace qesbench
