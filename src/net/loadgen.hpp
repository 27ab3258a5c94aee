// Open-loop load generator for the wire-level request plane.
//
// Closed-loop generators (send, wait for the reply, send again) suffer
// coordinated omission: when the server stalls, the generator silently
// stops issuing the requests that would have observed the stall, so the
// recorded latency distribution is biased toward the good times. This
// generator is open-loop: every arrival is scheduled on the process-wide
// monotonic clock before the run starts ticking (t_next = t_prev + gap,
// never "now + gap"), sends catch up in bursts after any stall, and each
// request's latency is measured from its SCHEDULED send time — a reply
// to a late-sent request is charged the full queueing delay the schedule
// implies. max_send_lag_ms reports how far the sender itself fell behind
// (a generator health check: if it is large, the generator, not the
// server, was the bottleneck).
//
// Arrivals: Poisson (exponential gaps), Uniform (evenly spaced), or a
// 2-state MMPP — a Markov-modulated Poisson process that alternates
// between a low-rate and a high-rate phase (burst factor B: the high
// rate is B times the low rate, mean rate preserved), the standard small
// model for bursty interactive traffic.
//
// The generator multiplexes N persistent binary-protocol connections
// from one thread (poll + nonblocking sockets) and records latency into
// the repo's log-bucketed obs::Histogram. run_loadgen() drives the whole
// lifecycle: connect, send/receive until the duration elapses, then wait
// (bounded) for the outstanding replies.
#pragma once

#include <cstdint>
#include <string>

#include "core/time.hpp"
#include "obs/histogram.hpp"

namespace qes::net {

enum class ArrivalKind { kPoisson, kUniform, kMmpp };

struct LoadgenConfig {
  int port = 0;
  /// Mean aggregate arrival rate (req/s) across all connections.
  double rate = 1000.0;
  /// Linear rate ramp (--rate-ramp start:end): when > 0 the
  /// instantaneous rate runs from `rate` at t = 0 to `rate_end` at
  /// t = duration_s — a trough (end < start) or recovery (end > start)
  /// profile for driving the server's sleep-state path. 0 keeps the
  /// rate constant. MMPP scales both phase rates by the ramp factor, so
  /// the burst structure rides the ramped mean.
  double rate_end = 0.0;
  double duration_s = 1.0;
  int connections = 4;
  ArrivalKind arrival = ArrivalKind::kPoisson;
  /// MMPP burst factor B >= 1: high-phase rate = B * low-phase rate.
  double mmpp_burst = 4.0;
  /// MMPP phase-switch rate (switches per second, symmetric).
  double mmpp_switch_hz = 1.0;
  /// Per-request relative deadline sent on the wire; 0 = server default.
  double deadline_ms = 0.0;
  /// Fraction of requests with partial_ok set.
  double partial_fraction = 1.0;
  /// Bounded-Pareto service demand (matches workload defaults).
  double pareto_alpha = 3.0;
  double demand_min = 130.0;
  double demand_max = 1000.0;
  /// Request ACK frames (costs a reply byte stream; off by default).
  bool want_ack = false;
  std::uint64_t seed = 1;
  /// After the send schedule is exhausted, wait at most this long for
  /// the outstanding replies.
  double drain_timeout_s = 10.0;
};

struct LoadgenReport {
  std::uint64_t submitted = 0;
  std::uint64_t acked = 0;
  std::uint64_t replies = 0;
  std::uint64_t satisfied = 0;
  std::uint64_t partial = 0;
  std::uint64_t shed = 0;
  /// Requests with no reply when the drain timeout expired (0 on a
  /// healthy run: the server owes exactly one REPLY per SUBMIT).
  std::uint64_t lost = 0;
  double quality_sum = 0.0;
  double offered_rate = 0.0;   // submitted / wall duration
  double reply_rate = 0.0;     // replies / wall duration
  double wall_seconds = 0.0;
  /// Worst sender lag behind the open-loop schedule (generator health).
  double max_send_lag_ms = 0.0;
  obs::HistogramSnapshot latency;  // ms, from scheduled send to reply
  /// The same latency over served (satisfied or partial) replies only:
  /// shed replies take the admission fast path and would pull the
  /// quantiles down. `latency` keeps pooling every reply.
  obs::HistogramSnapshot served_latency;

  [[nodiscard]] std::string to_json() const;
};

/// Runs one open-loop session against 127.0.0.1:port. Throws
/// std::runtime_error when the server cannot be reached.
[[nodiscard]] LoadgenReport run_loadgen(const LoadgenConfig& config);

}  // namespace qes::net
