#include "net/loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "core/assert.hpp"
#include "core/prng.hpp"
#include "net/frame.hpp"
#include "net/socket_util.hpp"
#include "workload/demand.hpp"

namespace qes::net {

namespace {

using WallClock = std::chrono::steady_clock;

double ms_since(WallClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - t0)
      .count();
}

// Draws the open-loop arrival schedule. For MMPP the phase switches are
// handled by the memoryless property: a gap that would cross the next
// switch is discarded and re-drawn from the new phase's rate starting at
// the switch instant.
class ArrivalSchedule {
 public:
  ArrivalSchedule(const LoadgenConfig& cfg, Xoshiro256& rng)
      : cfg_(cfg), rng_(rng) {
    if (cfg_.arrival == ArrivalKind::kMmpp) {
      QES_ASSERT(cfg_.mmpp_burst >= 1.0 && cfg_.mmpp_switch_hz > 0.0);
      rate_low_ = 2.0 * cfg_.rate / (1.0 + cfg_.mmpp_burst);
      rate_high_ = cfg_.mmpp_burst * rate_low_;
      next_switch_ms_ = rng_.exponential(cfg_.mmpp_switch_hz / 1000.0);
    }
  }

  /// Instantaneous mean rate (req/s) at `t_ms`: linear from rate to
  /// rate_end over the send window (clamped past it), constant without
  /// a ramp. Gap draws use the rate at the gap's start — a stepwise
  /// approximation of the nonhomogeneous process, exact for uniform.
  [[nodiscard]] double rate_at(double t_ms) const {
    if (cfg_.rate_end <= 0.0) return cfg_.rate;
    const double span_ms = cfg_.duration_s * 1000.0;
    const double f = std::clamp(t_ms / span_ms, 0.0, 1.0);
    return cfg_.rate + (cfg_.rate_end - cfg_.rate) * f;
  }

  /// The next arrival instant (ms) after `t_ms`.
  double next(double t_ms) {
    switch (cfg_.arrival) {
      case ArrivalKind::kUniform:
        return t_ms + 1000.0 / rate_at(t_ms);
      case ArrivalKind::kPoisson:
        return t_ms + rng_.exponential(rate_at(t_ms) / 1000.0);
      case ArrivalKind::kMmpp:
        break;
    }
    for (;;) {
      const double rate =
          (high_ ? rate_high_ : rate_low_) * (rate_at(t_ms) / cfg_.rate);
      const double gap = rng_.exponential(rate / 1000.0);
      if (t_ms + gap < next_switch_ms_) return t_ms + gap;
      t_ms = next_switch_ms_;
      high_ = !high_;
      next_switch_ms_ =
          t_ms + rng_.exponential(cfg_.mmpp_switch_hz / 1000.0);
    }
  }

 private:
  const LoadgenConfig& cfg_;
  Xoshiro256& rng_;
  double rate_low_ = 0.0;
  double rate_high_ = 0.0;
  double next_switch_ms_ = 0.0;
  bool high_ = false;
};

struct GenConn {
  int fd = -1;
  FrameDecoder decoder;
  std::string out;
  std::size_t out_off = 0;
};

// Flushes as much pending output as the socket accepts right now.
void pump_out(GenConn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    throw std::runtime_error("loadgen: connection lost mid-send");
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  } else if (c.out_off >= 65536) {
    c.out.erase(0, c.out_off);
    c.out_off = 0;
  }
}

}  // namespace

std::string LoadgenReport::to_json() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"submitted\": %llu, \"acked\": %llu, \"replies\": %llu, "
      "\"satisfied\": %llu, \"partial\": %llu, \"shed\": %llu, "
      "\"lost\": %llu, \"quality_sum\": %.6f, \"offered_rate\": %.1f, "
      "\"reply_rate\": %.1f, \"wall_seconds\": %.3f, "
      "\"max_send_lag_ms\": %.3f, \"latency_ms\": {\"count\": %llu, "
      "\"mean\": %.4f, \"p50\": %.4f, \"p95\": %.4f, \"p99\": %.4f, "
      "\"p999\": %.4f, \"max\": %.4f}, \"served_latency_ms\": "
      "{\"count\": %llu, \"p50\": %.4f, \"p99\": %.4f, \"max\": %.4f}}",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(acked),
      static_cast<unsigned long long>(replies),
      static_cast<unsigned long long>(satisfied),
      static_cast<unsigned long long>(partial),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(lost), quality_sum, offered_rate,
      reply_rate, wall_seconds, max_send_lag_ms,
      static_cast<unsigned long long>(latency.count),
      latency.count > 0 ? latency.sum / static_cast<double>(latency.count)
                        : 0.0,
      latency.quantile(0.50), latency.quantile(0.95), latency.quantile(0.99),
      latency.quantile(0.999), latency.max,
      static_cast<unsigned long long>(served_latency.count),
      served_latency.quantile(0.50), served_latency.quantile(0.99),
      served_latency.max);
  return buf;
}

LoadgenReport run_loadgen(const LoadgenConfig& cfg) {
  QES_ASSERT(cfg.rate > 0.0 && cfg.duration_s > 0.0 && cfg.connections >= 1);
  QES_ASSERT(cfg.rate_end >= 0.0);
  QES_ASSERT(cfg.partial_fraction >= 0.0 && cfg.partial_fraction <= 1.0);

  Xoshiro256 rng(cfg.seed);
  ArrivalSchedule schedule(cfg, rng);
  const BoundedPareto demand(cfg.pareto_alpha, cfg.demand_min, cfg.demand_max);

  std::vector<GenConn> conns(static_cast<std::size_t>(cfg.connections));
  std::vector<pollfd> pfds(conns.size());
  for (GenConn& c : conns) {
    c.fd = connect_loopback(cfg.port);
    set_tcp_nodelay(c.fd);
    (void)set_nonblocking(c.fd);
  }

  // 10 us .. ~1.7 min in 40 buckets (growth 1.5): sub-ms loopback RTTs
  // and multi-second stalls both land in finite buckets.
  obs::Histogram hist(0.01, 1.5, 40);
  obs::Histogram served_hist(0.01, 1.5, 40);  // same buckets, shed excluded
  LoadgenReport rep;

  // Scheduled send instant per dense req_id — the open-loop anchor every
  // latency is measured from.
  std::vector<double> sched_ms;
  const double mean_rate =
      cfg.rate_end > 0.0 ? 0.5 * (cfg.rate + cfg.rate_end) : cfg.rate;
  sched_ms.reserve(static_cast<std::size_t>(
      std::min(mean_rate * cfg.duration_s * 1.25 + 1024.0, 64e6)));

  const double duration_ms = cfg.duration_s * 1000.0;
  double next_arrival = schedule.next(0.0);
  bool sending = next_arrival < duration_ms;
  std::size_t rr = 0;  // round-robin connection cursor
  char buf[65536];

  const WallClock::time_point t0 = WallClock::now();
  const double drain_deadline_ms = duration_ms + cfg.drain_timeout_s * 1000.0;
  std::string scratch;

  for (;;) {
    const double now_ms = ms_since(t0);

    // Catch the schedule up to now: after any stall this bursts out all
    // overdue sends instead of silently skipping them (the open-loop
    // discipline that defeats coordinated omission).
    while (sending && next_arrival <= now_ms) {
      SubmitFrame f;
      f.req_id = rep.submitted;
      f.demand = demand.sample(rng);
      f.deadline_ms = cfg.deadline_ms;
      f.weight = 1.0;
      f.partial_ok = rng.bernoulli(cfg.partial_fraction);
      f.want_ack = cfg.want_ack;
      scratch.clear();
      encode_submit(f, scratch);
      GenConn& c = conns[rr];
      rr = (rr + 1) % conns.size();
      c.out.append(scratch);
      sched_ms.push_back(next_arrival);
      ++rep.submitted;
      rep.max_send_lag_ms =
          std::max(rep.max_send_lag_ms, now_ms - next_arrival);
      next_arrival = schedule.next(next_arrival);
      if (next_arrival >= duration_ms) sending = false;
    }

    for (std::size_t i = 0; i < conns.size(); ++i) {
      // Opportunistic send before polling: freshly queued frames usually
      // fit the socket buffer without waiting a poll round.
      if (conns[i].out_off < conns[i].out.size()) pump_out(conns[i]);
      pfds[i].fd = conns[i].fd;
      pfds[i].events = POLLIN;
      if (conns[i].out_off < conns[i].out.size()) pfds[i].events |= POLLOUT;
      pfds[i].revents = 0;
    }

    const bool all_sent = !sending;
    if (all_sent && rep.replies + rep.lost >= rep.submitted) break;
    if (all_sent && now_ms >= drain_deadline_ms) {
      rep.lost = rep.submitted - rep.replies;
      break;
    }

    int timeout_ms = 10;
    if (sending) {
      const double until_next = next_arrival - ms_since(t0);
      timeout_ms = std::clamp(static_cast<int>(until_next), 0, 10);
    }
    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error("loadgen: poll() failed");
    }
    if (ready <= 0) continue;

    const double recv_ms = ms_since(t0);
    for (std::size_t i = 0; i < conns.size(); ++i) {
      GenConn& c = conns[i];
      if ((pfds[i].revents & POLLOUT) != 0) pump_out(c);
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) {
          throw std::runtime_error("loadgen: server closed the connection");
        }
        c.decoder.feed(buf, static_cast<std::size_t>(n));
        Frame fr;
        for (;;) {
          const FrameDecoder::Result res = c.decoder.next(&fr);
          if (res == FrameDecoder::Result::kNeedMore) break;
          if (res == FrameDecoder::Result::kError) {
            throw std::runtime_error("loadgen: protocol error: " +
                                     c.decoder.error());
          }
          if (fr.type == FrameType::kAck) {
            ++rep.acked;
            continue;
          }
          if (fr.type != FrameType::kReply) continue;
          ++rep.replies;
          const std::uint64_t id = fr.reply.req_id;
          if (id < sched_ms.size()) {
            const double lat = std::max(0.0, recv_ms - sched_ms[id]);
            hist.record(lat);
            if (fr.reply.status != ReplyStatus::kShed) served_hist.record(lat);
          }
          switch (fr.reply.status) {
            case ReplyStatus::kShed:
              ++rep.shed;
              break;
            case ReplyStatus::kSatisfied:
              ++rep.satisfied;
              rep.quality_sum += fr.reply.quality;
              break;
            case ReplyStatus::kPartial:
              ++rep.partial;
              rep.quality_sum += fr.reply.quality;
              break;
          }
        }
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      }
    }
  }

  rep.wall_seconds = ms_since(t0) / 1000.0;
  for (GenConn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (rep.wall_seconds > 0.0) {
    // Offered rate is measured over the send window; replies keep
    // arriving through the drain, so their rate uses the full wall time.
    rep.offered_rate = static_cast<double>(rep.submitted) /
                       std::min(rep.wall_seconds, cfg.duration_s);
    rep.reply_rate = static_cast<double>(rep.replies) / rep.wall_seconds;
  }
  rep.latency = hist.snapshot();
  rep.served_latency = served_hist.snapshot();
  return rep;
}

}  // namespace qes::net
