#include "client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>

#include "common.hpp"
#include "core/prng.hpp"
#include "core/quality.hpp"
#include "net/socket_util.hpp"
#include "workload/demand.hpp"

namespace qesbench {

namespace {

constexpr std::size_t kConnections = 4;
constexpr double kParetoAlpha = 3.0;
constexpr double kDemandMin = 5.0;
constexpr double kDemandMax = 50.0;
constexpr double kQualityC = 0.003;
constexpr double kDrainTimeoutS = 30.0;

}  // namespace

OpenLoopClient::OpenLoopClient(const ClientConfig& cfg) : cfg_(cfg) {
  qes::Xoshiro256 rng(cfg_.seed);
  const qes::BoundedPareto demand(kParetoAlpha, kDemandMin, kDemandMax);
  const qes::QualityFunction f = qes::QualityFunction::exponential(kQualityC);
  const double window_ms = cfg_.window_s * 1000.0;
  const double per_ms = cfg_.rate / 1000.0;
  const auto expect = static_cast<std::size_t>(cfg_.rate * cfg_.window_s * 1.05 + 64);
  sched_ms_.reserve(expect);
  demand_.reserve(expect);
  for (double t = rng.exponential(per_ms); t < window_ms;
       t += rng.exponential(per_ms)) {
    sched_ms_.push_back(t);
    demand_.push_back(demand.sample(rng));
    max_quality_ += f(demand_.back());
  }
  const std::size_t n = sched_ms_.size();
  recv_ms_.assign(n, -1.0);
  reply_latency_ms_.assign(n, 0.0f);
  outcome_.assign(n, Outcome::kNone);
  conns_.resize(kConnections);
  for (Conn& c : conns_) c.out.reserve(1 << 20);
}

OpenLoopClient::~OpenLoopClient() { disconnect(); }

void OpenLoopClient::disconnect() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }
}

void OpenLoopClient::connect(int port) {
  for (Conn& c : conns_) {
    c.fd = qes::net::connect_loopback(port);
    qes::net::set_tcp_nodelay(c.fd);
    if (!qes::net::set_nonblocking(c.fd)) {
      throw std::runtime_error("client: cannot make socket non-blocking");
    }
  }
}

void OpenLoopClient::pump_out(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    throw std::runtime_error("client: connection lost mid-send");
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  } else if (c.out_off >= (1u << 16)) {
    c.out.erase(0, c.out_off);
    c.out_off = 0;
  }
}

void OpenLoopClient::on_reply(const qes::net::ReplyFrame& r, double recv_ms) {
  if (r.req_id >= outcome_.size() || outcome_[r.req_id] != Outcome::kNone) {
    throw std::runtime_error("client: reply for an unknown or answered id");
  }
  ++replies;
  recv_ms_[r.req_id] = recv_ms;
  if (r.status == qes::net::ReplyStatus::kShed) {
    ++shed;
    outcome_[r.req_id] = Outcome::kShed;
    return;
  }
  ++served;
  outcome_[r.req_id] = Outcome::kServed;
  quality_sum += r.quality;
  reply_latency_ms_[r.req_id] = static_cast<float>(r.latency_ms);
}

void OpenLoopClient::run() {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = sched_ms_.size();
  const std::size_t nc = conns_.size();
  std::vector<pollfd> pfds(nc);
  char buf[1 << 16];
  const double cpu0 = thread_cpu_s();
  const Clock::time_point t0 = Clock::now();
  auto ms_now = [t0] {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };
  const double give_up_ms = (cfg_.window_s + kDrainTimeoutS) * 1000.0;

  std::size_t next = 0;
  qes::net::SubmitFrame f;
  f.deadline_ms = 0.0;  // server default
  f.weight = 1.0;
  f.partial_ok = true;
  f.want_ack = false;
  for (;;) {
    const double now = ms_now();
    // Catch up on every due send, so a stall bursts the backlog out
    // instead of thinning the offered load.
    while (next < n && sched_ms_[next] <= now) {
      f.req_id = next;
      f.demand = demand_[next];
      qes::net::encode_submit(f, conns_[next % nc].out);
      max_send_lag_ms = std::max(max_send_lag_ms, now - sched_ms_[next]);
      ++next;
    }
    for (std::size_t i = 0; i < nc; ++i) {
      Conn& c = conns_[i];
      if (c.out_off < c.out.size()) pump_out(c);
      pfds[i].fd = c.fd;
      pfds[i].events = POLLIN;
      if (c.out_off < c.out.size()) pfds[i].events |= POLLOUT;
      pfds[i].revents = 0;
    }
    if (next == n && replies == n) break;
    if (next == n && now >= give_up_ms) break;

    double wait_ms = 10.0;
    if (next < n) wait_ms = std::clamp(sched_ms_[next] - ms_now(), 0.0, 10.0);
    const auto wait_ns = static_cast<long>(wait_ms * 1e6);
    const timespec ts{wait_ns / 1000000000L, wait_ns % 1000000000L};
    const int ready = ::ppoll(pfds.data(), nc, &ts, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("client: ppoll failed");
    if (ready <= 0) continue;

    for (std::size_t i = 0; i < nc; ++i) {
      Conn& c = conns_[i];
      if ((pfds[i].revents & POLLOUT) != 0) pump_out(c);
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        const ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got <= 0) throw std::runtime_error("client: server closed a connection");
        const double recv_ms = ms_now();
        c.decoder.feed(buf, static_cast<std::size_t>(got));
        qes::net::Frame fr;
        for (;;) {
          const auto res = c.decoder.next(&fr);
          if (res == qes::net::FrameDecoder::Result::kNeedMore) break;
          if (res == qes::net::FrameDecoder::Result::kError) {
            throw std::runtime_error("client: protocol error: " + c.decoder.error());
          }
          if (fr.type == qes::net::FrameType::kReply) on_reply(fr.reply, recv_ms);
        }
        if (static_cast<std::size_t>(got) < sizeof(buf)) break;
      }
    }
  }
  gen_cpu_s = thread_cpu_s() - cpu0;
}

OpenLoopClient::Samples OpenLoopClient::served_samples(double model_scale) const {
  Samples s;
  s.latency_ms.reserve(served);
  s.model_ms.reserve(served);
  s.plane_wait_ms.reserve(served);
  for (std::size_t i = 0; i < outcome_.size(); ++i) {
    if (outcome_[i] != Outcome::kServed) continue;
    const double lat = recv_ms_[i] - sched_ms_[i];
    const double model = static_cast<double>(reply_latency_ms_[i]) * model_scale;
    s.latency_ms.push_back(lat);
    s.model_ms.push_back(model);
    s.plane_wait_ms.push_back(lat - model);
  }
  return s;
}

}  // namespace qesbench
