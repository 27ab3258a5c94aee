// qes_loadgen: open-loop load generator for the qesd wire plane.
//
//   $ qesd --duration-s 10 --listen-port 7400 --producers 0 &
//   $ qes_loadgen --port 7400 --rate 5000 --duration-s 5
//
// Drives SUBMIT frames at the configured aggregate rate over N
// persistent loopback connections and prints one JSON report line. The
// arrival schedule is fixed on the monotonic clock before each send
// (open-loop), so a stalling server inflates the recorded latencies
// instead of silencing them — see src/net/loadgen.hpp for the
// coordinated-omission rationale.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/loadgen.hpp"

namespace {

using qes::net::ArrivalKind;
using qes::net::LoadgenConfig;

[[noreturn]] void fail(const std::string& why) {
  throw std::invalid_argument(why);
}

void usage() {
  std::fputs(R"(usage: qes_loadgen --port P [options]

  --port P                    qesd --listen-port to drive (required)
  --rate R        (1000)      mean aggregate arrival rate, req/s
  --rate-ramp S:E             ramp the rate linearly from S req/s at
                              t=0 to E req/s at the end of the send
                              window (overrides --rate; trough and
                              recovery profiles)
  --duration-s S  (1)         send window, wall seconds
  --connections N (4)         persistent loopback connections
  --arrival K     (poisson)   poisson | uniform | mmpp
  --mmpp-burst B  (4)         MMPP high-phase rate = B * low-phase rate
  --mmpp-switch-hz F (1)      MMPP phase switches per second
  --deadline-ms D (0)         per-request relative deadline (0 = server
                              default)
  --partial-fraction F (1)    fraction of requests with partial_ok
  --want-ack                  request an ACK frame per SUBMIT
  --seed N        (1)         PRNG seed (schedule + demands)
  --drain-timeout-s S (10)    wait for outstanding replies after the
                              send window
  --help                      this text

Prints one JSON object: submitted/replies/satisfied/partial/shed/lost
counts, quality_sum, offered and reply rates, max_send_lag_ms
(generator health), and the latency distribution measured from each
request's SCHEDULED send instant — latency_ms over every reply,
served_latency_ms over served (non-shed) replies only.
)",
             stdout);
}

double to_double(const std::string& flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const double d = std::stod(v, &pos);
    if (pos != v.size()) fail(flag + ": malformed number '" + v + "'");
    return d;
  } catch (const std::invalid_argument&) {
    fail(flag + ": malformed number '" + v + "'");
  } catch (const std::out_of_range&) {
    fail(flag + ": out of range '" + v + "'");
  }
}

int to_int(const std::string& flag, const std::string& v) {
  const double d = to_double(flag, v);
  // The range check must precede the cast: float-to-int conversion of a
  // value outside int's range is undefined behavior.
  if (d < static_cast<double>(std::numeric_limits<int>::min()) ||
      d > static_cast<double>(std::numeric_limits<int>::max())) {
    fail(flag + ": out of range '" + v + "'");
  }
  const int i = static_cast<int>(d);
  if (static_cast<double>(i) != d) fail(flag + ": expected an integer");
  return i;
}

std::uint64_t to_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v[0] == '-') {
    fail(flag + ": expected a non-negative integer, got '" + v + "'");
  }
  try {
    std::size_t pos = 0;
    const std::uint64_t u = std::stoull(v, &pos);
    if (pos != v.size()) fail(flag + ": malformed number '" + v + "'");
    return u;
  } catch (const std::invalid_argument&) {
    fail(flag + ": malformed number '" + v + "'");
  } catch (const std::out_of_range&) {
    fail(flag + ": out of range '" + v + "'");
  }
}

LoadgenConfig parse(const std::vector<std::string>& args, bool* help) {
  LoadgenConfig cfg;
  cfg.port = -1;
  auto need_value = [&args](std::size_t& i, const std::string& flag) {
    if (i + 1 >= args.size()) fail(flag + ": missing value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      *help = true;
      return cfg;
    } else if (a == "--port") {
      cfg.port = to_int(a, need_value(i, a));
      if (cfg.port < 1 || cfg.port > 65535) {
        fail("--port: must be in [1, 65535]");
      }
    } else if (a == "--rate") {
      cfg.rate = to_double(a, need_value(i, a));
      if (cfg.rate <= 0.0) fail("--rate: must be positive");
    } else if (a == "--rate-ramp") {
      const std::string v = need_value(i, a);
      const std::size_t colon = v.find(':');
      if (colon == std::string::npos || colon == 0 || colon + 1 == v.size()) {
        fail("--rate-ramp: expected start:end, got '" + v + "'");
      }
      cfg.rate = to_double(a, v.substr(0, colon));
      cfg.rate_end = to_double(a, v.substr(colon + 1));
      if (cfg.rate <= 0.0 || cfg.rate_end <= 0.0) {
        fail("--rate-ramp: both rates must be positive");
      }
    } else if (a == "--duration-s") {
      cfg.duration_s = to_double(a, need_value(i, a));
      if (cfg.duration_s <= 0.0) fail("--duration-s: must be positive");
    } else if (a == "--connections") {
      cfg.connections = to_int(a, need_value(i, a));
      if (cfg.connections < 1 || cfg.connections > 1024) {
        fail("--connections: must be in [1, 1024]");
      }
    } else if (a == "--arrival") {
      const std::string v = need_value(i, a);
      if (v == "poisson") {
        cfg.arrival = ArrivalKind::kPoisson;
      } else if (v == "uniform") {
        cfg.arrival = ArrivalKind::kUniform;
      } else if (v == "mmpp") {
        cfg.arrival = ArrivalKind::kMmpp;
      } else {
        fail("--arrival: expected poisson, uniform, or mmpp, got '" + v +
             "'");
      }
    } else if (a == "--mmpp-burst") {
      cfg.mmpp_burst = to_double(a, need_value(i, a));
      if (cfg.mmpp_burst < 1.0) fail("--mmpp-burst: must be >= 1");
    } else if (a == "--mmpp-switch-hz") {
      cfg.mmpp_switch_hz = to_double(a, need_value(i, a));
      if (cfg.mmpp_switch_hz <= 0.0) {
        fail("--mmpp-switch-hz: must be positive");
      }
    } else if (a == "--deadline-ms") {
      cfg.deadline_ms = to_double(a, need_value(i, a));
      if (cfg.deadline_ms < 0.0) fail("--deadline-ms: must be >= 0");
    } else if (a == "--partial-fraction") {
      cfg.partial_fraction = to_double(a, need_value(i, a));
      if (cfg.partial_fraction < 0.0 || cfg.partial_fraction > 1.0) {
        fail("--partial-fraction: must be in [0, 1]");
      }
    } else if (a == "--want-ack") {
      cfg.want_ack = true;
    } else if (a == "--seed") {
      cfg.seed = to_u64(a, need_value(i, a));
    } else if (a == "--drain-timeout-s") {
      cfg.drain_timeout_s = to_double(a, need_value(i, a));
      if (cfg.drain_timeout_s < 0.0) fail("--drain-timeout-s: must be >= 0");
    } else {
      fail("unknown flag '" + a + "' (try --help)");
    }
  }
  if (!*help && cfg.port < 0) fail("--port is required");
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bool help = false;
  LoadgenConfig cfg;
  try {
    cfg = parse(std::vector<std::string>(argv + 1, argv + argc), &help);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qes_loadgen: %s\n", e.what());
    return 2;
  }
  if (help) {
    usage();
    return 0;
  }
  try {
    const qes::net::LoadgenReport rep = qes::net::run_loadgen(cfg);
    std::printf("%s\n", rep.to_json().c_str());
    // Lost replies mean the server dropped requests on the floor — a
    // protocol violation worth a nonzero exit even though the report
    // already counts them.
    return rep.lost == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qes_loadgen: %s\n", e.what());
    return 1;
  }
}
