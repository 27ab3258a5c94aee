#include "net/ingress.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "core/assert.hpp"
#include "net/socket_util.hpp"
#include "obs/registry.hpp"

namespace qes::net {

namespace {

// epoll user-data tags for the two non-connection fds.
constexpr std::uint64_t kTagListener = ~0ull;
constexpr std::uint64_t kTagEventFd = ~0ull - 1;

// Token layout: high bits = worker index, low 40 bits = entry index + 1
// (so a valid token is never 0).
constexpr int kTokenEntryBits = 40;
constexpr std::uint64_t kTokenEntryMask = (1ull << kTokenEntryBits) - 1;

std::uint64_t make_token(int worker, std::uint32_t entry) {
  return (static_cast<std::uint64_t>(worker) << kTokenEntryBits) |
         (static_cast<std::uint64_t>(entry) + 1);
}

// Untrusted wire input: a malformed-but-well-framed SUBMIT must never
// reach RuntimeCore's invariants (QES_ASSERT aborts). Bounds are far
// beyond anything the workload model produces.
bool submit_sane(const SubmitFrame& f) {
  return std::isfinite(f.demand) && f.demand > 0.0 && f.demand <= 1e9 &&
         std::isfinite(f.weight) && f.weight > 0.0 && f.weight <= 1e6 &&
         std::isfinite(f.deadline_ms) && f.deadline_ms >= 0.0 &&
         f.deadline_ms <= 3.6e6;
}

std::string http_response(const std::string& status, const std::string& type,
                          const std::string& body) {
  std::string out = "HTTP/1.1 " + status + "\r\n";
  out += "Content-Type: " + type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

const char* status_name(ReplyStatus s) {
  switch (s) {
    case ReplyStatus::kShed:
      return "shed";
    case ReplyStatus::kSatisfied:
      return "satisfied";
    case ReplyStatus::kPartial:
      return "partial";
  }
  return "unknown";
}

std::string reply_json(const ReplyFrame& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"id\": %llu, \"status\": \"%s\", \"quality\": %.6f, "
                "\"latency_ms\": %.3f}\n",
                static_cast<unsigned long long>(r.req_id),
                status_name(r.status), r.quality, r.latency_ms);
  return buf;
}

}  // namespace

struct Ingress::Worker {
  // One live client connection's bounded state (slab slot, reused).
  struct Conn {
    int fd = -1;
    std::uint32_t gen = 0;  // bumped on close; stale tokens miss
    bool detected = false;  // protocol sniffed from the first byte
    bool http = false;
    bool want_close = false;  // close once `out` drains
    bool epollout = false;    // EPOLLOUT armed
    bool dirty = false;       // queued output this sweep
    int inflight = 0;
    FrameDecoder decoder;
    std::string http_in;
    std::string out;
    std::size_t out_off = 0;
  };

  // One in-flight admitted (or about-to-be-admitted) request.
  struct Entry {
    bool used = false;
    bool http = false;
    std::uint32_t conn = 0;
    std::uint32_t conn_gen = 0;
    std::uint64_t req_id = 0;
  };

  int index = 0;
  int epoll_fd = -1;
  int event_fd = -1;
  Listener listener;
  std::vector<Conn> conns;
  std::vector<std::uint32_t> conn_free;
  std::vector<Entry> entries;
  std::vector<std::uint32_t> entry_free;
  std::vector<std::uint32_t> dirty;
  std::vector<char> read_buf;  // one recv chunk, reused across sweeps
  // ACK/REPLY encode buffer, reused across frames: a 26-byte REPLY is
  // past the small-string buffer, so a fresh string per frame would be
  // one heap allocation per served request.
  std::string frame_buf;
  std::vector<IngressRequest> batch;
  std::vector<Completion> inbox_local;
  std::mutex inbox_mu;
  std::vector<Completion> inbox;

  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> shed_wire{0};
  std::atomic<std::uint64_t> replies{0};

  // Cached instruments (nullptr when no registry is attached); creation
  // takes the registry mutex, recording is atomic.
  obs::Counter* c_connections = nullptr;
  obs::Counter* c_frames = nullptr;
  obs::Counter* c_shed = nullptr;
  obs::Counter* c_replies = nullptr;
  obs::Counter* c_batches = nullptr;
  obs::Histogram* h_batch = nullptr;
};

Ingress::Ingress(IngressConfig config, IngressSink* sink)
    : cfg_(std::move(config)), sink_(sink) {
  QES_ASSERT(sink_ != nullptr);
  QES_ASSERT(cfg_.workers >= 1 && cfg_.workers <= 64);
  QES_ASSERT(cfg_.max_connections >= 1 && cfg_.max_batch >= 1);
  QES_ASSERT(cfg_.read_chunk >= 64 && cfg_.max_write_buffer >= 4096);
}

Ingress::~Ingress() { stop(); }

void Ingress::start() {
  QES_ASSERT_MSG(!started_, "start() may be called once");
  started_ = true;
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    // The first worker may bind an ephemeral port; the rest shard the
    // discovered port via SO_REUSEPORT.
    ListenOptions lo;
    lo.reuseport = true;
    lo.nonblocking = true;
    w->listener = listen_loopback(i == 0 ? cfg_.port : port_, lo);
    if (i == 0) port_ = w->listener.port;
    w->epoll_fd = ::epoll_create1(0);
    w->event_fd = ::eventfd(0, EFD_NONBLOCK);
    if (w->epoll_fd < 0 || w->event_fd < 0) {
      throw std::runtime_error("ingress: epoll/eventfd creation failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagListener;
    ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->listener.fd, &ev);
    ev.data.u64 = kTagEventFd;
    ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->event_fd, &ev);
    if (cfg_.registry != nullptr) {
      const std::string& p = cfg_.metric_prefix;
      w->c_connections = &cfg_.registry->counter(
          p + "_connections_total", "client connections accepted");
      w->c_frames = &cfg_.registry->counter(
          p + "_submit_frames_total", "SUBMIT frames decoded off the wire");
      w->c_shed = &cfg_.registry->counter(
          p + "_shed_replies_total", "shed REPLY frames written to clients");
      w->c_replies = &cfg_.registry->counter(
          p + "_replies_total", "REPLY frames written to clients");
      w->c_batches = &cfg_.registry->counter(
          p + "_admission_batches_total", "batched sink submissions");
      w->h_batch = &cfg_.registry->histogram(
          p + "_admission_batch_size", "SUBMIT frames per sink batch", {},
          obs::Histogram(1.0, 2.0, 12));
    }
    workers_.push_back(std::move(w));
  }
  running_.store(true, std::memory_order_release);
  threads_.reserve(workers_.size());
  for (auto& w : workers_) {
    Worker* wp = w.get();
    threads_.emplace_back([this, wp] { worker_loop(*wp); });
  }
}

void Ingress::stop() {
  if (!started_ || !running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    const std::uint64_t one = 1;
    (void)!::write(w->event_fd, &one, sizeof(one));
  }
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  // Sockets are closed after the join so no worker (and no complete()
  // caller — forbidden concurrently with stop()) can touch a reused fd.
  for (auto& w : workers_) {
    for (Worker::Conn& c : w->conns) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
    if (w->listener.fd >= 0) ::close(w->listener.fd);
    if (w->event_fd >= 0) ::close(w->event_fd);
    if (w->epoll_fd >= 0) ::close(w->epoll_fd);
    w->listener.fd = w->event_fd = w->epoll_fd = -1;
  }
  running_.store(false, std::memory_order_release);
}

void Ingress::complete(const Completion& c) { complete_batch(&c, 1); }

void Ingress::complete_batch(const Completion* batch, std::size_t count) {
  if (!running_.load(std::memory_order_acquire)) return;
  // One scan per worker: each inbox mutex and eventfd is touched at most
  // once per call (workers are few, batches can be large).
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    Worker& w = *workers_[wi];
    bool any = false;
    {
      std::lock_guard<std::mutex> lock(w.inbox_mu);
      for (std::size_t i = 0; i < count; ++i) {
        if ((batch[i].token >> kTokenEntryBits) == wi) {
          w.inbox.push_back(batch[i]);
          any = true;
        }
      }
    }
    if (any) {
      const std::uint64_t one = 1;
      (void)!::write(w.event_fd, &one, sizeof(one));
    }
  }
}

void Ingress::worker_loop(Worker& w) {
  epoll_event evs[64];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(w.epoll_fd, evs, 64, 100);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = evs[i].data.u64;
      if (tag == kTagListener) {
        accept_ready(w);
      } else if (tag == kTagEventFd) {
        std::uint64_t junk = 0;
        (void)!::read(w.event_fd, &junk, sizeof(junk));
      } else {
        const std::uint32_t ci = static_cast<std::uint32_t>(tag);
        if (ci >= w.conns.size() || w.conns[ci].fd < 0) continue;
        if ((evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
          handle_readable(w, ci);
        }
        if ((evs[i].events & EPOLLOUT) != 0 && w.conns[ci].fd >= 0) {
          flush_out(w, ci);
        }
      }
    }
    // One sink call per sweep: this is the admission batching that
    // amortizes the queue lock across a syscall's worth of frames.
    flush_batch(w);
    drain_inbox(w);
    flush_dirty(w);
  }
  // Shutdown: flush whatever the runtime already completed, then give
  // clients a bounded window to take delivery of buffered replies.
  flush_batch(w);
  drain_inbox(w);
  flush_dirty(w);
  for (int spin = 0; spin < 20; ++spin) {
    bool pending = false;
    for (std::uint32_t ci = 0; ci < w.conns.size(); ++ci) {
      Worker::Conn& c = w.conns[ci];
      if (c.fd >= 0 && c.out_off < c.out.size()) {
        flush_out(w, ci);
        if (c.fd >= 0 && c.out_off < c.out.size()) pending = true;
      }
    }
    if (!pending) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void Ingress::accept_ready(Worker& w) {
  for (;;) {
    const int fd = ::accept4(w.listener.fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN: accept queue drained
    std::uint32_t ci;
    if (!w.conn_free.empty()) {
      ci = w.conn_free.back();
      w.conn_free.pop_back();
    } else if (w.conns.size() <
               static_cast<std::size_t>(cfg_.max_connections)) {
      ci = static_cast<std::uint32_t>(w.conns.size());
      w.conns.emplace_back();
    } else {
      ::close(fd);  // at capacity: shed the connection itself
      continue;
    }
    Worker::Conn& c = w.conns[ci];
    const std::uint32_t gen = c.gen;
    c = Worker::Conn{};
    c.fd = fd;
    c.gen = gen;
    set_tcp_nodelay(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = ci;
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    w.connections.fetch_add(1, std::memory_order_relaxed);
    if (w.c_connections != nullptr) w.c_connections->inc();
  }
}

void Ingress::close_conn(Worker& w, std::uint32_t ci) {
  Worker::Conn& c = w.conns[ci];
  if (c.fd < 0) return;
  ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  c.fd = -1;
  // Bump the generation: completions for this connection's in-flight
  // entries are dropped (their Entry is freed on arrival), and a future
  // tenant of this slot can never receive them.
  ++c.gen;
  c.out.clear();
  c.out_off = 0;
  c.http_in.clear();
  c.dirty = false;
  w.conn_free.push_back(ci);
}

void Ingress::handle_readable(Worker& w, std::uint32_t ci) {
  Worker::Conn& c = w.conns[ci];
  std::vector<char>& buf = w.read_buf;
  if (buf.size() != cfg_.read_chunk) buf.resize(cfg_.read_chunk);
  for (;;) {
    const ssize_t r = ::recv(c.fd, buf.data(), buf.size(), 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_conn(w, ci);
      return;
    }
    if (r == 0) {
      // Peer closed. Buffered output (if any) cannot be delivered on a
      // fully closed socket in this design; drop the connection.
      close_conn(w, ci);
      return;
    }
    const std::size_t got = static_cast<std::size_t>(r);
    if (!c.detected) {
      // First byte discriminates: every HTTP method starts with an
      // ASCII letter, while valid frame lengths (34/10/26) do not.
      const char b0 = buf[0];
      c.http = (b0 >= 'A' && b0 <= 'Z') || (b0 >= 'a' && b0 <= 'z');
      c.detected = true;
    }
    if (c.http) {
      c.http_in.append(buf.data(), got);
      if (c.http_in.size() > cfg_.max_http_request) {
        queue_out(w, ci,
                  http_response("413 Payload Too Large", "text/plain",
                                "request too large\n"));
        c.want_close = true;
        return;
      }
      if (!handle_http_input(w, ci)) {
        // Response already queued (or none owed); close after flush.
        return;
      }
    } else {
      c.decoder.feed(buf.data(), got);
      Frame f;
      for (;;) {
        const FrameDecoder::Result res = c.decoder.next(&f);
        if (res == FrameDecoder::Result::kNeedMore) break;
        if (res == FrameDecoder::Result::kError ||
            f.type != FrameType::kSubmit ||
            !on_submit(w, ci, f.submit, /*http=*/false)) {
          close_conn(w, ci);
          return;
        }
        // on_submit can flush a full batch, whose shed replies may
        // overflow this connection's write buffer and close it; stop
        // decoding instead of admitting jobs for a dead client.
        if (c.fd < 0) return;
      }
    }
    if (got < buf.size()) return;  // short read: kernel buffer drained
  }
}

bool Ingress::on_submit(Worker& w, std::uint32_t ci, const SubmitFrame& f,
                        bool http) {
  if (!submit_sane(f)) return false;
  Worker::Conn& c = w.conns[ci];
  if (c.fd < 0) return false;  // closed mid-sweep: nothing to admit
  std::uint32_t ei;
  if (!w.entry_free.empty()) {
    ei = w.entry_free.back();
    w.entry_free.pop_back();
  } else {
    ei = static_cast<std::uint32_t>(w.entries.size());
    w.entries.emplace_back();
  }
  Worker::Entry& e = w.entries[ei];
  e.used = true;
  e.http = http;
  e.conn = ci;
  e.conn_gen = c.gen;
  e.req_id = f.req_id;
  ++c.inflight;
  IngressRequest req;
  req.token = make_token(w.index, ei);
  req.submit = f;
  w.batch.push_back(req);
  w.frames_in.fetch_add(1, std::memory_order_relaxed);
  if (w.batch.size() >= cfg_.max_batch) flush_batch(w);
  return true;
}

bool Ingress::handle_http_input(Worker& w, std::uint32_t ci) {
  Worker::Conn& c = w.conns[ci];
  const std::size_t head_end = c.http_in.find("\r\n\r\n");
  if (head_end == std::string::npos) return true;  // need more
  const std::string head = c.http_in.substr(0, head_end);

  // Content-Length (case-insensitive scan, one header per line).
  std::size_t body_len = 0;
  for (std::size_t pos = 0; pos < head.size();) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos, eol - pos);
    if (line.size() > 15) {
      std::string key = line.substr(0, 15);
      for (char& ch : key) ch = static_cast<char>(std::tolower(ch));
      if (key == "content-length:") {
        body_len = static_cast<std::size_t>(
            std::strtoul(line.c_str() + 15, nullptr, 10));
      }
    }
    pos = eol + 2;
  }
  if (body_len > cfg_.max_http_request) {
    queue_out(w, ci,
              http_response("413 Payload Too Large", "text/plain",
                            "body too large\n"));
    c.want_close = true;
    return false;
  }
  if (c.http_in.size() < head_end + 4 + body_len) return true;  // need body
  const std::string body = c.http_in.substr(head_end + 4, body_len);

  // Request line: METHOD SP PATH SP VERSION (exporter conventions).
  const std::size_t eol = head.find("\r\n");
  const std::string line =
      eol == std::string::npos ? head : head.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    queue_out(w, ci,
              http_response("400 Bad Request", "text/plain",
                            "malformed request line\n"));
    c.want_close = true;
    return false;
  }
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  if (method == "GET" && path == "/healthz") {
    queue_out(w, ci,
              http_response("200 OK", "application/json",
                            "{\"status\": \"ok\", \"plane\": \"ingress\"}\n"));
    c.want_close = true;
    return false;
  }
  if (method != "POST") {
    queue_out(w, ci,
              http_response("405 Method Not Allowed", "text/plain",
                            "POST /submit or GET /healthz\n"));
    c.want_close = true;
    return false;
  }
  if (path != "/submit") {
    queue_out(w, ci,
              http_response("404 Not Found", "text/plain",
                            "no handler for " + path + "; try /submit\n"));
    c.want_close = true;
    return false;
  }

  // Body: demand=..&deadline=..&weight=..&partial=0|1&id=..
  SubmitFrame f;
  f.partial_ok = true;
  for (std::size_t pos = 0; pos < body.size();) {
    std::size_t amp = body.find('&', pos);
    if (amp == std::string::npos) amp = body.size();
    const std::string kv = body.substr(pos, amp - pos);
    const std::size_t eq = kv.find('=');
    if (eq != std::string::npos) {
      const std::string key = kv.substr(0, eq);
      const std::string val = kv.substr(eq + 1);
      if (key == "demand") f.demand = std::atof(val.c_str());
      else if (key == "deadline") f.deadline_ms = std::atof(val.c_str());
      else if (key == "weight") f.weight = std::atof(val.c_str());
      else if (key == "partial") f.partial_ok = std::atoi(val.c_str()) != 0;
      else if (key == "id") f.req_id = std::strtoull(val.c_str(), nullptr, 10);
    }
    pos = amp + 1;
  }
  if (!submit_sane(f)) {
    queue_out(w, ci,
              http_response("400 Bad Request", "text/plain",
                            "demand must be a positive number\n"));
    c.want_close = true;
    return false;
  }
  // Deferred response: the 200/503 is written when the job finalizes (or
  // sheds at the admission batch). One request per connection.
  (void)on_submit(w, ci, f, /*http=*/true);
  c.http_in.clear();
  return false;
}

void Ingress::flush_batch(Worker& w) {
  if (w.batch.empty()) return;
  const std::size_t n = w.batch.size();
  const std::size_t k = sink_->submit_batch(w.batch.data(), n);
  QES_ASSERT(k <= n);
  if (w.c_batches != nullptr) w.c_batches->inc();
  if (w.h_batch != nullptr) w.h_batch->record(static_cast<double>(n));
  std::string& scratch = w.frame_buf;
  for (std::size_t i = 0; i < n; ++i) {
    const IngressRequest& req = w.batch[i];
    const std::uint32_t ei =
        static_cast<std::uint32_t>((req.token & kTokenEntryMask) - 1);
    Worker::Entry& e = w.entries[ei];
    Worker::Conn& c = w.conns[e.conn];
    const bool conn_live = c.fd >= 0 && c.gen == e.conn_gen;
    if (i < k) {
      // Admitted: ACK now when asked; the REPLY arrives via complete().
      if (conn_live && !e.http && req.submit.want_ack) {
        scratch.clear();
        encode_ack(AckFrame{req.submit.req_id, true}, scratch);
        queue_out(w, e.conn, scratch);
      }
      continue;
    }
    // Shed: the wire-level rejection goes out immediately, so the
    // client-observed shed count reconciles exactly with the sink's.
    w.shed_wire.fetch_add(1, std::memory_order_relaxed);
    if (w.c_shed != nullptr) w.c_shed->inc();
    if (conn_live) {
      if (e.http) {
        queue_out(w, e.conn,
                  http_response("503 Service Unavailable", "application/json",
                                reply_json(ReplyFrame{req.submit.req_id,
                                                      ReplyStatus::kShed, 0.0,
                                                      0.0})));
        c.want_close = true;
      } else {
        scratch.clear();
        if (req.submit.want_ack) {
          encode_ack(AckFrame{req.submit.req_id, false}, scratch);
        }
        encode_reply(
            ReplyFrame{req.submit.req_id, ReplyStatus::kShed, 0.0, 0.0},
            scratch);
        queue_out(w, e.conn, scratch);
      }
      w.replies.fetch_add(1, std::memory_order_relaxed);
      if (w.c_replies != nullptr) w.c_replies->inc();
      --c.inflight;
    }
    e.used = false;
    w.entry_free.push_back(ei);
  }
  w.batch.clear();
}

void Ingress::drain_inbox(Worker& w) {
  w.inbox_local.clear();
  {
    std::lock_guard<std::mutex> lock(w.inbox_mu);
    w.inbox_local.swap(w.inbox);
  }
  for (const Completion& c : w.inbox_local) deliver(w, c);
}

void Ingress::deliver(Worker& w, const Completion& comp) {
  const std::uint64_t low = comp.token & kTokenEntryMask;
  if (low == 0) return;
  const std::uint32_t ei = static_cast<std::uint32_t>(low - 1);
  if (ei >= w.entries.size() || !w.entries[ei].used) return;
  Worker::Entry& e = w.entries[ei];
  Worker::Conn& c = w.conns[e.conn];
  if (c.fd >= 0 && c.gen == e.conn_gen) {
    const ReplyFrame r{e.req_id, comp.status, comp.quality, comp.latency_ms};
    if (e.http) {
      queue_out(w, e.conn,
                http_response("200 OK", "application/json", reply_json(r)));
      c.want_close = true;
    } else {
      w.frame_buf.clear();
      encode_reply(r, w.frame_buf);
      queue_out(w, e.conn, w.frame_buf);
    }
    w.replies.fetch_add(1, std::memory_order_relaxed);
    if (w.c_replies != nullptr) w.c_replies->inc();
    --c.inflight;
  }
  e.used = false;
  w.entry_free.push_back(ei);
}

void Ingress::queue_out(Worker& w, std::uint32_t ci, const std::string& data) {
  Worker::Conn& c = w.conns[ci];
  if (c.fd < 0) return;
  if (c.out.size() - c.out_off + data.size() > cfg_.max_write_buffer) {
    // A consumer this slow is broken; buffering further would let one
    // client hold unbounded memory.
    close_conn(w, ci);
    return;
  }
  // Compact the consumed prefix before growing.
  if (c.out_off > 0 && (c.out_off == c.out.size() || c.out_off >= 65536)) {
    c.out.erase(0, c.out_off);
    c.out_off = 0;
  }
  c.out.append(data);
  if (!c.dirty) {
    c.dirty = true;
    w.dirty.push_back(ci);
  }
}

void Ingress::flush_dirty(Worker& w) {
  for (const std::uint32_t ci : w.dirty) {
    Worker::Conn& c = w.conns[ci];
    c.dirty = false;
    if (c.fd >= 0) flush_out(w, ci);
  }
  w.dirty.clear();
}

void Ingress::flush_out(Worker& w, std::uint32_t ci) {
  Worker::Conn& c = w.conns[ci];
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c.epollout) {
        c.epollout = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.u64 = ci;
        ::epoll_ctl(w.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
      }
      return;
    }
    close_conn(w, ci);
    return;
  }
  c.out.clear();
  c.out_off = 0;
  if (c.epollout) {
    c.epollout = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = ci;
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  }
  if (c.want_close) close_conn(w, ci);
}

std::uint64_t Ingress::connections_total() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->connections.load();
  return n;
}
std::uint64_t Ingress::frames_in_total() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->frames_in.load();
  return n;
}
std::uint64_t Ingress::shed_on_wire_total() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->shed_wire.load();
  return n;
}
std::uint64_t Ingress::replies_total() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->replies.load();
  return n;
}

}  // namespace qes::net
