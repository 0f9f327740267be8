// wire_small: one shard (2 workers, recovery on, no faults) behind
// fleet::Frontend on loopback, driven open loop with Poisson arrivals
// over four pipelined connections by one generator thread that speaks
// the public fleet::wire API. Scoring is ~0.2 µs here, so the cost
// measured is the per-request machinery around it.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <stdexcept>

#include "robusthd/fleet/fleet.hpp"
#include "robusthd/fleet/frontend.hpp"
#include "robusthd/fleet/wire.hpp"
#include "robusthd/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fleet = robusthd::fleet;
namespace hv = robusthd::hv;
namespace wire = robusthd::fleet::wire;

// Fixed operating points in absolute q/s, about 10% and 20% of the
// saturation throughput measured at the commit that introduced this
// benchmark on a 4-vCPU AVX-512 VM (~125k; half that in slow minutes on a
// shared host, where a hi nearer the knee saturated and its median
// latency jumped tenfold). Never re-derived per run. The validity bound
// is a tenth of a 2 ms latency limit.
constexpr OpenLoopPlan kPlan{"wire_small", 10000, 25000, 200};
constexpr std::size_t kConnections = 4;

/// Open-loop generator over `kConnections` non-blocking connections.
class WireLoad {
 public:
  WireLoad(std::uint16_t port, std::span<const hv::BinVec> queries,
           VersionedReference& refs, std::span<const int> labels)
      : port_(port), queries_(queries), refs_(refs), labels_(labels) {
    for (auto& c : conns_) c.fd = connect_one();
  }
  ~WireLoad() {
    for (auto& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  WireLoad(const WireLoad&) = delete;
  WireLoad& operator=(const WireLoad&) = delete;

  /// Open loop at `rate` (Poisson), or closed loop with `depth` requests
  /// outstanding when `depth` > 0.
  Window run(double rate, double seconds, std::uint64_t seed,
             SpanLog* spans = nullptr, std::size_t depth = 0);

  /// Why each connection the server dropped was lost (requests pending on
  /// it count as failed; the generator reconnects for the next window).
  const std::vector<std::string>& lost() const noexcept { return lost_; }

 private:
  struct Conn {
    int fd = -1;
    wire::FrameReader reader;
    std::vector<std::byte> out;
    std::size_t out_off = 0;
    std::string dead;  ///< why the connection failed; empty while alive
  };
  int connect_one() const;
  bool flush(Conn& c);

  std::uint16_t port_;
  std::span<const hv::BinVec> queries_;
  VersionedReference& refs_;
  std::span<const int> labels_;
  Conn conns_[kConnections];
  std::uint64_t next_id_ = 1;
  std::vector<std::string> lost_;
};

int WireLoad::connect_one() const {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("wire_small: connect failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WireLoad::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

Window WireLoad::run(double rate, double seconds, std::uint64_t seed,
                     SpanLog* spans, std::size_t depth) {
  const RequestSpans k = spans ? request_spans(*spans) : RequestSpans{};

  // Closed loop: room for 400k q/s, each due time set when it is sent.
  auto due = depth > 0 ? std::vector<std::int64_t>(
                             static_cast<std::size_t>(seconds * 4e5) + 1)
                       : poisson_schedule(rate, seconds, seed);
  const std::size_t n = due.size();
  std::vector<std::uint32_t> qidx(n);
  robusthd::util::Xoshiro256 pick(seed ^ 0x9e3779b97f4a7c15ULL);
  for (auto& q : qidx) {
    q = static_cast<std::uint32_t>(pick.next() % queries_.size());
  }
  std::vector<std::uint8_t> done(n, 0);
  std::vector<double> late_us;
  late_us.reserve(n);
  if (spans) spans->reserve(spans->size() + 4 * n);

  Window w;
  w.offered_qps = rate;
  w.seconds = seconds;
  w.attempted = n;
  w.latency.reserve(n);
  const std::uint64_t base = next_id_;
  next_id_ += n;

  const ProcSample p0 = proc_counters().read();
  const std::int64_t t0 = now_ns() + 200000;
  const std::int64_t quarter = t0 + static_cast<std::int64_t>(seconds * 0.25e9);
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t drain_deadline = end + 2000000000LL;
  std::int64_t out_quarter = -1;
  std::int64_t out_end = -1;
  std::size_t sent = 0;
  std::size_t completed = 0;
  pollfd pfds[kConnections];
  std::byte buf[1 << 16];

  auto handle = [&](const wire::Frame& frame, std::int64_t at) {
    const std::uint64_t i = frame.request_id - base;
    if (frame.request_id < base || i >= n || done[i]) return;  // stale
    done[i] = 1;
    ++completed;
    const std::int64_t due_at = t0 + due[i];
    bool ok = false;
    const std::int64_t d0 = spans ? now_ns() : 0;
    if (frame.type == wire::FrameType::kPredictResponse) {
      if (const auto res = wire::parse_predict_response(frame)) {
        const Reference* ref = refs_.find(res->model_version, qidx[i]);
        if (res->abstained) {
          ok = false;
        } else if (ref == nullptr) {
          ok = true;  // unverifiable, counted in refs_.unverified
          if (res->predicted == labels_[qidx[i]]) ++w.correct_labels;
        } else if (res->predicted != ref->label ||
                   double_bits(res->confidence) != ref->confidence_bits) {
          ++w.mismatches;
        } else {
          ok = true;
          if (res->predicted == labels_[qidx[i]]) ++w.correct_labels;
        }
      }
    }
    if (spans) {
      spans->record(frame.request_id, k.check, d0, now_ns());
      spans->record(frame.request_id, k.request, due_at, now_ns());
    }
    ++w.answered;
    if (ok) {
      w.latency.add_ms(static_cast<double>(at - due_at) * 1e-6);
    } else {
      ++w.failed;
      w.latency.add_failure();
    }
  };

  const std::size_t cap = depth > 0 ? depth : max_outstanding(rate);
  std::size_t end_of_schedule = n;
  for (;;) {
    std::int64_t now = now_ns();
    if (depth > 0) {
      if (now >= end) end_of_schedule = std::min(end_of_schedule, sent);
      for (std::size_t i = sent; i < end_of_schedule &&
                                 i < completed + depth; ++i) {
        due[i] = now - t0;
      }
    } else if (sent < end_of_schedule && sent - completed > cap) {
      end_of_schedule = sent;  // overloaded: stop sending, drain
    }
    while (sent < end_of_schedule && t0 + due[sent] <= now &&
           sent - completed < cap + (depth > 0 ? 0 : 1)) {
      Conn& c = conns_[sent % kConnections];
      const std::int64_t e0 = spans ? now_ns() : 0;
      wire::append_predict_request(c.out, 1, base + sent,
                                   queries_[qidx[sent]]);
      if (spans) {
        spans->record(base + sent, k.gen_late, t0 + due[sent], e0);
        spans->record(base + sent, k.submit, e0, now_ns());
      }
      late_us.push_back(static_cast<double>(now - (t0 + due[sent])) * 1e-3);
      ++sent;
    }
    refs_.poll();
    if (out_quarter < 0 && now >= quarter) {
      out_quarter = static_cast<std::int64_t>(sent - completed);
    }
    if (out_end < 0 && now >= end) {
      out_end = static_cast<std::int64_t>(sent - completed);
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      Conn& conn = conns_[c];
      if (conn.dead.empty() && !conn.out.empty() && !flush(conn)) {
        conn.dead = std::string("send: ") + std::strerror(errno);
      }
      pfds[c].fd = conn.dead.empty() ? conn.fd : -1;
      pfds[c].events = static_cast<short>(
          POLLIN | (conn.out.empty() ? 0 : POLLOUT));
      pfds[c].revents = 0;
    }
    if (completed == n || now > drain_deadline) break;
    if (completed == sent && sent == end_of_schedule) break;
    const std::int64_t wake = sent < end_of_schedule
                                  ? (depth > 0 ? end : t0 + due[sent])
                                  : drain_deadline;
    const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
    timespec ts{static_cast<time_t>(wait / 1000000000),
                static_cast<long>(wait % 1000000000)};
    if (::ppoll(pfds, kConnections, &ts, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < kConnections; ++c) {
      Conn& conn = conns_[c];
      if (pfds[c].revents == 0 || !conn.dead.empty()) continue;
      for (;;) {
        const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (got > 0) {
          conn.reader.feed({buf, static_cast<std::size_t>(got)});
          const std::int64_t at = now_ns();
          while (auto frame = conn.reader.next()) handle(*frame, at);
          if (conn.reader.poisoned()) {
            conn.dead = std::string("response framing: ") +
                        wire::wire_error_name(conn.reader.error());
            break;
          }
          continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got < 0 && errno == EINTR) continue;
        conn.dead = got == 0 ? std::string("closed by the server")
                             : std::string("recv: ") + std::strerror(errno);
        break;
      }
    }
  }
  if (depth > 0) {
    w.attempted = sent;  // a closed loop attempts only what it sends
  } else {
    w.unsent = n - sent;
  }
  for (std::size_t i = 0; i < w.attempted; ++i) {
    if (!done[i]) {
      ++w.failed;
      w.latency.add_failure();
    }
  }
  const ProcSample p1 = proc_counters().read();
  w.proc = {p1.cpu_s - p0.cpu_s, p1.ctx_switches - p0.ctx_switches,
            p1.migrations - p0.migrations, p1.page_faults - p0.page_faults};
  if (out_quarter < 0) out_quarter = 0;
  if (out_end < 0) out_end = static_cast<std::int64_t>(sent - completed);
  w.backlog_growth = depth > 0 || n == 0
                         ? 0.0
                         : static_cast<double>(out_end - out_quarter) /
                               static_cast<double>(n);
  if (depth == 0) {
    Samples late;
    for (const double v : late_us) late.add_ms(v);
    w.late_p50_us = late.percentile(50);
    w.late_p90_us = late.percentile(90);
    w.late_p99_us = late.percentile(99);
  }
  for (auto& c : conns_) {
    if (c.dead.empty()) continue;
    lost_.push_back(c.dead);
    ::close(c.fd);
    c.reader.reset();
    c.out.clear();
    c.out_off = 0;
    c.dead.clear();
    c.fd = connect_one();
  }
  return w;
}

/// Everything one setup builds; members are destroyed in reverse order.
struct Stack {
  PamapWorld world;
  std::unique_ptr<fleet::Fleet> fleet;
  std::unique_ptr<VersionedReference> refs;
  std::unique_ptr<fleet::Frontend> frontend;
  std::unique_ptr<WireLoad> load;

  ~Stack() {
    load.reset();
    if (frontend) frontend->stop();
    if (fleet) fleet->shutdown();
  }
};

std::unique_ptr<Stack> set_up(std::uint64_t seed, double& seconds) {
  const std::int64_t start = now_ns();
  auto s = std::make_unique<Stack>();
  s->world = make_pamap_world();
  // Fixed placement on 4 CPUs: the two workers and the scrubber on CPUs
  // 0-1, the frontend loop on 2, the generator on 3. Left to the
  // scheduler (or with the frontend and generator sharing two CPUs), runs
  // flip between co-located and separated layouts, and CPU per query and
  // median latency jump by 25-100% between them.
  fleet::FleetConfig config;
  fleet::ShardConfig shard;
  shard.server.worker_threads = 2;
  shard.server.enable_recovery = true;
  shard.cpus = {0, 1};
  config.shards.push_back(shard);
  std::vector<robusthd::model::HdcModel> models{s->world.model};
  pin_this_thread({0, 1});
  s->fleet = std::make_unique<fleet::Fleet>(std::move(models),
                                            std::move(config));
  pin_this_thread({2});
  s->frontend = std::make_unique<fleet::Frontend>(*s->fleet);
  s->frontend->start();
  pin_this_thread({3});
  auto& server = s->fleet->shard(0).server();
  s->refs = std::make_unique<VersionedReference>(server, s->world.queries);
  s->load = std::make_unique<WireLoad>(s->frontend->ports().at(0),
                                       s->world.queries, *s->refs,
                                       s->world.labels);
  // First servable request: one answer over the wire.
  const Window first = s->load->run(1000.0, 0.002, seed);
  seconds = static_cast<double>(now_ns() - start) * 1e-9;
  if (first.answered != first.attempted || first.failed != 0) {
    throw std::runtime_error("wire_small: first request failed");
  }
  // Not timed: on a clean model the scrubber still rewrites chunks from
  // trusted traffic until its per-chunk repair budget settles. Serve the
  // pool in-process until a full pass publishes nothing, so the measured
  // windows score (and are checked against) a settled snapshot.
  for (int pass = 0; pass < 50; ++pass) {
    const auto before = server.stats().snapshots_published;
    server.predict_all(s->world.queries);
    server.drain();
    if (server.stats().snapshots_published == before) break;
  }
  return s;
}

void report_lost(const WireLoad& load, const fleet::Frontend& frontend) {
  if (load.lost().empty()) return;
  const auto fc = frontend.counters();
  std::cerr << "connections lost: " << load.lost().size() << " (first: "
            << load.lost().front() << "); frontend reaped "
            << fc.reaped_connections << ", protocol errors "
            << fc.protocol_errors << ", closed " << fc.connections_closed
            << "\n";
}

}  // namespace

Result run_wire_small(const RunConfig& cfg) {
  Result r;
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < (cfg.trace ? 1 : 3); ++i) {
    stack.reset();
    double s = 0.0;
    stack = set_up(cfg.seed, s);
    setups.push_back(s);
  }
  const double setup_rss_mb = peak_rss_mb();
  WireLoad& load = *stack->load;
  auto& server = stack->fleet->shard(0).server();
  const double S = cfg.seconds;
  r.hugepage_backed = stack->world.model.arena().hugepage_backed();

  if (cfg.trace) {
    const Window untraced = load.run(kPlan.hi_qps, 0.3 * S, cfg.seed + 11);
    SpanLog spans;
    server.drain();
    const auto before = server.stats();
    const auto fc0 = stack->frontend->counters();
    const Window traced = load.run(kPlan.hi_qps, 0.3 * S, cfg.seed + 11, &spans);
    server.drain();
    const auto after = server.stats();
    const auto fc1 = stack->frontend->counters();
    count_window(r, untraced);
    count_window(r, traced);
    ProbeInputs in;
    in.model = &stack->world.model;
    in.queries = stack->world.queries;
    in.encoder = stack->world.encoder.get();
    in.features = stack->world.features;
    probe_layers(in, r.per_layer);
    add_server_metrics(before, after, r.per_layer);
    r.per_layer.set("recovery.useful_substitution_ratio", 0.0, "ratio");
    add_window_metrics(traced, r.per_layer);
    // The workload's own frontend under load replaces the probe's.
    r.per_layer.set("frontend.frames_in",
                    static_cast<double>(fc1.frames_in - fc0.frames_in),
                    "count");
    r.per_layer.set("frontend.frames_out",
                    static_cast<double>(fc1.frames_out - fc0.frames_out),
                    "count");
    r.per_layer.set("frontend.busy_rejections",
                    static_cast<double>(fc1.busy_rejections -
                                        fc0.busy_rejections),
                    "count");
    r.per_layer.set("frontend.protocol_errors",
                    static_cast<double>(fc1.protocol_errors -
                                        fc0.protocol_errors),
                    "count");
    spans.summarize(r.per_layer);
    add_trace_overhead(untraced, traced, r.per_layer);
    return r;
  }

  const OpenLoop run = run_open_loop(
      [&](double rate, double seconds, std::uint64_t seed) {
        return load.run(rate, seconds, seed);
      },
      [&](double, double seconds, std::uint64_t seed) {
        return load.run(0, seconds, seed, nullptr, kSaturationDepth);
      },
      kPlan, S, cfg.seed);
  report_open_loop(run, kPlan, setups, setup_rss_mb, r);
  std::cerr << "answers on an uncapturable snapshot "
            << stack->refs->unverified << "\n";
  report_lost(load, *stack->frontend);
  return r;
}

}  // namespace perfbench
