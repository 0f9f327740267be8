// Shared workload pieces and the layer probes of a traced run.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "robusthd/data/dataset.hpp"
#include "robusthd/data/synthetic.hpp"
#include "robusthd/fleet/client.hpp"
#include "robusthd/fleet/fleet.hpp"
#include "robusthd/fleet/frontend.hpp"
#include "robusthd/fleet/netchaos.hpp"
#include "robusthd/fleet/wire.hpp"
#include "robusthd/kernels/kernels.hpp"
#include "robusthd/model/confidence.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fleet = robusthd::fleet;
namespace hv = robusthd::hv;
namespace model = robusthd::model;
namespace serve = robusthd::serve;
namespace wire = robusthd::fleet::wire;

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<Reference> reference_answers(const model::HdcModel& m,
                                         std::span<const hv::BinVec> q) {
  // Server workers run scores_batch + model::assess with the recovery
  // config's confidence settings (defaults here) over the full dimension.
  const model::ConfidenceConfig confidence{};
  std::vector<Reference> refs(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    refs[i].label = m.predict(q[i]);
    const auto sims = m.scores(q[i]);
    refs[i].confidence_bits = double_bits(
        model::assess(sims, confidence, m.dimension()).top_probability);
  }
  return refs;
}

VersionedReference::VersionedReference(const serve::Server& server,
                                       std::span<const hv::BinVec> queries)
    : server_(server), queries_(queries) {}

VersionedReference::Snapshot* VersionedReference::lookup(
    std::uint64_t version) {
  for (auto& [v, snap] : snapshots_) {
    if (v == version) return &snap;
  }
  return nullptr;
}

void VersionedReference::poll() {
  auto model = server_.current_model();
  if (model.get() == last_seen_) return;
  // The snapshot pointer and its version are published under one mutex,
  // so equal version reads around current_model() pin what it returned.
  const std::uint64_t v1 = server_.stats().model_version;
  model = server_.current_model();
  const std::uint64_t v2 = server_.stats().model_version;
  if (v1 != v2) return;  // published meanwhile; the next poll sees it
  last_seen_ = model.get();
  if (lookup(v1) != nullptr) return;
  Snapshot snap;
  snap.model = std::move(model);
  snap.refs.resize(queries_.size());
  snap.ready.assign(queries_.size(), 0);
  snapshots_.emplace_back(v1, std::move(snap));
}

const Reference* VersionedReference::find(std::uint64_t version,
                                          std::size_t index) {
  Snapshot* snap = lookup(version);
  if (snap == nullptr) {
    poll();
    snap = lookup(version);
  }
  if (snap == nullptr) {
    ++unverified;
    return nullptr;
  }
  if (!snap->ready[index]) {
    snap->refs[index] = reference_answers(*snap->model,
                                          queries_.subspan(index, 1))[0];
    snap->ready[index] = 1;
  }
  return &snap->refs[index];
}

PamapWorld make_pamap_world() {
  // One fixed data set and model: the run's seed varies the traffic
  // (query choice, arrival times, fault bursts), not the data's difficulty,
  // which would otherwise move accuracy and trust rates between seeds.
  constexpr std::uint64_t seed = 0x5eed;
  constexpr std::size_t kTrain = 2000;
  constexpr std::size_t kPool = 2048;
  constexpr std::size_t kCanaries = 64;
  const auto spec = robusthd::data::scaled(
      robusthd::data::dataset_by_name("PAMAP"), kTrain, kPool + kCanaries);
  const auto split = robusthd::data::make_synthetic(spec, seed);

  PamapWorld w;
  hv::EncoderConfig encoder_config;
  encoder_config.dimension = 4000;
  encoder_config.seed = seed ^ 0x1d1e5;
  auto encoder = std::make_shared<hv::RecordEncoder>(
      split.train.feature_count(), encoder_config);
  const auto train = encoder->encode_all(split.train);
  model::HdcConfig train_config;
  train_config.seed = seed;
  w.model = model::HdcModel::train(train, split.train.labels,
                                   split.train.num_classes, train_config);
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    const auto row = split.test.sample(i);
    if (i < kCanaries) {
      w.canaries.push_back(encoder->encode(row));
      w.canary_labels.push_back(split.test.labels[i]);
    } else {
      w.features.emplace_back(row.begin(), row.end());
      w.queries.push_back(encoder->encode(row));
      w.labels.push_back(split.test.labels[i]);
    }
  }
  w.encoder = std::move(encoder);
  return w;
}

void add_server_metrics(const serve::ServerStats& before,
                        const serve::ServerStats& after, Metrics& out) {
  auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b >= a ? b - a : 0);
  };
  // Exact window means from the histograms' sum/count (mean * count is
  // the exact sum); their log2 percentiles are never used.
  auto mean_us = [](const serve::LatencyHistogram::Summary& a,
                    const serve::LatencyHistogram::Summary& b) {
    const double n = static_cast<double>(b.count) -
                     static_cast<double>(a.count);
    if (n <= 0) return 0.0;
    return (b.mean_ns * static_cast<double>(b.count) -
            a.mean_ns * static_cast<double>(a.count)) / n * 1e-3;
  };
  const double batches = d(before.batches, after.batches);
  const double items =
      after.mean_batch * static_cast<double>(after.batches) -
      before.mean_batch * static_cast<double>(before.batches);
  out.set("serve.queue_wait_mean_us", mean_us(before.queue_wait,
                                              after.queue_wait), "us");
  out.set("serve.service_mean_us", mean_us(before.service, after.service),
          "us");
  out.set("serve.e2e_mean_us", mean_us(before.end_to_end, after.end_to_end),
          "us");
  out.set("serve.mean_batch", batches > 0 ? items / batches : 0.0, "queries");
  out.set("serve.batches", batches, "count");
  out.set("serve.rejected", d(before.rejected, after.rejected), "count");
  out.set("serve.deadline_sheds",
          d(before.deadline_sheds, after.deadline_sheds), "count");
  out.set("serve.degraded",
          d(before.degraded_responses, after.degraded_responses), "count");
  out.set("serve.abstained",
          d(before.abstained_responses, after.abstained_responses), "count");
  out.set("serve.breaker_trips", d(before.breaker_trips, after.breaker_trips),
          "count");

  const double trusted = d(before.trusted, after.trusted);
  const double processed = d(before.scrub_processed, after.scrub_processed);
  out.set("recovery.trusted", trusted, "count");
  out.set("recovery.processed", processed, "count");
  out.set("recovery.trust_drops", d(before.trust_drops, after.trust_drops),
          "count");
  out.set("recovery.processed_ratio",
          trusted > 0 ? processed / trusted : 0.0, "ratio");
  out.set("recovery.substituted_bits",
          d(before.scrub_substituted_bits, after.scrub_substituted_bits),
          "bits");
  out.set("recovery.snapshots_published",
          d(before.snapshots_published, after.snapshots_published), "count");

  out.set("sentinel.canary_runs", d(before.canary_runs, after.canary_runs),
          "count");
  out.set("sentinel.quarantined_chunks",
          static_cast<double>(after.quarantined_chunks), "count");

  out.set("persist.epochs_closed", d(before.epochs_closed, after.epochs_closed),
          "count");
  out.set("persist.wal_bytes", d(before.wal_bytes, after.wal_bytes), "B");
  out.set("persist.io_errors",
          d(before.persist_io_errors, after.persist_io_errors), "count");
}

void add_window_metrics(const Window& w, Metrics& out) {
  const double kq = static_cast<double>(std::max<std::uint64_t>(
                        w.answered, 1)) / 1000.0;
  out.set("proc.ctx_switches_per_kq", w.proc.ctx_switches / kq, "count");
  out.set("proc.migrations_per_kq", w.proc.migrations / kq, "count");
  out.set("proc.page_faults_per_kq", w.proc.page_faults / kq, "count");
  out.set("gen.late_p99_us", w.late_p99_us, "us");
  out.set("gen.backlog_growth", w.backlog_growth, "ratio");
}

void add_trace_overhead(const Window& untraced, const Window& traced,
                        Metrics& out) {
  auto per_query = [](const Window& w) {
    return w.answered == 0
               ? 0.0
               : w.proc.cpu_s * 1e6 / static_cast<double>(w.answered);
  };
  const double base = per_query(untraced);
  const double with = per_query(traced);
  out.set("trace.untraced_cpu_us_per_query", base, "us");
  out.set("trace.cpu_overhead_ratio", base > 0 ? with / base - 1.0 : 0.0,
          "ratio");
  const double p50 = untraced.latency.percentile(50);
  out.set("trace.p50_overhead_ratio",
          p50 > 0 ? traced.latency.percentile(50) / p50 - 1.0 : 0.0, "ratio");
}

// ---------------------------------------------------------------------------
// Layer probes.

namespace {

/// Runs `op` until `min_seconds` have passed and at least `min_ops` calls
/// were made; returns nanoseconds per call.
template <class Op>
double ns_per_call(Op&& op, double min_seconds, std::size_t min_ops) {
  const std::int64_t start = now_ns();
  const auto min_ns = static_cast<std::int64_t>(min_seconds * 1e9);
  std::size_t calls = 0;
  std::int64_t elapsed = 0;
  do {
    op(calls);
    ++calls;
    elapsed = now_ns() - start;
  } while (calls < min_ops || elapsed < min_ns);
  return static_cast<double>(elapsed) / static_cast<double>(calls);
}

/// Median of `n` timed calls, in microseconds.
template <class Op>
double median_us(Op&& op, std::size_t n) {
  std::vector<double> us;
  us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    op(i);
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(std::move(us));
}

/// A blocking loopback connection speaking the wire protocol.
class RawConnection {
 public:
  explicit RawConnection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("perfbench: loopback connect failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~RawConnection() { ::close(fd_); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  /// Sends one predict request and blocks for its response frame.
  std::optional<wire::PredictResult> predict(std::uint64_t id,
                                             const hv::BinVec& query) {
    out_.clear();
    wire::append_predict_request(out_, 1, id, query);
    std::size_t sent = 0;
    while (sent < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + sent, out_.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return std::nullopt;
      sent += static_cast<std::size_t>(n);
    }
    std::byte buf[4096];
    for (;;) {
      if (auto frame = reader_.next()) return wire::parse_predict_response(*frame);
      if (reader_.poisoned()) return std::nullopt;
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      reader_.feed({buf, static_cast<std::size_t>(n)});
    }
  }

 private:
  int fd_ = -1;
  std::vector<std::byte> out_;
  wire::FrameReader reader_;
};

}  // namespace

void probe_layers(const ProbeInputs& in, Metrics& out) {
  pin_this_thread({});  // the probes' threads may use every CPU
  const model::HdcModel& m = *in.model;
  const auto queries = in.queries;
  const std::size_t pool = queries.size();

  // kernels + mem: the arena kernel over the model's own planes.
  const auto& arena = m.arena();
  const auto view = arena.view();
  const std::size_t block = std::min<std::size_t>(pool, 256);
  std::vector<const std::uint64_t*> qptrs(block);
  for (std::size_t i = 0; i < block; ++i) qptrs[i] = queries[i].words().data();
  std::vector<std::uint32_t> dist(block * view.planes);
  const double block_ns = ns_per_call(
      [&](std::size_t) {
        robusthd::kernels::hamming_matrix_arena(qptrs.data(), block, view,
                                                dist.data());
      },
      0.2, 3);
  const double kernel_ns = block_ns / static_cast<double>(block);
  const double bits_per_query =
      static_cast<double>(view.planes * view.words) * 64.0;
  out.set("kernels.arena_ns_per_query", kernel_ns, "ns");
  out.set("kernels.gbit_s", bits_per_query / kernel_ns, "Gbit/s");
  // Computed from sizes, not measured: every plane word plus the query,
  // as if nothing were reused from cache across the queries of a block.
  out.set("kernels.bytes_per_query",
          static_cast<double>((view.planes + 1) * view.words * 8), "B");
  out.set("mem.arena_bytes", static_cast<double>(arena.bytes()), "B");
  out.set("mem.hugepage_backed", arena.hugepage_backed() ? 1.0 : 0.0, "bool");
  out.set("mem.tile_words", static_cast<double>(arena.tile_words()), "words");

  // model: serial predict and single-threaded predict_batch.
  volatile int sink = 0;
  const double predict_ns = ns_per_call(
      [&](std::size_t i) { sink = m.predict(queries[i % pool]); }, 0.2, 64);
  out.set("model.predict_ns", predict_ns, "ns");
  const double batch_ns = ns_per_call(
      [&](std::size_t) { sink = m.predict_batch(queries, 1).front(); }, 0.2,
      2);
  out.set("model.predict_batch_ns_per_query",
          batch_ns / static_cast<double>(pool), "ns");

  // hv: encode_into through one reusable workspace.
  {
    hv::EncodeWorkspace ws;
    hv::BinVec encoded(in.encoder->dimension());
    const double encode_ns = ns_per_call(
        [&](std::size_t i) {
          in.encoder->encode_into(in.features[i % in.features.size()],
                                  encoded, ws);
        },
        0.1, 8);
    out.set("hv.encode_ns", encode_ns, "ns");
  }

  // serve: the in-process server alone (4 workers, recovery off) against
  // the serial floor above.
  {
    serve::ServerConfig config;
    config.worker_threads = 4;
    config.enable_recovery = false;
    serve::Server server(m, config);
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(pool);
    std::vector<double> submit_us;
    submit_us.reserve(pool);
    for (std::size_t i = 0; i < pool; ++i) {
      const std::int64_t t0 = now_ns();
      futures.push_back(server.submit(queries[i]));
      submit_us.push_back(static_cast<double>(now_ns() - t0));
    }
    for (auto& f : futures) f.get();
    out.set("serve.submit_ns", median(std::move(submit_us)), "ns");
    const double all_ns = ns_per_call(
        [&](std::size_t) { server.predict_all(queries); }, 0.3, 2);
    const double inproc_qps = static_cast<double>(pool) * 1e9 / all_ns;
    out.set("serve.inproc_qps", inproc_qps, "1/s");
    out.set("serve.overhead_ratio", (1e9 / predict_ns) / inproc_qps, "ratio");
  }

  // wire: request encode and decode, per frame.
  {
    std::vector<std::byte> frame;
    const double encode_ns = ns_per_call(
        [&](std::size_t i) {
          frame.clear();
          wire::append_predict_request(frame, 1, i, queries[i % pool]);
        },
        0.05, 64);
    frame.clear();
    wire::append_predict_request(frame, 1, 1, queries[0]);
    wire::FrameReader reader;
    hv::BinVec decoded;
    const double decode_ns = ns_per_call(
        [&](std::size_t) {
          reader.feed(frame);
          const auto f = reader.next();
          if (!f || !wire::parse_predict_request(f->payload, decoded)) {
            throw std::runtime_error("perfbench: wire round trip failed");
          }
        },
        0.05, 64);
    out.set("wire.encode_ns", encode_ns, "ns");
    out.set("wire.decode_ns", decode_ns, "ns");
  }

  // frontend, client, netchaos: one shard behind a loopback Frontend,
  // one request outstanding at a time.
  {
    fleet::FleetConfig config;
    fleet::ShardConfig shard;
    shard.server.worker_threads = 2;
    shard.server.enable_recovery = false;
    config.shards.push_back(shard);
    std::vector<model::HdcModel> models{m};
    fleet::Fleet fl(std::move(models), std::move(config));
    fleet::Frontend frontend(fl);
    frontend.start();
    const std::uint16_t port = frontend.ports().at(0);
    constexpr std::size_t kRounds = 300;

    double rtt = 0.0;
    {
      RawConnection conn(port);
      for (std::size_t i = 0; i < 20; ++i) conn.predict(i + 1, queries[i % pool]);
      rtt = median_us(
          [&](std::size_t i) {
            if (!conn.predict(1000 + i, queries[i % pool])) {
              throw std::runtime_error("perfbench: frontend probe failed");
            }
          },
          kRounds);
    }
    auto& server = fl.shard(0).server();
    const double inproc = median_us(
        [&](std::size_t i) { server.submit(queries[i % pool]).get(); },
        kRounds);
    out.set("frontend.rtt_us_1", rtt, "us");
    out.set("frontend.self_us", rtt - inproc, "us");

    const std::vector<fleet::Endpoint> direct{{"127.0.0.1", port}};
    double client_rtt = 0.0;
    {
      fleet::Client client(direct, {"default"});
      client.predict(1, queries[0]);
      client_rtt = median_us(
          [&](std::size_t i) { client.predict(1, queries[i % pool]); },
          kRounds);
      out.set("client.rtt_us_1", client_rtt, "us");
      out.set("client.retries", static_cast<double>(client.counters().retries),
              "count");
      out.set("client.hedges",
              static_cast<double>(client.counters().hedged_requests), "count");
    }
    {
      fleet::NetChaos proxy(direct);
      proxy.start();
      fleet::Client client(proxy.endpoints(), {"default"});
      client.predict(1, queries[0]);
      const double via_proxy = median_us(
          [&](std::size_t i) { client.predict(1, queries[i % pool]); },
          kRounds);
      out.set("netchaos.hop_us", via_proxy - client_rtt, "us");
      proxy.stop();
    }
    const auto fc = frontend.counters();
    out.set("frontend.frames_in", static_cast<double>(fc.frames_in), "count");
    out.set("frontend.frames_out", static_cast<double>(fc.frames_out),
            "count");
    out.set("frontend.busy_rejections",
            static_cast<double>(fc.busy_rejections), "count");
    out.set("frontend.protocol_errors",
            static_cast<double>(fc.protocol_errors), "count");
    frontend.stop();
    fl.shutdown();
  }
  (void)sink;
}

}  // namespace perfbench
