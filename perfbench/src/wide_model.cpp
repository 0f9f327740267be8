// wide_model: an in-process Server (4 workers) over 128 classes at
// D=262144 — 4 MiB of planes, twice a 2 MiB L2 — scored against
// pre-encoded noisy-prototype queries. Closed loop from one caller:
// `lo` issues one query per Server::predict_all call, `hi` issues
// 256-query blocks back to back. Scoring dominates request handling.

#include <iostream>
#include <stdexcept>

#include "robusthd/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace hv = robusthd::hv;
namespace model = robusthd::model;
namespace serve = robusthd::serve;

constexpr std::size_t kClasses = 128;
constexpr std::size_t kDim = 262144;
constexpr std::size_t kPool = 512;
constexpr std::size_t kBlock = 256;

struct Stack {
  model::HdcModel model;
  std::vector<hv::BinVec> queries;
  std::vector<int> labels;
  std::vector<Reference> refs;
  std::unique_ptr<serve::Server> server;
};

/// Flips each bit with probability ~0.495 (a random word ANDed with the
/// complement of a sparse mask), leaving each query about 3.5 noise
/// floors closer to its prototype than to any other class.
hv::BinVec noisy(const hv::BinVec& proto, robusthd::util::Xoshiro256& rng) {
  hv::BinVec q = proto;
  auto words = q.mutable_words();
  for (auto& w : words) {
    std::uint64_t sparse = rng.next();
    for (int i = 0; i < 6; ++i) sparse &= rng.next();  // p = 2^-7
    std::uint64_t sparse2 = rng.next();
    for (int i = 0; i < 8; ++i) sparse2 &= rng.next();  // p = 2^-9
    w ^= rng.next() & ~(sparse | sparse2);
  }
  q.mask_tail();
  return q;
}

std::unique_ptr<Stack> set_up(std::uint64_t seed, double& seconds) {
  const std::int64_t start = now_ns();
  auto s = std::make_unique<Stack>();
  robusthd::util::Xoshiro256 rng(seed);
  std::vector<model::ClassVector> classes(kClasses);
  std::vector<hv::BinVec> protos;
  for (auto& c : classes) {
    protos.push_back(hv::BinVec::random(kDim, rng));
    c.planes.push_back(protos.back());
  }
  s->model = model::HdcModel::from_planes(std::move(classes), 1);
  for (std::size_t i = 0; i < kPool; ++i) {
    const auto cls = static_cast<int>(rng.next() % kClasses);
    s->queries.push_back(noisy(protos[static_cast<std::size_t>(cls)], rng));
    s->labels.push_back(cls);
  }
  s->refs = reference_answers(s->model, s->queries);
  serve::ServerConfig config;
  config.worker_threads = 4;
  config.enable_recovery = false;
  config.cpu_affinity = {0, 1, 2, 3};  // one worker per CPU, no migrations
  s->server = std::make_unique<serve::Server>(s->model, config);
  const auto first = s->server->predict_all({s->queries.data(), 1});
  seconds = static_cast<double>(now_ns() - start) * 1e-9;
  if (first.size() != 1 || first[0].predicted != s->refs[0].label) {
    throw std::runtime_error("wide_model: first request failed");
  }
  return s;
}

/// Closed loop: `block`-query predict_all calls for `seconds`.
Window closed_loop(Stack& s, std::size_t block, double seconds,
                   std::uint64_t seed, SpanLog* spans = nullptr) {
  const RequestSpans k = spans ? request_spans(*spans) : RequestSpans{};
  robusthd::util::Xoshiro256 pick(seed);
  Window w;
  w.seconds = seconds;
  const ProcSample p0 = proc_counters().read();
  const std::int64_t start = now_ns();
  const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t id = 0;
  while (now_ns() < end) {
    const std::size_t first =
        static_cast<std::size_t>(pick.next() % (kPool - block + 1));
    const std::span<const hv::BinVec> batch(s.queries.data() + first, block);
    const std::int64_t t0 = now_ns();
    const auto responses = s.server->predict_all(batch);
    const std::int64_t t1 = now_ns();
    bool ok = responses.size() == block;
    for (std::size_t i = 0; ok && i < block; ++i) {
      const auto& res = responses[i];
      const Reference& ref = s.refs[first + i];
      if (res.abstained || res.expired) {
        ok = false;
      } else if (res.predicted != ref.label ||
                 double_bits(res.confidence) != ref.confidence_bits) {
        ++w.mismatches;
        ok = false;
      } else if (res.predicted == s.labels[first + i]) {
        ++w.correct_labels;
      }
    }
    if (spans) {
      spans->record(id, k.check, t1, now_ns());
      spans->record(id, k.request, t0, now_ns());
    }
    ++id;
    w.attempted += block;
    w.answered += block;
    if (ok) {
      w.latency.add_ms(static_cast<double>(t1 - t0) * 1e-6);
    } else {
      w.failed += block;
      w.latency.add_failure();
    }
  }
  const ProcSample p1 = proc_counters().read();
  w.proc = {p1.cpu_s - p0.cpu_s, p1.ctx_switches - p0.ctx_switches,
            p1.migrations - p0.migrations, p1.page_faults - p0.page_faults};
  return w;
}

}  // namespace

Result run_wide_model(const RunConfig& cfg) {
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
  const double S = cfg.seconds;
  r.hugepage_backed = stack->model.arena().hugepage_backed();

  if (cfg.trace) {
    const Window untraced = closed_loop(*stack, kBlock, 0.3 * S, cfg.seed + 2);
    SpanLog spans;
    stack->server->drain();
    const auto before = stack->server->stats();
    const Window traced =
        closed_loop(*stack, kBlock, 0.3 * S, cfg.seed + 2, &spans);
    stack->server->drain();
    const auto after = stack->server->stats();
    count_window(r, untraced);
    count_window(r, traced);
    // hv.encode_ns needs an encoder: a throwaway PAMAP-width record
    // encoder at this workload's dimension, on random features.
    hv::EncoderConfig ec;
    ec.dimension = kDim;
    const hv::RecordEncoder encoder(75, ec);
    robusthd::util::Xoshiro256 rng(cfg.seed);
    std::vector<std::vector<float>> features(8, std::vector<float>(75));
    for (auto& f : features) {
      for (auto& v : f) v = static_cast<float>(rng.uniform());
    }
    ProbeInputs in;
    in.model = &stack->model;
    in.queries = stack->queries;
    in.encoder = &encoder;
    in.features = features;
    probe_layers(in, r.per_layer);
    add_server_metrics(before, after, r.per_layer);
    r.per_layer.set("recovery.useful_substitution_ratio", 0.0, "ratio");
    add_window_metrics(traced, r.per_layer);
    spans.summarize(r.per_layer);
    add_trace_overhead(untraced, traced, r.per_layer);
    return r;
  }

  auto loop = [&](std::size_t block) -> WindowFn {
    return [&, block](double, double seconds, std::uint64_t seed) {
      return closed_loop(*stack, block, seconds, seed);
    };
  };
  constexpr int kRounds = 7;
  const auto points = measure_interleaved(
      {{loop(1), 0, 0.3 * S, cfg.seed + 1},
       {loop(kBlock), 0, 0.7 * S, cfg.seed + 2}},
      kRounds);
  const RatePoint& lo = points[0];
  const RatePoint& hi = points[1];
  count_window(r, lo.pooled);
  count_window(r, hi.pooled);
  std::cerr << describe(lo, "lo 1-query calls") << "\n"
            << describe(hi, "hi 256-query blocks") << "\n"
            << "qps (closed loop, 256-query blocks, median of " << kRounds
            << " windows): " << hi.qps << "; fail_ratio "
            << static_cast<double>(r.failed) /
                   static_cast<double>(std::max<std::uint64_t>(r.attempted, 1))
            << ", reference mismatches "
            << lo.pooled.mismatches + hi.pooled.mismatches << "\n";

  r.end_to_end.set("setup_s", median(setups), "s");
  r.end_to_end.set("qps", hi.qps, "1/s");
  r.end_to_end.set("p50_ms.lo", lo.p50_ms, "ms");
  r.end_to_end.set("p50_ms.hi", hi.p50_ms, "ms");
  r.end_to_end.set("cpu_us_per_query",
                   hi.pooled.proc.cpu_s * 1e6 /
                       static_cast<double>(hi.pooled.answered),
                   "us");
  r.end_to_end.set("accuracy",
                   static_cast<double>(lo.pooled.correct_labels +
                                       hi.pooled.correct_labels) /
                       static_cast<double>(lo.pooled.attempted +
                                           hi.pooled.attempted),
                   "ratio");
  r.end_to_end.set("peak_rss_mb", setup_rss_mb, "MB");
  return r;
}

}  // namespace perfbench
