// features_repair: an in-process Server fed raw PAMAP features through
// submit_features (encoding runs on the workers), with the sentinel on
// held-out canaries, the epoch WAL in a work directory, and seeded
// clustered fault bursts at fixed query counts. Open loop, Poisson
// arrivals; one load thread sends and observes completions.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <thread>

#include "robusthd/hv/binvec.hpp"
#include "robusthd/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace hv = robusthd::hv;
namespace model = robusthd::model;
namespace serve = robusthd::serve;

// Fixed operating points in absolute q/s, well below the saturation
// throughput on a 4-vCPU AVX-512 VM (28k in slow minutes on a shared
// host, where a hi of 18k saturated and its median latency jumped
// tenfold; 75k-90k in quiet ones). Never re-derived per run. hi is low
// because median latency here tracks contention more the busier the
// workers are: beside a neighbour that takes each CPU for about a
// millisecond every few, p50 rose 95% at 10k, 52% at 6k and 30% at 3k.
// The validity bound is a tenth of a 5 ms latency limit.
constexpr OpenLoopPlan kPlan{"features_repair", 3000, 6000, 500};
constexpr double kBurstRate = 0.05;     // clustered bit-flip rate per burst
constexpr std::uint64_t kBurstEvery = 10000;  // queries between bursts

/// Bits where `m`'s planes differ from the clean model's.
std::uint64_t wrong_bits(const model::HdcModel& m,
                         const model::HdcModel& clean) {
  std::uint64_t n = 0;
  for (std::size_t c = 0; c < clean.num_classes(); ++c) {
    const auto& a = m.class_vector(c).planes;
    const auto& b = clean.class_vector(c).planes;
    for (std::size_t p = 0; p < b.size(); ++p) n += hv::hamming(a[p], b[p]);
  }
  return n;
}

struct Stack {
  PamapWorld world;
  std::vector<std::uint8_t> clean_correct;  ///< clean serial answer right?
  std::string dir;
  std::unique_ptr<serve::Server> server;

  // Fault bursts: requested by the generator at fixed query counts,
  // executed on a helper thread so the generator never blocks on them.
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> bursts_requested{0};
  std::uint64_t bursts_done = 0;
  std::uint64_t wrong_after_last_burst = 0;
  std::uint64_t bits_moved_toward_clean = 0;  ///< net, summed per interval
  std::uint64_t seed = 0;

  ~Stack() {
    if (server) server->shutdown();
    server.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }

  /// Runs every requested burst: hot-reloads the clean model, then
  /// injects clustered faults into it, so each burst is an independent
  /// damage-and-repair episode rather than damage piled on unrepaired
  /// damage. Records the wrong-bit count right after each burst and the
  /// net repair since the previous one.
  void run_bursts() {
    while (bursts_done < bursts_requested.load(std::memory_order_acquire)) {
      const std::uint64_t wrong_before =
          wrong_bits(*server->current_model(), world.model);
      if (bursts_done > 0 && wrong_after_last_burst > wrong_before) {
        bits_moved_toward_clean += wrong_after_last_burst - wrong_before;
      }
      server->reload(world.model);
      const auto injected = server->stats().faults_injected;
      server->inject_faults(kBurstRate, robusthd::fault::AttackMode::kClustered,
                            seed * 1000003 + bursts_done);
      // The damaged snapshot is published on the recovery thread.
      for (int i = 0; i < 2000 && server->stats().faults_injected == injected;
           ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      wrong_after_last_burst =
          wrong_bits(*server->current_model(), world.model);
      ++bursts_done;
    }
  }

  /// Net bits moved toward the clean planes since the last burst.
  std::uint64_t settle() {
    const std::uint64_t now = wrong_bits(*server->current_model(), world.model);
    std::uint64_t moved = bits_moved_toward_clean;
    if (bursts_done > 0 && wrong_after_last_burst > now) {
      moved += wrong_after_last_burst - now;
    }
    return moved;
  }
};

std::unique_ptr<Stack> set_up(const RunConfig& cfg, int index,
                              double& seconds) {
  const std::int64_t start = now_ns();
  auto s = std::make_unique<Stack>();
  s->seed = cfg.seed;
  s->world = make_pamap_world();
  s->clean_correct.resize(s->world.queries.size());
  for (std::size_t i = 0; i < s->world.queries.size(); ++i) {
    s->clean_correct[i] =
        s->world.model.predict(s->world.queries[i]) == s->world.labels[i];
  }
  s->dir = cfg.work_dir + "/features_repair-" + std::to_string(::getpid()) +
           "-" + std::to_string(index);
  std::filesystem::create_directories(s->dir);
  // Fixed placement on 4 CPUs: three workers (one per CPU) with the
  // scrubber, sentinel and epoch-log threads on CPUs 0-2, the load thread
  // on 3. With a fourth worker the generator competed for CPU and ran up
  // to 3 ms late at p90, which moved every latency.
  serve::ServerConfig config;
  config.worker_threads = 3;
  config.cpu_affinity = {0, 1, 2};
  config.queue_capacity = 1u << 16;  // open loop: never block the generator
  config.encoder = s->world.encoder;
  config.sentinel.enabled = true;
  config.canaries = s->world.canaries;
  config.canary_labels = s->world.canary_labels;
  config.persist.dir = s->dir;
  pin_this_thread({0, 1, 2});
  s->server = std::make_unique<serve::Server>(s->world.model, config);
  pin_this_thread({3});
  const auto first = s->server->submit_features(s->world.features[0]).get();
  seconds = static_cast<double>(now_ns() - start) * 1e-9;
  if (first.predicted < 0) {
    throw std::runtime_error("features_repair: first request failed");
  }
  return s;
}

/// One window, driven by this thread alone: it submits on the Poisson
/// schedule at `rate` (or, when `depth` > 0, whenever fewer than `depth`
/// requests are outstanding) and, until the next send is due, waits on
/// the oldest outstanding future, taking in every answer that has
/// arrived each time it wakes. One thread means no hand-off between a
/// sender and a collector on the benchmark's CPU.
Window run_window(Stack& s, double rate, double seconds, std::uint64_t seed,
                  std::uint64_t* clean_correct_out, SpanLog* spans = nullptr,
                  std::size_t depth = 0) {
  const RequestSpans k = spans ? request_spans(*spans) : RequestSpans{};

  // Closed loop: room for 200k q/s, each due time set when it is sent.
  auto due = depth > 0 ? std::vector<std::int64_t>(
                             static_cast<std::size_t>(seconds * 2e5) + 1)
                       : poisson_schedule(rate, seconds, seed);
  const std::size_t n = due.size();
  const std::size_t pool = s.world.features.size();
  const auto classes = static_cast<int>(s.world.model.num_classes());
  std::vector<std::uint32_t> qidx(n);
  robusthd::util::Xoshiro256 pick(seed ^ 0x9e3779b97f4a7c15ULL);
  for (auto& q : qidx) q = static_cast<std::uint32_t>(pick.next() % pool);
  std::vector<std::future<serve::Response>> futures(n);

  Window w;
  w.offered_qps = rate;
  w.seconds = seconds;
  w.attempted = n;
  w.latency.reserve(n);
  // Span timestamps per request, turned into spans after the window.
  std::vector<std::int64_t> t_send, t_sent, t_done, t_checked;
  if (spans) {
    for (auto* v : {&t_send, &t_sent, &t_done, &t_checked}) v->resize(n);
  }
  std::uint64_t clean_correct = 0;

  const ProcSample p0 = proc_counters().read();
  const std::int64_t t0 = now_ns() + 200000;

  // Requests sent and not yet answered, oldest first.
  std::vector<std::size_t> pending;
  pending.reserve(std::max(depth, max_outstanding(rate)) + 1);
  // Records every outstanding request that has been answered.
  const auto poll = [&] {
    std::size_t kept = 0;
    for (const std::size_t i : pending) {
      if (futures[i].wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        pending[kept++] = i;
        continue;
      }
      const std::int64_t at = now_ns();
      bool ok = false;
      int predicted = -1;
      try {
        const serve::Response res = futures[i].get();
        predicted = res.predicted;
        ok = !res.abstained && !res.expired && predicted >= 0 &&
             predicted < classes;
      } catch (const std::exception&) {
        ok = false;
      }
      const std::int64_t due_at = t0 + due[i];
      ++w.answered;
      clean_correct += s.clean_correct[qidx[i]];
      if (ok) {
        w.latency.add_ms(static_cast<double>(at - due_at) * 1e-6);
        if (predicted == s.world.labels[qidx[i]]) ++w.correct_labels;
      } else {
        ++w.failed;
        w.latency.add_failure();
      }
      if (spans) {
        t_done[i] = at;
        t_checked[i] = now_ns();
      }
    }
    pending.resize(kept);
  };
  // Waits until the oldest outstanding request is answered or `until_ns`
  // passes, then records what has been answered.
  constexpr auto kForever = std::numeric_limits<std::int64_t>::max();
  const auto wait_until = [&](std::int64_t until_ns) {
    if (pending.empty()) {
      sleep_until_ns(until_ns);
      return;
    }
    auto& oldest = futures[pending.front()];
    if (until_ns == kForever) {
      oldest.wait();
    } else {
      oldest.wait_until(Clock::time_point(std::chrono::nanoseconds(until_ns)));
    }
    poll();
  };

  std::thread bursts;
  std::vector<double> late_us;
  late_us.reserve(n);
  const std::int64_t quarter = t0 + static_cast<std::int64_t>(seconds * 0.25e9);
  const std::int64_t end_at = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t out_quarter = -1;
  const std::size_t cap = max_outstanding(rate);
  std::size_t sent = 0;
  for (; sent < n; ++sent) {
    const std::size_t i = sent;
    if (depth > 0) {
      while (pending.size() >= depth) wait_until(kForever);
      const std::int64_t t = now_ns();
      if (t >= end_at) break;
      due[i] = std::max<std::int64_t>(0, t - t0);
    } else if (pending.size() > cap) {
      break;
    }
    const std::int64_t due_at = t0 + due[i];
    std::int64_t now = now_ns();
    while (now < due_at) {
      wait_until(due_at);
      now = now_ns();
    }
    late_us.push_back(static_cast<double>(now - due_at) * 1e-3);
    if (out_quarter < 0 && now >= quarter) {
      out_quarter = static_cast<std::int64_t>(pending.size());
    }
    const std::uint64_t count =
        s.submitted.fetch_add(1, std::memory_order_relaxed) + 1;
    if (count % kBurstEvery == 0) {
      s.bursts_requested.fetch_add(1, std::memory_order_release);
      if (bursts.joinable()) bursts.join();
      bursts = std::thread([&s] { s.run_bursts(); });
    }
    futures[i] = s.server->submit_features(s.world.features[qidx[i]]);
    if (spans) {
      t_send[i] = now;
      t_sent[i] = now_ns();
    }
    pending.push_back(i);
  }
  const auto out_end = static_cast<std::int64_t>(pending.size());
  while (!pending.empty()) wait_until(kForever);
  if (bursts.joinable()) bursts.join();
  if (depth > 0) {
    w.attempted = sent;  // a closed loop attempts only what it sends
  } else {
    w.unsent = n - sent;  // overloaded: counted as failed
    for (std::size_t i = sent; i < n; ++i) {
      ++w.failed;
      w.latency.add_failure();
    }
  }
  if (spans) {
    spans->reserve(spans->size() + 4 * sent);
    for (std::size_t i = 0; i < sent; ++i) {
      spans->record(i, k.request, t0 + due[i], t_done[i]);
      spans->record(i, k.gen_late, t0 + due[i], t_send[i]);
      spans->record(i, k.submit, t_send[i], t_sent[i]);
      spans->record(i, k.check, t_done[i], t_checked[i]);
    }
  }
  const ProcSample p1 = proc_counters().read();
  w.proc = {p1.cpu_s - p0.cpu_s, p1.ctx_switches - p0.ctx_switches,
            p1.migrations - p0.migrations, p1.page_faults - p0.page_faults};
  if (depth == 0 && n > 0) {
    w.backlog_growth =
        static_cast<double>(out_end - std::max<std::int64_t>(out_quarter, 0)) /
        static_cast<double>(n);
    Samples late;
    for (const double v : late_us) late.add_ms(v);
    w.late_p50_us = late.percentile(50);
    w.late_p90_us = late.percentile(90);
    w.late_p99_us = late.percentile(99);
  }
  if (clean_correct_out) *clean_correct_out += clean_correct;
  return w;
}

}  // namespace

Result run_features_repair(const RunConfig& cfg) {
  Result r;
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < (cfg.trace ? 1 : 3); ++i) {
    stack.reset();
    double s = 0.0;
    stack = set_up(cfg, i, s);
    setups.push_back(s);
  }
  const double setup_rss_mb = peak_rss_mb();
  Stack& st = *stack;
  const double S = cfg.seconds;
  r.hugepage_backed = st.world.model.arena().hugepage_backed();

  if (cfg.trace) {
    const Window untraced = run_window(st, kPlan.hi_qps, 0.3 * S, cfg.seed + 11,
                                       nullptr);
    SpanLog spans;
    st.server->drain();
    const auto before = st.server->stats();
    const std::uint64_t moved_before = st.settle();
    const Window traced =
        run_window(st, kPlan.hi_qps, 0.3 * S, cfg.seed + 11, nullptr, &spans);
    st.server->persist_barrier();
    const auto after = st.server->stats();
    const std::uint64_t moved = st.settle() - moved_before;
    count_window(r, untraced);
    count_window(r, traced);
    ProbeInputs in;
    in.model = &st.world.model;
    in.queries = st.world.queries;
    in.encoder = st.world.encoder.get();
    in.features = st.world.features;
    probe_layers(in, r.per_layer);
    add_server_metrics(before, after, r.per_layer);
    const double substituted =
        static_cast<double>(after.scrub_substituted_bits -
                            before.scrub_substituted_bits);
    r.per_layer.set("recovery.useful_substitution_ratio",
                    substituted > 0 ? static_cast<double>(moved) / substituted
                                    : 0.0,
                    "ratio");
    add_window_metrics(traced, r.per_layer);
    spans.summarize(r.per_layer);
    add_trace_overhead(untraced, traced, r.per_layer);
    return r;
  }

  std::uint64_t clean_correct = 0;
  std::uint64_t clean_attempted = 0;
  const OpenLoop run = run_open_loop(
      [&](double rate, double seconds, std::uint64_t seed) {
        // Clean-model accuracy is tallied over the lo and hi windows, the
        // same requests `accuracy` counts.
        Window w = run_window(st, rate, seconds, seed, &clean_correct);
        clean_attempted += w.attempted;
        return w;
      },
      [&](double, double seconds, std::uint64_t seed) {
        return run_window(st, 0, seconds, seed, nullptr, nullptr,
                          kSaturationDepth);
      },
      kPlan, S, cfg.seed);
  report_open_loop(run, kPlan, setups, setup_rss_mb, r);
  st.server->persist_barrier();
  const auto stats = st.server->stats();
  std::cerr << "accuracy " << r.end_to_end.find("accuracy")->value
            << " beside clean serial accuracy "
            << static_cast<double>(clean_correct) /
                   static_cast<double>(std::max<std::uint64_t>(
                       clean_attempted, 1))
            << " on the same features; bursts " << st.bursts_done
            << ", substituted bits " << stats.scrub_substituted_bits
            << ", epochs closed " << stats.epochs_closed
            << ", persist io errors " << stats.persist_io_errors << "\n";
  if (stats.persist_io_errors != 0) r.correct = false;
  return r;
}

}  // namespace perfbench
