#include "bench.hpp"

#include <linux/perf_event.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "robusthd/util/rng.hpp"

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void set_precise_timer_slack() noexcept { ::prctl(PR_SET_TIMERSLACK, 1UL); }

void sleep_until_ns(std::int64_t deadline_ns) noexcept {
  // steady_clock is CLOCK_MONOTONIC on Linux/libstdc++.
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1000000000);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void pin_this_thread(const std::vector<int>& cpus) {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (long c = 0; c < n; ++c) {
    if (cpus.empty()) CPU_SET(static_cast<int>(c), &set);
  }
  for (const int c : cpus) {
    if (c < n) CPU_SET(c, &set);
  }
  if (CPU_COUNT(&set) > 0) ::sched_setaffinity(0, sizeof(set), &set);
}

// ---------------------------------------------------------------------------

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::percentile(double p) const {
  if (values_.empty()) return std::numeric_limits<double>::infinity();
  sort();
  const auto n = static_cast<double>(values_.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

double Samples::highest_supported_percentile() const {
  const auto n = static_cast<double>(values_.size());
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (n * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

std::string describe(const Samples& s, const std::string& what) {
  std::ostringstream os;
  const double top = s.highest_supported_percentile();
  os << what << ": n=" << s.count() << " p50=" << s.percentile(50)
     << "ms p99=" << s.percentile(99) << "ms";
  if (top > 0) {
    os << " highest percentile with >=10 beyond: p" << top << "="
       << s.percentile(top) << "ms";
  }
  return os.str();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

const Metric* Metrics::find(const std::string& name) const {
  for (const auto& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------

namespace {

int open_sw_counter(std::uint64_t config) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_SOFTWARE;
  attr.config = config;
  attr.inherit = 1;
  attr.exclude_hv = 1;
  const long fd = ::syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  return static_cast<int>(fd);
}

double read_counter(int fd) {
  std::uint64_t value = 0;
  if (::read(fd, &value, sizeof(value)) != sizeof(value)) return 0.0;
  return static_cast<double>(value);
}

}  // namespace

ProcCounters::ProcCounters() {
  const std::uint64_t configs[3] = {PERF_COUNT_SW_CONTEXT_SWITCHES,
                                    PERF_COUNT_SW_CPU_MIGRATIONS,
                                    PERF_COUNT_SW_PAGE_FAULTS};
  for (int i = 0; i < 3; ++i) {
    fds_[i] = open_sw_counter(configs[i]);
    if (fds_[i] < 0) {
      for (int j = 0; j < i; ++j) ::close(fds_[j]);
      fds_[0] = fds_[1] = fds_[2] = -1;
      return;
    }
  }
}

ProcCounters::~ProcCounters() {
  for (const int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

ProcSample ProcCounters::read() const {
  ProcSample s;
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  s.cpu_s = static_cast<double>(ts.tv_sec) +
            static_cast<double>(ts.tv_nsec) * 1e-9;
  if (perf_events()) {
    s.ctx_switches = read_counter(fds_[0]);
    s.migrations = read_counter(fds_[1]);
    s.page_faults = read_counter(fds_[2]);
  } else {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    s.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
    s.page_faults = static_cast<double>(ru.ru_minflt + ru.ru_majflt);
  }
  return s;
}

ProcCounters& proc_counters() {
  static ProcCounters counters;
  return counters;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------

int SpanLog::kind(const std::string& name, int parent) {
  names_.push_back(name);
  parents_.push_back(parent);
  return static_cast<int>(names_.size()) - 1;
}

void SpanLog::summarize(Metrics& out) const {
  const std::size_t kinds = names_.size();
  std::vector<double> total(kinds, 0.0);
  std::vector<double> self(kinds, 0.0);
  std::vector<std::uint64_t> count(kinds, 0);
  std::vector<bool> has_children(kinds, false);
  for (const int parent : parents_) {
    if (parent >= 0) has_children[static_cast<std::size_t>(parent)] = true;
  }
  // Self time per request: a span minus its children of the same request.
  std::vector<Span> spans = spans_;
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     return a.request < b.request;
                   });
  for (std::size_t begin = 0; begin < spans.size();) {
    std::size_t end = begin;
    while (end < spans.size() && spans[end].request == spans[begin].request) {
      ++end;
    }
    for (std::size_t i = begin; i < end; ++i) {
      const auto k = static_cast<std::size_t>(spans[i].kind);
      double us = static_cast<double>(spans[i].end_ns - spans[i].start_ns) *
                  1e-3;
      total[k] += us;
      ++count[k];
      for (std::size_t j = begin; j < end; ++j) {
        if (parents_[static_cast<std::size_t>(spans[j].kind)] ==
            spans[i].kind) {
          us -= static_cast<double>(spans[j].end_ns - spans[j].start_ns) *
                1e-3;
        }
      }
      self[k] += us;
    }
    begin = end;
  }
  // Means per span of the kind; self time only where children exist.
  for (std::size_t k = 0; k < kinds; ++k) {
    const double n = count[k] == 0 ? 1.0 : static_cast<double>(count[k]);
    out.set("span." + names_[k] + ".us", total[k] / n, "us");
    if (has_children[k]) {
      out.set("span." + names_[k] + ".self_us", self[k] / n, "us");
    }
  }
}

RequestSpans request_spans(SpanLog& log) {
  RequestSpans k{};
  k.request = log.kind("request");
  k.gen_late = log.kind("gen_late", k.request);
  k.submit = log.kind("submit", k.request);
  k.check = log.kind("check", k.request);
  return k;
}

// ---------------------------------------------------------------------------

std::vector<std::int64_t> poisson_schedule(double rate, double seconds,
                                           std::uint64_t seed) {
  robusthd::util::Xoshiro256 rng(seed);
  std::vector<std::int64_t> due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  const double end = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    // Inverse-CDF exponential gap; 1 - u is in (0, 1].
    t += -std::log(1.0 - rng.uniform()) / rate * 1e9;
    if (t >= end) break;
    due.push_back(static_cast<std::int64_t>(t));
  }
  return due;
}

void Window::merge(const Window& o) {
  latency.append(o.latency);
  attempted += o.attempted;
  answered += o.answered;
  failed += o.failed;
  mismatches += o.mismatches;
  unsent += o.unsent;
  correct_labels += o.correct_labels;
  late_p50_us = std::max(late_p50_us, o.late_p50_us);
  late_p90_us = std::max(late_p90_us, o.late_p90_us);
  late_p99_us = std::max(late_p99_us, o.late_p99_us);
  backlog_growth = std::max(backlog_growth, o.backlog_growth);
  seconds += o.seconds;
  proc.cpu_s += o.proc.cpu_s;
  proc.ctx_switches += o.proc.ctx_switches;
  proc.migrations += o.proc.migrations;
  proc.page_faults += o.proc.page_faults;
}

std::vector<RatePoint> measure_interleaved(const std::vector<PointSpec>& points,
                                           int parts) {
  const std::size_t k = points.size();
  std::vector<RatePoint> out(k);
  std::vector<std::vector<double>> p50(k), p90(k), p99(k), qps(k);
  for (int round = 0; round < parts; ++round) {
    for (std::size_t i = 0; i < k; ++i) {
      const PointSpec& spec = points[i];
      const Window w = spec.window(spec.rate, spec.seconds / parts,
                                   spec.seed + 104729 * round);
      p50[i].push_back(w.latency.percentile(50));
      p90[i].push_back(w.latency.percentile(90));
      p99[i].push_back(w.latency.percentile(99));
      qps[i].push_back(static_cast<double>(w.answered) / w.seconds);
      out[i].pooled.merge(w);
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    out[i].pooled.offered_qps = points[i].rate;
    out[i].p50_ms = median(p50[i]);
    out[i].p90_ms = median(p90[i]);
    out[i].p99_ms = median(p99[i]);
    out[i].qps = median(qps[i]);
  }
  return out;
}

std::string describe(const RatePoint& p, const std::string& what) {
  std::ostringstream os;
  os << describe(p.pooled.latency, what + " pooled") << "; median over "
     << "windows p50=" << p.p50_ms << "ms p90=" << p.p90_ms
     << "ms p99=" << p.p99_ms
     << "ms; generator late p50/p90/p99 " << p.pooled.late_p50_us << "/"
     << p.pooled.late_p90_us << "/" << p.pooled.late_p99_us
     << " us (worst window), backlog growth " << p.pooled.backlog_growth
     << ", unsent " << p.pooled.unsent;
  return os.str();
}

void count_window(Result& r, const Window& w) {
  r.attempted += w.attempted;
  r.failed += w.failed;
  if (w.mismatches > 0) r.correct = false;
}

OpenLoop run_open_loop(const WindowFn& open, const WindowFn& saturating,
                       const OpenLoopPlan& plan, double seconds,
                       std::uint64_t seed) {
  constexpr int kRounds = 7;
  const auto points = measure_interleaved(
      {{open, plan.lo_qps, 0.3 * seconds, seed + 1},
       {open, plan.hi_qps, 0.4 * seconds, seed + 2},
       {saturating, 0, 0.3 * seconds, seed + 3}},
      kRounds);
  OpenLoop run{points[0], points[1], points[2]};
  for (const RatePoint* p : {&run.lo, &run.hi}) {
    if (p->pooled.late_p50_us > plan.max_late_p50_us) {
      throw std::runtime_error(
          std::string(plan.workload) + ": invalid run, the generator fell "
          "behind at " + std::to_string(p->pooled.offered_qps) +
          " q/s (median lateness " + std::to_string(p->pooled.late_p50_us) +
          " us)");
    }
  }
  return run;
}

void report_open_loop(const OpenLoop& run, const OpenLoopPlan& plan,
                      const std::vector<double>& setups, double setup_rss_mb,
                      Result& r) {
  const Window& lo = run.lo.pooled;
  const Window& hi = run.hi.pooled;
  count_window(r, lo);
  count_window(r, hi);
  count_window(r, run.saturated.pooled);
  std::cerr << describe(run.lo, "lo " + std::to_string(plan.lo_qps) + " q/s")
            << "\n"
            << describe(run.hi, "hi " + std::to_string(plan.hi_qps) + " q/s")
            << "\n"
            << describe(run.saturated, "saturated, " +
                                           std::to_string(kSaturationDepth) +
                                           " outstanding")
            << "\nqps at saturation (median of windows): " << run.saturated.qps
            << "; fail_ratio "
            << static_cast<double>(r.failed) /
                   static_cast<double>(std::max<std::uint64_t>(r.attempted,
                                                               1))
            << ", reference mismatches "
            << lo.mismatches + hi.mismatches + run.saturated.pooled.mismatches
            << "\n";
  r.end_to_end.set("setup_s", median(setups), "s");
  r.end_to_end.set("qps", run.saturated.qps, "1/s");
  r.end_to_end.set("p50_ms.lo", run.lo.p50_ms, "ms");
  r.end_to_end.set("p50_ms.hi", run.hi.p50_ms, "ms");
  r.end_to_end.set("cpu_us_per_query",
                   hi.proc.cpu_s * 1e6 /
                       static_cast<double>(std::max<std::uint64_t>(
                           hi.answered, 1)),
                   "us");
  r.end_to_end.set("accuracy",
                   static_cast<double>(lo.correct_labels + hi.correct_labels) /
                       static_cast<double>(lo.attempted + hi.attempted),
                   "ratio");
  r.end_to_end.set("peak_rss_mb", setup_rss_mb, "MB");
}

}  // namespace perfbench
