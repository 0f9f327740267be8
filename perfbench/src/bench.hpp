#pragma once
// Shared machinery of the RobustHD benchmark: exact latency samples,
// metric lists, process counters, the benchmark-side span log, the seeded
// Poisson schedule and the shared open-loop measurement.
//
// Everything here lives in the benchmark, not in the library: the program
// under test sees only the inputs the workloads generate.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary process-wide epoch.
std::int64_t now_ns() noexcept;

/// Sleeps until `deadline_ns` (now_ns() time base) with sub-10 µs
/// precision: timer slack is set to 1 ns for the calling thread.
void sleep_until_ns(std::int64_t deadline_ns) noexcept;
void set_precise_timer_slack() noexcept;

/// Restricts the calling thread to `cpus` (ids beyond the machine are
/// dropped; an empty set means every CPU). Threads inherit the mask of
/// the thread that creates them, which is how a workload places the
/// threads the library starts.
void pin_this_thread(const std::vector<int>& cpus);

// ---------------------------------------------------------------------------
// Exact latency samples.

/// Every latency of a window, kept in full. Failed or refused requests are
/// stored as +infinity, so they miss every latency limit and sit above
/// every percentile they reach.
class Samples {
 public:
  void reserve(std::size_t n) { values_.reserve(n); }
  void add_ms(double ms) { values_.push_back(ms); sorted_ = false; }
  void add_failure() {
    values_.push_back(std::numeric_limits<double>::infinity());
    sorted_ = false;
  }
  void append(const Samples& other);
  std::size_t count() const noexcept { return values_.size(); }
  /// Exact nearest-rank percentile, p in [0, 100].
  double percentile(double p) const;
  /// Highest of 50/90/99/99.9/99.99 with at least ten samples beyond it
  /// (0 when even the median lacks them).
  double highest_supported_percentile() const;

 private:
  void sort() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

std::string describe(const Samples& s, const std::string& what);

double median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list; set() overwrites an earlier value of the same name.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const noexcept { return items_; }
  const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> items_;
};

// ---------------------------------------------------------------------------
// Process counters.

struct ProcSample {
  double cpu_s = 0.0;            ///< process CPU time (all threads)
  double ctx_switches = 0.0;
  double migrations = 0.0;
  double page_faults = 0.0;
};

/// Software perf counters (context switches, CPU migrations, page faults)
/// opened once at start-up with `inherit`, so they cover every thread the
/// benchmark and the library start later. Falls back to getrusage (which
/// has no migration count) when perf_event_open is refused.
class ProcCounters {
 public:
  ProcCounters();
  ~ProcCounters();
  ProcCounters(const ProcCounters&) = delete;
  ProcCounters& operator=(const ProcCounters&) = delete;
  ProcSample read() const;
  bool perf_events() const noexcept { return fds_[0] >= 0; }

 private:
  int fds_[3] = {-1, -1, -1};
};

ProcCounters& proc_counters();
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Span log (traced runs only).

/// Spans recorded by the benchmark around its calls into the library's
/// public functions, kept in memory. Spans of one request share its id; a
/// kind names its parent kind. A span's self time is its duration minus
/// its children's spans of the same request (children never overlap).
class SpanLog {
 public:
  /// Registers a span kind; `parent` is an earlier kind or -1 for a root.
  int kind(const std::string& name, int parent = -1);
  void reserve(std::size_t n) { spans_.reserve(n); }
  void record(std::uint64_t request, int kind, std::int64_t start_ns,
              std::int64_t end_ns) {
    spans_.push_back({request, kind, start_ns, end_ns});
  }
  /// Mean time per span of each kind, in microseconds, as
  /// `span.<kind>.us`, plus `span.<kind>.self_us` for kinds with children.
  void summarize(Metrics& out) const;
  std::size_t size() const noexcept { return spans_.size(); }

 private:
  struct Span {
    std::uint64_t request;
    int kind;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<std::string> names_;
  std::vector<int> parents_;
  std::vector<Span> spans_;
};

/// The span kinds every workload records, so each traced run reports the
/// same names: `request` (due time, or call start in a closed loop, to
/// the answer being observed) with children `gen_late` (due time to the
/// hand-off call), `submit` (the hand-off: wire encode, or
/// Server::submit_features; empty where one blocking call does it all)
/// and `check` (decoding and checking the answer). Self time of
/// `request` is the time spent inside the program.
struct RequestSpans {
  int request, gen_late, submit, check;
};
RequestSpans request_spans(SpanLog& log);

// ---------------------------------------------------------------------------
// Load.

/// Poisson arrival offsets (ns from window start) at `rate` per second
/// over `seconds`, drawn from `seed` alone.
std::vector<std::int64_t> poisson_schedule(double rate, double seconds,
                                           std::uint64_t seed);

/// Outstanding requests beyond which an open-loop window stops sending:
/// 100 ms of offered work. A window that far behind is overloaded, and a
/// bounded backlog drains before the next window starts.
inline std::size_t max_outstanding(double rate) {
  return static_cast<std::size_t>(rate * 0.1) + 64;
}

/// Requests a saturating (closed-loop) window keeps outstanding.
inline constexpr std::size_t kSaturationDepth = 256;

/// What one window measured.
struct Window {
  double offered_qps = 0.0;
  double seconds = 0.0;
  Samples latency;  ///< from each request's due time (closed: send time)
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;    ///< correct-or-not answers received
  std::uint64_t failed = 0;      ///< errors, refusals, timeouts, mismatches
  std::uint64_t mismatches = 0;  ///< answers differing from the reference
  /// Requests never sent because the backlog passed max_outstanding();
  /// they count as attempted and failed.
  std::uint64_t unsent = 0;
  std::uint64_t correct_labels = 0;
  double late_p50_us = 0.0;      ///< generator lateness (send - due)
  double late_p90_us = 0.0;
  double late_p99_us = 0.0;
  /// Outstanding requests at window end minus at its first quarter, over
  /// the requests sent: > 0 means the backlog grew.
  double backlog_growth = 0.0;
  ProcSample proc;  ///< process CPU time and counter deltas over the window

  /// Adds another window's samples and counts (lateness and backlog keep
  /// the worse of the two).
  void merge(const Window& other);
};

/// Runs one window for `seconds`, seeded by `seed`: open loop at `rate`,
/// or, for a saturating window function, closed loop with
/// kSaturationDepth requests outstanding (`rate` unused).
using WindowFn =
    std::function<Window(double rate, double seconds, std::uint64_t seed)>;

/// One operating point measured in several windows, each with its own
/// seeded schedule: the medians over windows are the steady figures, the
/// pooled samples keep the exact percentiles of the whole.
struct RatePoint {
  Window pooled;
  double p50_ms = 0.0;  ///< median over windows of each window's p50
  double p90_ms = 0.0;  ///< median over windows of each window's p90
  double p99_ms = 0.0;  ///< median over windows of each window's p99
  double qps = 0.0;     ///< median over windows of answers per second
};

/// What to measure at one operating point: `seconds` in total at `rate`.
struct PointSpec {
  WindowFn window;
  double rate = 0.0;
  double seconds = 0.0;
  std::uint64_t seed = 0;
};

/// Measures every point in `parts` rounds; each round runs one window of
/// every point in turn. A slow minute on a shared host then lands in a
/// few windows of each point, which the medians discard, instead of in
/// every window of whichever point ran during it.
std::vector<RatePoint> measure_interleaved(const std::vector<PointSpec>& points,
                                           int parts);

std::string describe(const RatePoint& p, const std::string& what);

// ---------------------------------------------------------------------------
// Results.

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< working space inside the checkout
};

struct Result {
  bool correct = true;
  int hugepage_backed = -1;  ///< the serving model's arena; -1 = unknown
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
};

/// Adds the window's failures and attempts to the result totals.
void count_window(Result& r, const Window& w);

/// The shared measurement of the open-loop workloads: latency at two
/// fixed offered rates, then throughput at saturation.
struct OpenLoopPlan {
  const char* workload = "";
  double lo_qps = 0.0;
  double hi_qps = 0.0;
  /// Median generator lateness above which lo or hi is invalid.
  double max_late_p50_us = 0.0;
};
struct OpenLoop {
  RatePoint lo;
  RatePoint hi;
  RatePoint saturated;
};

/// Spends 30% of `seconds` at `lo`, 40% at `hi` and 30% saturated, in
/// seven interleaved rounds. Throws when the generator fell behind at lo
/// or hi: such a run is invalid.
OpenLoop run_open_loop(const WindowFn& open, const WindowFn& saturating,
                       const OpenLoopPlan& plan, double seconds,
                       std::uint64_t seed);

/// Sets every end-to-end metric of an open-loop run and counts its
/// attempts and failures. `setup_rss_mb` is peak_rss_mb() taken right
/// after set-up: the serving stack's memory, before the generator's own
/// per-window buffers.
void report_open_loop(const OpenLoop& run, const OpenLoopPlan& plan,
                      const std::vector<double>& setups, double setup_rss_mb,
                      Result& r);

}  // namespace perfbench
