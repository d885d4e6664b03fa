// Shared pieces of the PRoof performance benchmark: clock, seeded RNG,
// statistics, the benchmark's own span tracer, and result assembly.
//
// The tracer records spans only around calls the benchmark makes into the
// program's public functions; nothing inside src/ is touched.  Spans live in
// memory and are written as a Chrome trace when the process ends.
#pragma once

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/prep_cache.hpp"
#include "hw/platform.hpp"
#include "serve/model_pool.hpp"

namespace perfbench {

// --- time --------------------------------------------------------------------

[[nodiscard]] int64_t now_ns();
[[nodiscard]] inline double ns_to_ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
[[nodiscard]] inline double ns_to_s(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Process CPU time (user + system) from getrusage, in ns.
[[nodiscard]] int64_t process_cpu_ns();

/// CPU time of the calling thread, in ns.
[[nodiscard]] int64_t thread_cpu_ns();

/// High-water resident set size of the process, in MiB.
[[nodiscard]] double peak_rss_mib();

/// Keeps the host's idle CPUs from halting while a multi-threaded workload
/// is measured.  On a VM an idle vCPU halts, and a thread woken on it waits
/// for the hypervisor to run that vCPU again: on the reference host that
/// wait is 0.1 ms at the median but 3-20 ms at p99, and it drifts with the
/// neighbours' load.  The spinning threads (one fewer than the CPUs, at
/// most 7) yield at once to any runnable thread, so the program's threads
/// still get the CPUs and still pay their wake-ups, only not the halt exits.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  /// CPU time the spinning threads have used, in ns (to leave out of the
  /// program's CPU time).
  [[nodiscard]] int64_t cpu_ns() const;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  std::vector<pthread_t> handles_;  ///< for the threads' CPU clocks
};

// --- seeded inputs -----------------------------------------------------------

/// splitmix64: the same seed gives the same stream on every platform and
/// standard library (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<size_t>(below(i))]);
    }
  }

 private:
  uint64_t state_;
};

/// `k` distinct entries of `pool`, drawn by `rng`, in ascending order.
[[nodiscard]] std::vector<int64_t> draw_sorted(Rng& rng, std::vector<int64_t> pool, size_t k);

// --- statistics --------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);

/// The highest percentile that still has at least `beyond` samples above it:
/// the (n - beyond)-th smallest value, at percentile 100 * (n - beyond) / n.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
  bool valid = false;  ///< false when n <= beyond
};
[[nodiscard]] Tail tail_with_beyond(std::vector<double> v, size_t beyond = 10);

/// Throughputs are medians over a run's slices: a host stall that slows a
/// few slices leaves them unmoved, as it leaves the median latency.
constexpr size_t kRateSlices = 8;

/// Median over slices of work[i] / seconds[i].
[[nodiscard]] double median_rate(const std::vector<double>& work,
                                 const std::vector<double>& seconds);

/// Median over kRateSlices consecutive, near-equal slices of a run's ops of
/// (work done) / (op time), with op times in ms.
[[nodiscard]] double median_slice_rate(const std::vector<double>& work,
                                       const std::vector<double>& op_ms);

/// Nearest-rank quantile q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Ratio of the mean latency of the last tenth of `in_order` to the first
/// tenth's; a growing open-loop backlog or a host stall shows up as > 1.
[[nodiscard]] double last_over_first_tenth(const std::vector<double>& in_order);

/// One open-loop request.  Latency counts from when the request was due, so
/// a stall also charges every request queued behind it; `late` is how far
/// the generator itself ran behind its schedule.
struct Timed {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  [[nodiscard]] double latency_ms() const { return ns_to_ms(done_ns - due_ns); }
  [[nodiscard]] double late_ms() const { return ns_to_ms(send_ns - due_ns); }
};

/// The load generator's connections and clock.  serve_mix implements it
/// over the daemon's sockets; the self-test over a stub server and a fake
/// clock, so both run the one schedule in drive().
class Link {
 public:
  Link() = default;
  virtual ~Link() = default;
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;
  [[nodiscard]] virtual size_t connections() const = 0;
  [[nodiscard]] virtual int64_t now() = 0;
  /// Sends request `i` on connection `c`; false when the send failed (the
  /// request then counts as done and failed).
  virtual bool send(size_t c, size_t i) = 0;
  /// Reads what connection `c` has without blocking; true once its request
  /// is answered.  Sets *progress when anything arrived.
  virtual bool poll(size_t c, bool* progress) = 0;
  /// Called when a round over the connections did nothing.
  virtual void idle() = 0;
};

/// Sends requests [lo, hi) over `link` and fills the same slots of `t`.
/// With `rate` > 0 it is an open loop: request i falls due at start +
/// (i - lo) / rate, start being 1 ms after the call, and is sent as soon as
/// it is due and a connection is free.  With `rate` == 0 it is a closed
/// loop: a connection sends its next request as soon as its reply arrived,
/// and a request falls due when it is sent.  Returns the wall time from the
/// first send to the last reply, in seconds.
double drive(Link& link, size_t lo, size_t hi, double rate, std::vector<Timed>& t);

/// Ops attempted and failed.  An op fails on an exception, an error
/// response (a 429 included) or an output that does not match its oracle.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

/// PrepCache counters summed over the ops of a pass.
struct CacheLedger {
  uint64_t engine_hits = 0;
  uint64_t engine_misses = 0;
  uint64_t plan_hits = 0;  ///< AnalysisPlan level
  uint64_t plan_misses = 0;
  uint64_t plan_build_ns = 0;
  void add(const proof::PrepCacheStats& before, const proof::PrepCacheStats& after);
  [[nodiscard]] double engine_hit_ratio() const;
  [[nodiscard]] double plan_hit_ratio() const;
};

// --- outputs -----------------------------------------------------------------

/// Zeroes the wall-clock fields of a report JSON, exactly as the golden
/// tests do (analysis_time_s, counter_profiling_time_s).
[[nodiscard]] std::string normalize_report(std::string json);

[[nodiscard]] std::string read_file(const std::string& path);

// --- tracer ------------------------------------------------------------------

/// Spans recorded by the benchmark on its own thread around calls into the
/// program.  Disabled spans cost one branch, so the untraced pass runs the
/// same code with tracing off.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_op(uint32_t op) { op_ = op; }

  int32_t open(const char* name);
  void close(int32_t index);

  /// Self time (duration minus direct children) summed per span name, in ns.
  [[nodiscard]] std::map<std::string, int64_t> self_ns_by_name() const;
  /// Duration summed per span name, in ns.
  [[nodiscard]] std::map<std::string, int64_t> total_ns_by_name() const;

  /// Chrome trace-event JSON of every span (viewable in Perfetto).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int32_t parent;  ///< index of the enclosing span, -1 for roots
    uint32_t op;     ///< op the span belongs to
    int64_t start_ns;
    int64_t end_ns;
  };

  bool enabled_ = false;
  uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(Tracer::instance().enabled() ? Tracer::instance().open(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) {
      Tracer::instance().close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_;
};

/// Runs `fn` inside a span named `name`.
template <typename F>
decltype(auto) traced(const char* name, F&& fn) {
  ScopedSpan span(name);
  return fn();
}

// --- results -----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path for --trace 1
};

/// What a workload run hands back to main(): the contract fields, the metrics
/// of the requested mode, and free-form detail lines (host stamp, tail
/// percentile, reconciliation) printed before the result line.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed checks; non-empty = incorrect
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> detail;  ///< key -> raw JSON

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& raw_json) {
    detail.push_back({key, raw_json});
  }
  void fail(const std::string& what) { problems.push_back(what); }
};

/// Full-precision JSON number ("null" for non-finite values).
[[nodiscard]] std::string num(double v);
[[nodiscard]] std::string quote(const std::string& s);

/// JSON object of a tail: {"value_ms":..,"percentile":..,"samples":..}.
/// The tail is printed, not gated: BENCHMARK.json has no latency_tail_ms
/// (see perfbench/predictions.json for its measured run-to-run spread).
[[nodiscard]] std::string tail_json(const Tail& t);

/// One timed set-up: a fresh serve::ModelPool preloading `ids`.  Appends its
/// wall time, in s, to `setup_s`.  Workloads repeat it between ops (outside
/// their timing), so the median samples the host over the whole run rather
/// than over one burst before the first op.
std::unique_ptr<proof::serve::ModelPool> timed_preload(const std::vector<std::string>& ids,
                                                       std::vector<double>& setup_s);

/// Replays the structure phase of one engine build through the stage calls,
/// each in its own span: backends::prepare_model, Backend::plan,
/// Backend::lower, PreparedEngine construction (AR + OAR) and
/// mapping::map_layers.  Returns the built engine.
std::unique_ptr<proof::PreparedEngine> replay_structure(const proof::Graph& model,
                                                        const proof::hw::PlatformDesc& platform,
                                                        const proof::backends::Backend& backend,
                                                        const proof::backends::BuildConfig& config);

/// A traced run's reconciliation: the layer times plus a named residual add
/// up to the traced op time, and bounds tie each replayed layer time to the
/// call it decomposes, so a replay that skips or repeats work fails the run.
struct Reconciliation {
  double op_ms = 0.0;
  std::vector<std::pair<std::string, double>> layers_ms;
  std::string residual_name;

  struct Bound {
    std::string what;
    double value;
    double lo;
    double hi;
  };
  std::vector<Bound> bounds;

  void layer(const std::string& name, double ms) { layers_ms.push_back({name, ms}); }
  /// `value` must lie in [lo, hi].
  void bound(const std::string& what, double value, double lo, double hi) {
    bounds.push_back({what, value, lo, hi});
  }
  /// op_ms minus the layer times.
  [[nodiscard]] double residual_ms() const;
  /// Adds the "reconciliation" detail note to `r`, and a failure per broken bound.
  void report(Result& r) const;
};

// --- workloads ---------------------------------------------------------------

Result run_cold_profile(const Args& args);
Result run_sweep_campaign(const Args& args);
Result run_serve_mix(const Args& args);

/// Each workload's seeded op list, one descriptor per op; the workload runs
/// exactly these ops.
[[nodiscard]] std::vector<std::string> cold_profile_ops(uint64_t seed, int seconds);
[[nodiscard]] std::vector<std::string> sweep_campaign_ops(uint64_t seed, int seconds);
[[nodiscard]] std::vector<std::string> serve_mix_ops(uint64_t seed, int seconds);

/// The benchmark's checks of its own statistics and input generation;
/// returns the failures (empty = all passed).
[[nodiscard]] std::vector<std::string> self_test(const Args& args);

}  // namespace perfbench
