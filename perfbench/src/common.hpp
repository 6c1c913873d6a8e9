// Shared pieces of the ANTAREX end-to-end benchmark: run options, the result
// record every workload fills, wall-clock helpers, the span recorder used by
// traced runs, and the benchmark's own statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int workers = 1;
};

/// Where runs write their records and traces (relative to the checkout).
constexpr const char* kOutDir = ".bench_out";

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): the op accounting, the
/// correctness verdict, every metric by name, and the exact work counts that
/// must repeat between runs at the same seed.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< why `correct` is false
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> exact_counts;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a failed check; the run stays valid but is reported incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

// ---------------------------------------------------------------------------
// Statistics (stats.cpp). Written here rather than taken from the program so
// the benchmark does not measure the program with the program's own code.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. p in (0, 100]; empty input gives 0.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);
/// |a - b| / max(|a|, |b|), 0 when both are 0.
double rel_diff(double a, double b);

/// One finished op: when it ended (seconds since the timed loop started) and
/// how long it took.
struct OpSample {
  double end_s = 0.0;
  double latency_us = 0.0;
};

/// The run cut into `windows` equal spans of [0, total_s) by op end time;
/// each figure is the median over the windows of that window's throughput,
/// median latency and p99 latency, so a burst of interference from outside
/// the benchmark moves one window, not the result.
constexpr int kWindows = 5;

struct WindowedStats {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};
WindowedStats windowed(const std::vector<OpSample>& ops, double total_s, int windows);

/// Fill ops_per_s, op_p50_us and op_p99_us from windowed().
void add_op_metrics(Result& r, const std::vector<OpSample>& ops, double total_s);

// ---------------------------------------------------------------------------
// Span recorder (trace.cpp). Spans are recorded from the benchmark's own code
// around calls into each layer's public functions; each thread appends to its
// own buffer, and everything stays in memory until the run ends.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index in the same thread's buffer, -1 = root
  std::uint64_t op = 0;
};

class Tracer {
 public:
  /// Recording is a no-op unless enabled (untraced runs pay one branch).
  static void enable(bool on);
  static bool enabled();
  /// Open a span on the calling thread; returns its handle (or -1).
  static std::int64_t open(const char* name, const char* layer,
                           std::uint64_t op);
  static void close(std::int64_t handle);
  /// Record a finished span [start, end) under the thread's open span.
  static void record(const char* name, const char* layer, Clock::time_point start,
                     Clock::time_point end, std::uint64_t op);
  /// Every thread's spans (call once, after all workers are idle).
  static std::vector<std::vector<Span>> collect();
};

/// RAII span.
class Scope {
 public:
  Scope(const char* name, const char* layer, std::uint64_t op = 0)
      : h_(Tracer::open(name, layer, op)) {}
  ~Scope() { Tracer::close(h_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int64_t h_;
};

/// Per-layer self time: a span's duration minus the part of its interval its
/// child spans cover, summed per layer. Spans named "op" are the roots whose
/// self time no layer accounts for.
struct SelfTimes {
  std::map<std::string, double> layer_s;  ///< self seconds per layer
  double op_s = 0.0;                      ///< total root ("op") span seconds
  double unaccounted_s = 0.0;             ///< self time of the "op" roots
};
SelfTimes self_times(const std::vector<std::vector<Span>>& per_thread);

/// Write spans as JSON lines plus the self-time table (trace runs only).
void write_trace(const std::string& path,
                 const std::vector<std::vector<Span>>& per_thread,
                 const SelfTimes& table);

/// Layers the self-time table reports, in output order.
const std::vector<std::string>& traced_layers();

/// Fill the per-layer self-time metrics of a traced run (zeros elsewhere).
void add_self_time_metrics(Result& r, const SelfTimes& t, std::uint64_t ops);

/// IT energy integrated from a plant's step observer (fn(now, it_power_w,
/// dt)): the benchmark's own reference for the plant's energy accounting.
struct PowerIntegrator {
  double joules = 0.0;
  void operator()(double /*now_s*/, double it_power_w, double dt_s) {
    joules += it_power_w * dt_s;
  }
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

Result run_fleet_scale(const Options& opt);
Result run_fleet_capped(const Options& opt);
Result run_nav_day(const Options& opt);
Result run_toolflow(const Options& opt);

/// Self-test of the references and the statistics code on hand-made inputs.
int run_selftest();

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

}  // namespace perfbench
