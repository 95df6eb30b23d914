#ifndef PIMCOMP_PERFBENCH_HARNESS_HPP
#define PIMCOMP_PERFBENCH_HARNESS_HPP

// Measurement plumbing shared by the three workloads: sample sets with a
// guarded tail percentile, the output oracle, the in-memory span recorder,
// the metric report and the process probes (RSS, CPU time, allocations).
// Everything here sits outside the program under test: the workloads call
// the program's public entry points and record what they observe.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "serve/client.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point begin, Clock::time_point end);

/// What one invocation asked for.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  ///< per-process directory for sockets and caches
};

/// Set by SIGINT/SIGTERM; workloads poll it between operations and unwind
/// (so every temp directory and daemon is torn down by its destructor).
extern std::atomic<bool> g_interrupted;
void throw_if_interrupted();

// ---------------------------------------------------------------------------
// Samples and percentiles.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (`q` in [0, 1]) of unsorted values.
/// Throws std::invalid_argument on an empty set.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// A tail quantile is only reported when at least `kMinBeyondTail` samples
/// lie beyond it; otherwise it is noise from a handful of points. Throws
/// std::invalid_argument when the sample set cannot support `q`.
inline constexpr std::size_t kMinBeyondTail = 10;
std::size_t samples_beyond(std::size_t count, double q);
double tail_quantile(const std::vector<double>& values, double q);

double geomean(const std::vector<double>& values);


// ---------------------------------------------------------------------------
// Output oracle.
// ---------------------------------------------------------------------------

/// Counts attempted and failed operations. A failure is any operation whose
/// output is missing, invalid, or differs from the reference for its key.
class Oracle {
 public:
  void pass() { ++attempted_; }
  /// Records a failure; the first few reasons are echoed to stderr.
  void fail(const std::string& why);
  /// pass() when `ok`, fail(why) otherwise; returns `ok`.
  bool check(bool ok, const std::string& why);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// FNV-1a accumulator for result digests.
class Digest {
 public:
  Digest& add(const std::string& bytes);
  Digest& add(std::uint64_t value);
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 1469598103934665603ull;
};

/// What the oracle extracted from one wire reply.
struct ReplyCheck {
  bool ok = false;
  std::string error;         ///< why the reply is unacceptable (!ok only)
  std::uint64_t digest = 0;  ///< compile report (minus timings) + simulation
                             ///< + every stream's content fingerprint
  std::uint64_t mapping_key = 0;  ///< binding of the first stream (0: none)
  std::int64_t instructions = 0;  ///< total instructions over the streams
};

/// Checks a single-scenario reply: one ok outcome, a simulation when
/// `expect_simulation`, and — when `expect_stream` — one artifact whose
/// stream parses and validate()s. Never throws.
ReplyCheck check_reply(const pimcomp::serve::CompileReply& reply,
                       bool expect_simulation, bool expect_stream);

/// Per-key reference digests: the first result seen for a key (its cold
/// compile) is the reference every later hit must equal.
class KeyBook {
 public:
  /// True when `digest` is the first for `key` or equals the recorded one.
  bool observe(const std::string& key, std::uint64_t digest);

 private:
  std::unordered_map<std::string, std::uint64_t> reference_;
};

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

/// One timed interval at a layer boundary, in seconds since the tracer's
/// origin. Spans of one operation share `op`; `parent` is the index of the
/// enclosing span (-1 for a root).
struct Span {
  std::string layer;
  int parent = -1;
  std::uint64_t op = 0;
  double start = 0.0;
  double end = 0.0;
};

/// Keeps spans in memory; write() serializes them once, at the end.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  double now() const { return seconds_between(origin_, Clock::now()); }
  double at(Clock::time_point t) const { return seconds_between(origin_, t); }

  /// Adds a finished span and returns its index.
  int add(const std::string& layer, int parent, std::uint64_t op, double start,
          double end);
  /// Opens a span now; close it with finish().
  int open(const std::string& layer, int parent, std::uint64_t op) {
    const double t = now();
    return add(layer, parent, op, t, t);
  }
  void finish(int index) { spans_[static_cast<std::size_t>(index)].end = now(); }

  const std::vector<Span>& spans() const { return spans_; }

  std::size_t size() const { return spans_.size(); }

  /// Self time per layer over the spans from index `first` on: each span's
  /// duration minus the part of it that its children cover.
  std::map<std::string, double> self_seconds(std::size_t first = 0) const;

  /// Writes {"spans": [...]} to `path` (creating its directory).
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Process probes.
// ---------------------------------------------------------------------------

double process_cpu_seconds();

/// Starts a new peak-RSS window: returns freed heap memory to the system
/// (so one round's garbage does not count against the next) and resets the
/// kernel's high-water mark. Where the kernel refuses the reset,
/// peak_rss_mib() reads the process-lifetime peak.
void reset_peak_rss();
/// Peak resident set size since the last reset_peak_rss(), in MiB.
double peak_rss_mib();

/// Global allocation counter (the counting operator new lives in
/// alloc_counter.cpp). Counting is off unless enabled.
void set_allocation_counting(bool enabled);
std::uint64_t allocation_count();

/// A directory removed, with everything under it, when the owner dies.
class TempDir {
 public:
  explicit TempDir(std::string path);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything one run produced: the end-to-end metrics (untraced runs),
/// the per-layer metrics (traced runs), extra rows printed for people only,
/// and the oracle's counts.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> detail;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t result_digest = 0;  ///< digest of every checked output

  void add_end_to_end(std::string name, double value, std::string unit,
                      std::size_t samples);
  void add_per_layer(std::string name, double value, std::string unit,
                     std::size_t samples);
  void add_detail(std::string name, double value, std::string unit,
                  std::size_t samples);
};

/// What every workload measures for the end-to-end metrics. Times are
/// process CPU seconds (all threads: the in-process daemons, router and
/// clients included), which on a shared host vary far less between runs
/// than wall-clock times do; wall-clock latencies are reported as details.
struct EndToEnd {
  std::vector<double> setup_cpu_s;  ///< one entry per set-up
  double op_cpu_s = 0.0;            ///< CPU over the measured operations
  std::size_t ops = 0;              ///< operations measured
  std::vector<double> ht_ips;   ///< per distinct HT program: simulated
                                ///< inferences per second
  std::vector<double> ll_us;    ///< per distinct LL program: simulated
                                ///< latency in microseconds
  std::vector<double> code_ops;  ///< per distinct program: operations
                                 ///< (instructions) it compiled to
  std::vector<double> peak_rss_mib;  ///< one entry per round
};
void report_end_to_end(Report& report, const EndToEnd& measured);

/// Adds the `q` quantile of `values` as a detail row when the sample set
/// supports it (kMinBeyondTail samples beyond); otherwise adds nothing.
void add_tail_detail(Report& report, const std::string& name,
                     const std::vector<double>& values, double q,
                     const std::string& unit);

/// Human-readable table of every metric with unit and sample count.
void print_table(const RunConfig& config, const Report& report);

/// The machine-readable last line: {"correct", "attempted", "failed",
/// "metrics"}; the metrics are the end-to-end set, or the per-layer set
/// for a traced run.
pimcomp::Json result_line(const RunConfig& config, const Report& report);

}  // namespace perfbench

#endif  // PIMCOMP_PERFBENCH_HARNESS_HPP
