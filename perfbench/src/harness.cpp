#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "backend/instruction_stream.hpp"

namespace perfbench {

using pimcomp::Json;

std::atomic<bool> g_interrupted{false};

void throw_if_interrupted() {
  if (g_interrupted.load()) throw std::runtime_error("interrupted");
}

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

// ---------------------------------------------------------------------------
// Samples.
// ---------------------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile out of range");
  std::sort(values.begin(), values.end());
  const double h = static_cast<double>(values.size() - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] + (h - static_cast<double>(lo)) * (values[lo + 1] - values[lo]);
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

std::size_t samples_beyond(std::size_t count, double q) {
  if (count == 0) return 0;
  const auto lo =
      static_cast<std::size_t>(std::floor(static_cast<double>(count - 1) * q));
  return count - 1 - lo;
}

double tail_quantile(const std::vector<double>& values, double q) {
  const std::size_t beyond = samples_beyond(values.size(), q);
  if (beyond < kMinBeyondTail) {
    throw std::invalid_argument(
        "p" + std::to_string(static_cast<int>(std::lround(q * 100))) +
        " of " + std::to_string(values.size()) + " samples has only " +
        std::to_string(beyond) + " beyond it (need " +
        std::to_string(kMinBeyondTail) + ")");
  }
  return quantile(values, q);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geomean of no samples");
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) throw std::invalid_argument("geomean of a non-positive value");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// ---------------------------------------------------------------------------
// Oracle.
// ---------------------------------------------------------------------------

void Oracle::fail(const std::string& why) {
  ++attempted_;
  ++failed_;
  if (failed_ <= 5) std::cerr << "perfbench: output check failed: " << why << '\n';
}

bool Oracle::check(bool ok, const std::string& why) {
  if (ok) {
    pass();
  } else {
    fail(why);
  }
  return ok;
}

Digest& Digest::add(const std::string& bytes) {
  for (unsigned char c : bytes) {
    state_ ^= c;
    state_ *= 1099511628211ull;
  }
  return add(static_cast<std::uint64_t>(bytes.size()));
}

Digest& Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (value >> (8 * i)) & 0xffu;
    state_ *= 1099511628211ull;
  }
  return *this;
}

ReplyCheck check_reply(const pimcomp::serve::CompileReply& reply,
                       bool expect_simulation, bool expect_stream) {
  ReplyCheck check;
  try {
    if (reply.outcomes.size() != 1 || reply.error_count != 0) {
      check.error = "expected one ok outcome, got " +
                    std::to_string(reply.outcomes.size()) + " with " +
                    std::to_string(reply.error_count) + " errors";
      return check;
    }
    const pimcomp::serve::OutcomeMessage& outcome = reply.outcomes.front();
    if (!outcome.ok || !outcome.compile.is_object()) {
      check.error = "outcome not ok: " + outcome.error;
      return check;
    }
    // Stage times differ between a cold compile and a hit by design; every
    // other field of the compile report is part of the result.
    Json compile = Json::object();
    for (const auto& [key, value] : outcome.compile.items()) {
      if (key != "stage_times") compile[key] = value;
    }
    Digest digest;
    digest.add(compile.dump(-1));
    if (expect_simulation) {
      if (!outcome.simulation.is_object()) {
        check.error = "outcome carries no simulation";
        return check;
      }
      digest.add(outcome.simulation.dump(-1));
    }
    const std::size_t want_streams = expect_stream ? 1 : 0;
    if (reply.artifacts.size() != want_streams) {
      check.error = "expected " + std::to_string(want_streams) +
                    " artifact(s), got " + std::to_string(reply.artifacts.size());
      return check;
    }
    for (const pimcomp::serve::ArtifactMessage& artifact : reply.artifacts) {
      const pimcomp::InstructionStream stream =
          pimcomp::InstructionStream::from_json(artifact.artifact);
      if (stream.total_ops != compile.get("total_ops", std::int64_t{-1})) {
        check.error = "stream op count differs from the compile report";
        return check;
      }
      digest.add(stream.content_fingerprint());
      if (check.mapping_key == 0) check.mapping_key = stream.mapping_key;
      check.instructions += stream.total_ops;
    }
    check.digest = digest.value();
    check.ok = true;
  } catch (const std::exception& e) {
    check.ok = false;
    check.error = std::string("reply rejected: ") + e.what();
  }
  return check;
}

bool KeyBook::observe(const std::string& key, std::uint64_t digest) {
  const auto [it, inserted] = reference_.emplace(key, digest);
  return inserted || it->second == digest;
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

int Tracer::add(const std::string& layer, int parent, std::uint64_t op,
                double start, double end) {
  spans_.push_back(Span{layer, parent, op, start, std::max(start, end)});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_seconds(std::size_t first) const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0) children[static_cast<std::size_t>(parent)].push_back(static_cast<int>(i));
  }
  std::map<std::string, double> self;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::vector<std::pair<double, double>> covered;
    for (int c : children[i]) {
      const Span& child = spans_[static_cast<std::size_t>(c)];
      const double lo = std::max(child.start, span.start);
      const double hi = std::min(child.end, span.end);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_length = 0.0;
    double reach = span.start;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) {
        union_length += hi - from;
        reach = hi;
      }
    }
    self[span.layer] += (span.end - span.start) - union_length;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  Json spans = Json::array();
  for (const Span& span : spans_) {
    Json row = Json::object();
    row["layer"] = span.layer;
    row["parent"] = span.parent;
    row["op"] = static_cast<std::int64_t>(span.op);
    row["start_s"] = span.start;
    row["end_s"] = span.end;
    spans.push_back(std::move(row));
  }
  Json root = Json::object();
  root["spans"] = std::move(spans);
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  pimcomp::json_to_file(root, path);
}

// ---------------------------------------------------------------------------
// Process probes.
// ---------------------------------------------------------------------------

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // "5": reset the peak RSS (Linux >= 4.0)
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

TempDir::TempDir(std::string path) : path_(std::move(path)) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

namespace {

void add_metric(std::vector<Metric>& metrics, std::string name, double value,
                std::string unit, std::size_t samples) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not a finite number");
  }
  metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

}  // namespace

void Report::add_end_to_end(std::string name, double value, std::string unit,
                            std::size_t samples) {
  add_metric(end_to_end, std::move(name), value, std::move(unit), samples);
}

void Report::add_per_layer(std::string name, double value, std::string unit,
                           std::size_t samples) {
  add_metric(per_layer, std::move(name), value, std::move(unit), samples);
}

void Report::add_detail(std::string name, double value, std::string unit,
                        std::size_t samples) {
  add_metric(detail, std::move(name), value, std::move(unit), samples);
}

void report_end_to_end(Report& report, const EndToEnd& measured) {
  if (measured.ops == 0) throw std::runtime_error("no operation was measured");
  report.add_end_to_end("setup_s", median(measured.setup_cpu_s), "s",
                        measured.setup_cpu_s.size());
  report.add_end_to_end("cpu_ms_per_op",
                        measured.op_cpu_s / static_cast<double>(measured.ops) * 1e3,
                        "ms", measured.ops);
  report.add_end_to_end("sim_latency_us", geomean(measured.ll_us), "us",
                        measured.ll_us.size());
  report.add_end_to_end("sim_throughput_ips", geomean(measured.ht_ips), "1/s",
                        measured.ht_ips.size());
  report.add_end_to_end("code_size_ops", geomean(measured.code_ops), "count",
                        measured.code_ops.size());
  report.add_end_to_end("peak_rss_mib", median(measured.peak_rss_mib), "MiB",
                        measured.peak_rss_mib.size());
}

void add_tail_detail(Report& report, const std::string& name,
                     const std::vector<double>& values, double q,
                     const std::string& unit) {
  if (samples_beyond(values.size(), q) < kMinBeyondTail) return;
  report.add_detail(name, tail_quantile(values, q), unit, values.size());
}

namespace {

void print_rows(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6g %-8s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

}  // namespace

void print_table(const RunConfig& config, const Report& report) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  print_rows("end-to-end:", report.end_to_end);
  print_rows("workload detail:", report.detail);
  print_rows("per-layer (traced):", report.per_layer);
  const double error_ratio =
      report.attempted == 0
          ? 1.0
          : static_cast<double>(report.failed) / static_cast<double>(report.attempted);
  std::printf("  %-30s %16.6g %-8s (n=%llu)\n", "error_ratio", error_ratio,
              "ratio", static_cast<unsigned long long>(report.attempted));
  std::printf("  %-30s %016llx\n", "result_digest",
              static_cast<unsigned long long>(report.result_digest));
  std::fflush(stdout);
}

Json result_line(const RunConfig& config, const Report& report) {
  Json metrics = Json::object();
  for (const Metric& m : config.trace ? report.per_layer : report.end_to_end) {
    Json entry = Json::object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[m.name] = std::move(entry);
  }
  Json line = Json::object();
  line["correct"] = report.failed == 0 && report.attempted > 0;
  line["attempted"] = static_cast<std::int64_t>(report.attempted);
  line["failed"] = static_cast<std::int64_t>(report.failed);
  line["metrics"] = std::move(metrics);
  return line;
}

}  // namespace perfbench
