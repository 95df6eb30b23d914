#ifndef PIMCOMP_PERFBENCH_WORKLOADS_HPP
#define PIMCOMP_PERFBENCH_WORKLOADS_HPP

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "harness.hpp"

namespace perfbench {

// Each workload measures for config.seconds (and at least until its tail
// percentile is supported), checks every output, and — in a traced run —
// records spans into `tracer` and fills the per-layer metrics.

/// compile-cold: the paper's compile set, in process, one fresh session per
/// model, paper GA budget.
Report run_compile_cold(const RunConfig& config, Tracer& tracer);

/// serve-mix: one in-process daemon, two closed-loop clients, a skewed key
/// pool (mostly memory hits, a stated share of first-seen keys).
Report run_serve_mix(const RunConfig& config, Tracer& tracer);

/// fleet-tiers: daemon A warmed with instruction-stream artifacts, daemon B
/// (peer A) behind a router; remote, disk and memory hits in turn.
Report run_fleet_tiers(const RunConfig& config, Tracer& tracer);

// ---------------------------------------------------------------------------
// Shared by the workloads.
// ---------------------------------------------------------------------------

/// Every per-layer metric, in print order, with its unit. Each workload
/// fills the ones its layers produce; the rest read 0 (the layer does no
/// work there).
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

/// Per-layer values of one workload, keyed by catalog name.
class LayerValues {
 public:
  void set(const std::string& name, double value, std::size_t samples);
  /// Copies every catalog metric into the report (0 where unset).
  void emit(Report& report) const;

 private:
  std::map<std::string, std::pair<double, std::size_t>> values_;
};

/// Layer name of a pipeline stage ("partitioning" -> "partition", ...).
std::string layer_of_stage(const std::string& stage);

/// Median of per-round totals; 0 when no round was traced.
double median_or_zero(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PIMCOMP_PERFBENCH_WORKLOADS_HPP
