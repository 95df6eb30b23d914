#include "mapping/puma_mapper.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
// pimcomp-layer-exempt: self-registration into the mapper registry — the
// plugin seam every strategy TU uses, not a dependency on core logic.
#include "core/pipeline.hpp"

namespace pimcomp {

std::vector<int> PumaMapper::balanced_replication(const Workload& workload,
                                                  double utilization) {
  const auto budget = static_cast<std::int64_t>(
      utilization * static_cast<double>(workload.total_xbars_available()));

  auto xbars_needed = [&](int target_cycles) {
    std::int64_t total = 0;
    for (const NodePartition& p : workload.partitions()) {
      const int replicas =
          std::min(p.windows, ceil_div(p.windows, target_cycles));
      total += static_cast<std::int64_t>(replicas) * p.xbars_per_replica();
    }
    return total;
  };

  int max_windows = 1;
  for (const NodePartition& p : workload.partitions()) {
    max_windows = std::max(max_windows, p.windows);
  }

  // Binary search the smallest per-replica cycle target that fits: fewer
  // cycles per replica => more replicas => more crossbars.
  int lo = 1;                 // perfectly balanced (every replica 1 cycle)
  int hi = max_windows;       // no replication
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (xbars_needed(mid) <= budget) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }

  std::vector<int> replication;
  replication.reserve(static_cast<std::size_t>(workload.partition_count()));
  for (const NodePartition& p : workload.partitions()) {
    replication.push_back(std::min(p.windows, ceil_div(p.windows, lo)));
  }
  return replication;
}

MappingSolution PumaMapper::map(const Workload& workload,
                                const MapperOptions& options) {
  const std::vector<int> replication =
      balanced_replication(workload, utilization_);

  MappingSolution solution(workload, options.max_nodes_per_core);
  // Greedy sequential packing: nodes in topological order, AGs into the
  // first core with space. This reproduces PUMA's uneven allocation — early
  // cores fill up and run long while late cores idle (paper §V-B2).
  int cursor = 0;
  const int cores = solution.core_count();
  std::vector<int> hosts;
  for (int i = 0; i < workload.partition_count(); ++i) {
    const NodePartition& p =
        workload.partitions()[static_cast<std::size_t>(i)];
    const int total_ags =
        replication[static_cast<std::size_t>(i)] * p.ags_per_replica();
    for (int ag = 0; ag < total_ags; ++ag) {
      bool placed = false;
      for (int step = 0; step < cores; ++step) {
        const int c = (cursor + step) % cores;
        if (solution.can_add(c, p.node, 1)) {
          solution.add(c, p.node, 1);
          // Stay on this core until it is full (sequential fill).
          cursor = c;
          placed = true;
          break;
        }
      }
      if (!placed) {
        // Resource pressure from balancing: drop whole replicas of this
        // node until what remains fits (but never below one replica).
        const int keep_ags = solution.total_ags(p.node);
        const int whole_replicas = keep_ags / p.ags_per_replica();
        if (whole_replicas >= 1) {
          const int excess = keep_ags - whole_replicas * p.ags_per_replica();
          if (excess > 0) {
            solution.cores_of(p.node, hosts);
            for (int c : hosts) {
              const int removed = solution.remove(
                  c, p.node, excess - (keep_ags - solution.total_ags(p.node)));
              if (removed > 0 &&
                  solution.total_ags(p.node) ==
                      whole_replicas * p.ags_per_replica()) {
                break;
              }
            }
          }
          break;  // accept fewer replicas for this node
        }
        throw CapacityError(
            "puma-like mapper could not place one replica of node " +
            std::to_string(p.node));
      }
    }
  }
  solution.validate();
  return solution;
}

PIMCOMP_REGISTER_MAPPER("puma", [](const CompileOptions&) {
  return std::make_unique<PumaMapper>();
});

}  // namespace pimcomp
