#ifndef PIMCOMP_PARTITION_WORKLOAD_HPP
#define PIMCOMP_PARTITION_WORKLOAD_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "arch/hardware_config.hpp"
#include "common/error.hpp"
#include "graph/graph.hpp"
#include "partition/node_partitioner.hpp"

namespace pimcomp {

/// The complete node-partitioning stage output: per-crossbar-node partitions
/// plus aggregate capacity facts. This is the hand-off structure between
/// stage 1 (node partitioning) and stages 2+3 (replicating + mapping).
class Workload {
 public:
  /// Runs node partitioning over every CONV/FC node of a finalized graph.
  /// Throws CapacityError if even a single replica of every node exceeds
  /// the machine's total crossbar budget.
  Workload(const Graph& graph, const HardwareConfig& hw);

  const Graph& graph() const { return *graph_; }
  const HardwareConfig& hardware() const { return hw_; }

  /// Partitions in graph topological order (crossbar nodes only).
  const std::vector<NodePartition>& partitions() const { return partitions_; }
  int partition_count() const { return static_cast<int>(partitions_.size()); }

  /// Partition lookup by graph node id; throws if the node is not a
  /// crossbar node.
  const NodePartition& partition_of(NodeId node) const;
  bool has_partition(NodeId node) const;

  /// Dense partition index for a node id (-1 when not a crossbar node).
  /// Inline: the GA's mutation primitives call it per gene touched.
  int partition_index(NodeId node) const {
    const auto index = static_cast<std::size_t>(node);  // negative -> huge
    PIMCOMP_ASSERT(index < partition_index_.size(), "node id out of range");
    return partition_index_[index];
  }

  /// Crossbars required for exactly one replica of every node.
  std::int64_t min_xbars_required() const { return min_xbars_; }

  /// Total crossbars available on the configured hardware.
  std::int64_t total_xbars_available() const {
    return static_cast<std::int64_t>(hw_.core_count) * hw_.xbars_per_core;
  }

  /// Smallest core count (rounded up to whole chips) on which one replica of
  /// every node fits with `headroom` spare capacity factor (>= 1.0).
  int recommended_core_count(double headroom = 2.0) const;

  /// Crossbars for one replica of every node of a finalized graph, computed
  /// without materializing a Workload (capacity sizing probes). The result
  /// is independent of hw.core_count.
  static std::int64_t min_xbars_for(const Graph& graph,
                                    const HardwareConfig& hw);

  /// recommended_core_count() on a bare crossbar requirement.
  static int recommend_cores(std::int64_t min_xbars, const HardwareConfig& hw,
                             double headroom);

  /// Upper bound on useful replication for a node: replicas beyond the
  /// window count can never be busy.
  int max_replication(NodeId node) const;

  std::string to_string() const;

 private:
  const Graph* graph_;
  HardwareConfig hw_;
  std::vector<NodePartition> partitions_;
  std::vector<int> partition_index_;  // by node id, -1 for non-crossbar
  std::int64_t min_xbars_ = 0;
};

}  // namespace pimcomp

#endif  // PIMCOMP_PARTITION_WORKLOAD_HPP
