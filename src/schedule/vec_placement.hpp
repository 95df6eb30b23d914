#ifndef PIMCOMP_SCHEDULE_VEC_PLACEMENT_HPP
#define PIMCOMP_SCHEDULE_VEC_PLACEMENT_HPP

#include <cstdint>
#include <vector>

#include "arch/hardware_config.hpp"
#include "graph/graph.hpp"
#include "partition/workload.hpp"

namespace pimcomp {

/// Per-inference VFU element cost of a non-crossbar node: how many scalar
/// element operations the vector unit performs to realize it. CONCAT and
/// FLATTEN are pure local-memory addressing (zero VFU cost).
std::int64_t vfu_elements(const Graph& graph, NodeId node);

/// True for ReLU nodes that directly consume a crossbar node's output; those
/// are fused into the producer's activation step (Algorithm 1 line 8 /
/// the LL forwarding path) instead of being scheduled separately.
bool is_fused_activation(const Graph& graph, NodeId node);

/// Input/output byte volumes of a node per inference at a given activation
/// precision (for HT global-memory staging of VEC nodes).
std::int64_t node_input_bytes(const Graph& graph, NodeId node,
                              const HardwareConfig& hw);
std::int64_t node_output_bytes(const Graph& graph, NodeId node,
                               const HardwareConfig& hw);

/// Non-crossbar, non-fused nodes in topological order (the "other
/// operations" Algorithm 1 line 10 distributes among cores). The HT
/// scheduler splits each into output-row slices (split_vec_node) and places
/// every slice on the core with the least estimated busy time.
std::vector<NodeId> standalone_vec_nodes(const Graph& graph);

/// The part of a standalone vector node that one core stages in HT mode:
/// LOAD `input_bytes`, run `elements` on the VFU, STORE `output_bytes`.
struct VecSlice {
  std::int64_t input_bytes = 0;
  std::int64_t elements = 0;
  std::int64_t output_bytes = 0;
};

/// Splits standalone node `node` into `slices` contiguous output-row slices,
/// 1 <= slices <= its output rows. VFU elements and output bytes are divided
/// exactly, so the slices sum to the whole node. A windowed pool's slice of
/// r rows loads its halo, (r-1)*stride + kernel input rows shifted by the
/// padding and clipped to the input; the first and last slices reach the
/// input's edges, so together the slices read all of it. Other nodes load
/// their share of the rows. One slice is the whole node.
std::vector<VecSlice> split_vec_node(const Graph& graph, NodeId node,
                                     int slices, const HardwareConfig& hw);

/// Total VFU elements of the VEC chain hanging off crossbar node `node`
/// downstream, up to (excluding) the next crossbar nodes. Shared chains
/// (e.g. an eltwise fed by two convolutions) split their cost evenly among
/// their crossbar providers, so summing over all partitions charges each
/// VEC node exactly once. Used by the LL scheduler, which executes VEC work
/// on the producer's replica cores (paper §IV-D2).
std::int64_t downstream_vec_elements(const Workload& workload, NodeId node);

}  // namespace pimcomp

#endif  // PIMCOMP_SCHEDULE_VEC_PLACEMENT_HPP
