#include "schedule/vec_placement.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace pimcomp {

std::int64_t vfu_elements(const Graph& graph, NodeId node_id) {
  const Node& node = graph.node(node_id);
  const std::int64_t out = node.output_shape.elements();
  switch (node.type) {
    case OpType::kRelu:
      return out;
    case OpType::kPool: {
      if (node.pool.kind == PoolKind::kGlobalAverage) {
        return graph.node(node.inputs[0]).output_shape.elements();
      }
      return out * node.pool.kernel * node.pool.kernel;
    }
    case OpType::kEltwise:
      return out * static_cast<std::int64_t>(node.inputs.size() - 1);
    case OpType::kSoftmax:
      // exp + sum + divide passes.
      return out * 3;
    case OpType::kConcat:
    case OpType::kFlatten:
      return 0;  // realized by local-memory addressing
    case OpType::kInput:
    case OpType::kConv:
    case OpType::kFC:
      return 0;
  }
  return 0;
}

bool is_fused_activation(const Graph& graph, NodeId node_id) {
  const Node& node = graph.node(node_id);
  if (node.type != OpType::kRelu) return false;
  return graph.node(node.inputs[0]).is_crossbar();
}

std::int64_t node_input_bytes(const Graph& graph, NodeId node_id,
                              const HardwareConfig& hw) {
  const Node& node = graph.node(node_id);
  std::int64_t total = 0;
  for (NodeId in : node.inputs) {
    total += graph.node(in).output_shape.bytes(hw.activation_bits);
  }
  return total;
}

std::int64_t node_output_bytes(const Graph& graph, NodeId node_id,
                               const HardwareConfig& hw) {
  return graph.node(node_id).output_shape.bytes(hw.activation_bits);
}

std::vector<NodeId> standalone_vec_nodes(const Graph& graph) {
  std::vector<NodeId> nodes;
  for (const Node& node : graph.nodes()) {
    if (node.type == OpType::kInput || node.is_crossbar()) continue;
    if (is_fused_activation(graph, node.id)) continue;
    nodes.push_back(node.id);
  }
  return nodes;
}

namespace {

/// floor(total * row / rows) without overflow, for 0 <= row <= rows: the
/// prefix that divides `total` exactly among row ranges.
std::int64_t row_prefix(std::int64_t total, int row, int rows) {
  return total / rows * row + total % rows * row / rows;
}

/// Counts the crossbar nodes that reach `node` through non-crossbar ops
/// (the producers that share a VEC node's cost).
int crossbar_provider_count(const Graph& graph, NodeId node_id) {
  int count = 0;
  std::vector<NodeId> work = graph.node(node_id).inputs;
  std::vector<bool> seen(static_cast<std::size_t>(graph.node_count()), false);
  while (!work.empty()) {
    const NodeId current = work.back();
    work.pop_back();
    if (seen[static_cast<std::size_t>(current)]) continue;
    seen[static_cast<std::size_t>(current)] = true;
    const Node& n = graph.node(current);
    if (n.is_crossbar() || n.type == OpType::kInput) {
      ++count;
      continue;
    }
    for (NodeId in : n.inputs) work.push_back(in);
  }
  return count == 0 ? 1 : count;
}

}  // namespace

std::vector<VecSlice> split_vec_node(const Graph& graph, NodeId node_id,
                                     int slices, const HardwareConfig& hw) {
  const Node& node = graph.node(node_id);
  const int rows = node.output_shape.height;
  PIMCOMP_CHECK(slices >= 1 && slices <= rows,
                "a vector node splits into 1..output-rows slices");
  const std::int64_t in_bytes = node_input_bytes(graph, node_id, hw);
  const std::int64_t elems = vfu_elements(graph, node_id);
  const std::int64_t out_bytes = node_output_bytes(graph, node_id, hw);
  const bool windowed =
      node.type == OpType::kPool && node.pool.kind != PoolKind::kGlobalAverage;
  std::vector<VecSlice> result;
  result.reserve(static_cast<std::size_t>(slices));
  for (int i = 0; i < slices; ++i) {
    const int begin = static_cast<int>(row_prefix(rows, i, slices));
    const int end = static_cast<int>(row_prefix(rows, i + 1, slices));
    VecSlice slice;
    slice.elements =
        row_prefix(elems, end, rows) - row_prefix(elems, begin, rows);
    slice.output_bytes =
        row_prefix(out_bytes, end, rows) - row_prefix(out_bytes, begin, rows);
    if (windowed) {
      const TensorShape in = graph.node(node.inputs[0]).output_shape;
      const PoolAttrs& pool = node.pool;
      // A stride wider than the kernel skips rows; reading up to the next
      // slice's first row keeps the slices' union the whole input.
      const int first =
          i == 0 ? 0 : std::max(0, begin * pool.stride - pool.padding);
      const int last =
          i == slices - 1
              ? in.height
              : std::min(in.height, (end - 1) * pool.stride - pool.padding +
                                        std::max(pool.kernel, pool.stride));
      slice.input_bytes =
          TensorShape(in.channels, std::max(0, last - first), in.width)
              .bytes(hw.activation_bits);
    } else {
      slice.input_bytes =
          row_prefix(in_bytes, end, rows) - row_prefix(in_bytes, begin, rows);
    }
    result.push_back(slice);
  }
  return result;
}

std::int64_t downstream_vec_elements(const Workload& workload, NodeId node_id) {
  const Graph& graph = workload.graph();
  PIMCOMP_CHECK(graph.node(node_id).is_crossbar(),
                "downstream_vec_elements expects a crossbar node");
  double total = 0.0;
  std::vector<NodeId> work{node_id};
  std::vector<bool> seen(static_cast<std::size_t>(graph.node_count()), false);
  while (!work.empty()) {
    const NodeId current = work.back();
    work.pop_back();
    for (NodeId consumer : graph.consumers(current)) {
      if (seen[static_cast<std::size_t>(consumer)]) continue;
      seen[static_cast<std::size_t>(consumer)] = true;
      const Node& c = graph.node(consumer);
      if (c.is_crossbar()) continue;  // stop at the next crossbar layer
      total += static_cast<double>(vfu_elements(graph, consumer)) /
               crossbar_provider_count(graph, consumer);
      work.push_back(consumer);
    }
  }
  return static_cast<std::int64_t>(total);
}

}  // namespace pimcomp
