#include "schedule/vec_placement.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "graph/builder.hpp"
#include "graph/zoo/zoo.hpp"

namespace pimcomp {
namespace {

TEST(VfuElements, PerOperatorCosts) {
  GraphBuilder b("t", {4, 8, 8});
  const NodeId c = b.conv(b.input(), 8, 3, 1, 1);
  const NodeId r = b.relu(c);
  const NodeId p = b.max_pool(r, 2, 2);
  const NodeId g = b.global_avg_pool(p);
  const NodeId f = b.fc(b.flatten(g), 10);
  const NodeId s = b.softmax(f);
  Graph graph = b.build();

  EXPECT_EQ(vfu_elements(graph, r), 8 * 8 * 8);          // one op per element
  EXPECT_EQ(vfu_elements(graph, p), 8 * 4 * 4 * 2 * 2);  // kernel^2 per output
  EXPECT_EQ(vfu_elements(graph, g), 8 * 4 * 4);          // reads whole input
  EXPECT_EQ(vfu_elements(graph, s), 10 * 3);             // exp + sum + divide
  EXPECT_EQ(vfu_elements(graph, c), 0);                  // crossbar op
  EXPECT_EQ(vfu_elements(graph, f), 0);
}

TEST(VfuElements, EltwiseAndConcat) {
  GraphBuilder b("t", {4, 8, 8});
  const NodeId a = b.conv(b.input(), 8, 1);
  const NodeId c = b.conv(b.input(), 8, 1);
  const NodeId add = b.eltwise_add(a, c);
  const NodeId cat = b.concat({a, c});
  Graph graph = b.build();
  EXPECT_EQ(vfu_elements(graph, add), 8 * 8 * 8);  // (n-1) adds per element
  EXPECT_EQ(vfu_elements(graph, cat), 0);          // pure addressing
}

TEST(FusedActivation, OnlyDirectCrossbarConsumers) {
  GraphBuilder b("t", {4, 8, 8});
  const NodeId c = b.conv(b.input(), 8, 3, 1, 1);
  const NodeId r1 = b.relu(c);          // fused into the conv
  const NodeId p = b.max_pool(r1, 2, 2);
  const NodeId r2 = b.relu(p);          // NOT fused (consumes a pool)
  (void)r2;
  Graph graph = b.build();
  EXPECT_TRUE(is_fused_activation(graph, r1));
  EXPECT_FALSE(is_fused_activation(graph, r2));
  EXPECT_FALSE(is_fused_activation(graph, p));
}

TEST(StandaloneVecNodes, ExcludesFusedAndCrossbar) {
  Graph graph = zoo::resnet18(64);
  const std::vector<NodeId> standalone = standalone_vec_nodes(graph);
  for (NodeId id : standalone) {
    const Node& n = graph.node(id);
    EXPECT_FALSE(n.is_crossbar());
    EXPECT_NE(n.type, OpType::kInput);
    EXPECT_FALSE(is_fused_activation(graph, id));
  }
  // resnet18: the stem relu and each block's first-conv relu consume a
  // crossbar node directly and fuse (1 + 8 = 9); the post-add relus consume
  // eltwise nodes and stay standalone. 51 nodes - 21 crossbar - 1 input -
  // 9 fused = 20 standalone VEC nodes.
  int fused = 0;
  for (const Node& n : graph.nodes()) {
    if (is_fused_activation(graph, n.id)) ++fused;
  }
  EXPECT_EQ(fused, 9);
  EXPECT_EQ(standalone.size(), 20u);
}

TEST(NodeBytes, InputAndOutputVolumes) {
  GraphBuilder b("t", {4, 8, 8});
  const NodeId a = b.conv(b.input(), 8, 1);
  const NodeId c = b.conv(b.input(), 8, 1);
  const NodeId add = b.eltwise_add(a, c);
  Graph graph = b.build();
  const HardwareConfig hw = HardwareConfig::puma_default();
  // Two 8x8x8 16-bit operands in, one out.
  EXPECT_EQ(node_input_bytes(graph, add, hw), 2 * 8 * 8 * 8 * 2);
  EXPECT_EQ(node_output_bytes(graph, add, hw), 8 * 8 * 8 * 2);
}

TEST(SplitVecNode, PoolSlicesLoadTheirHaloRows) {
  // 3x3 stride-2 pad-1 max pool: 8 input rows -> 4 output rows.
  GraphBuilder b("t", {4, 8, 8});
  const NodeId c = b.conv(b.input(), 8, 1);
  const NodeId p = b.max_pool(c, 3, 2, 1);
  Graph graph = b.build();
  const HardwareConfig hw = HardwareConfig::puma_default();
  const std::int64_t row_bytes = 8 * 8 * 2;  // one input row, 16-bit

  const std::vector<VecSlice> whole = split_vec_node(graph, p, 1, hw);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].input_bytes, node_input_bytes(graph, p, hw));
  EXPECT_EQ(whole[0].elements, vfu_elements(graph, p));
  EXPECT_EQ(whole[0].output_bytes, node_output_bytes(graph, p, hw));

  // Output rows [0,2) read input rows [0,4); rows [2,4) read [3,8): row 3
  // is the halo both windows share.
  const std::vector<VecSlice> two = split_vec_node(graph, p, 2, hw);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].input_bytes, 4 * row_bytes);
  EXPECT_EQ(two[1].input_bytes, 5 * row_bytes);
  EXPECT_EQ(two[0].elements + two[1].elements, vfu_elements(graph, p));
  EXPECT_EQ(two[0].output_bytes, two[1].output_bytes);

  // Three slices of four rows divide the totals exactly, not evenly.
  const std::vector<VecSlice> three = split_vec_node(graph, p, 3, hw);
  std::int64_t elements = 0, output_bytes = 0;
  for (const VecSlice& slice : three) {
    elements += slice.elements;
    output_bytes += slice.output_bytes;
  }
  EXPECT_EQ(elements, vfu_elements(graph, p));
  EXPECT_EQ(output_bytes, node_output_bytes(graph, p, hw));
  EXPECT_THROW(split_vec_node(graph, p, 5, hw), ConfigError);
}

TEST(SplitVecNode, EltwiseSlicesLoadTheirShareOfBothOperands) {
  GraphBuilder b("t", {4, 8, 8});
  const NodeId a = b.conv(b.input(), 8, 1);
  const NodeId c = b.conv(b.input(), 8, 1);
  const NodeId add = b.eltwise_add(a, c);
  Graph graph = b.build();
  const HardwareConfig hw = HardwareConfig::puma_default();
  const std::vector<VecSlice> slices = split_vec_node(graph, add, 4, hw);
  ASSERT_EQ(slices.size(), 4u);
  for (const VecSlice& slice : slices) {
    EXPECT_EQ(slice.input_bytes, node_input_bytes(graph, add, hw) / 4);
    EXPECT_EQ(slice.elements, vfu_elements(graph, add) / 4);
  }
}

TEST(DownstreamVecElements, ChargesEachVecNodeOnce) {
  // Residual block: conv_a and conv_b feed an eltwise + relu; each conv is
  // charged half of the shared chain, so the sum over convs equals the
  // total VEC work.
  GraphBuilder b("t", {4, 8, 8});
  const NodeId a = b.conv(b.input(), 8, 3, 1, 1, "a");
  const NodeId c = b.conv(b.input(), 8, 3, 1, 1, "c");
  const NodeId add = b.eltwise_add(a, c);
  const NodeId r = b.relu(add);
  const NodeId d = b.conv(r, 8, 3, 1, 1, "d");
  (void)d;
  Graph graph = b.build();
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = 36;
  const Workload w(graph, hw);

  const std::int64_t from_a = downstream_vec_elements(w, a);
  const std::int64_t from_c = downstream_vec_elements(w, c);
  const std::int64_t chain_total =
      vfu_elements(graph, add) + vfu_elements(graph, r);
  EXPECT_EQ(from_a, from_c);
  EXPECT_NEAR(static_cast<double>(from_a + from_c),
              static_cast<double>(chain_total), 2.0);
  // d has no VEC consumers.
  EXPECT_EQ(downstream_vec_elements(w, d), 0);
}

TEST(DownstreamVecElements, StopsAtNextCrossbarLayer) {
  GraphBuilder b("t", {4, 8, 8});
  const NodeId a = b.conv_relu(b.input(), 8, 3, 1, 1, "a");
  const NodeId d = b.conv(a, 8, 3, 1, 1, "d");
  const NodeId r2 = b.relu(d);
  (void)r2;
  Graph graph = b.build();
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = 36;
  const Workload w(graph, hw);
  // a's chain covers only its own fused relu, not d's.
  const NodeId conv_a = 1;
  EXPECT_EQ(downstream_vec_elements(w, conv_a), 8 * 8 * 8);
}

}  // namespace
}  // namespace pimcomp
