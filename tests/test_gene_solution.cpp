#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "graph/builder.hpp"
#include "graph/zoo/zoo.hpp"
#include "mapping/gene.hpp"
#include "mapping/mapping_solution.hpp"

namespace pimcomp {
namespace {

TEST(Gene, PaperEncodingExample) {
  // "1030025 represents 25 AGs of the 103rd node" (paper §IV-C1).
  const Gene g{103, 25};
  EXPECT_EQ(encode_gene(g), 1030025);
  const Gene back = decode_gene(1030025);
  EXPECT_EQ(back.node, 103);
  EXPECT_EQ(back.ag_count, 25);
}

TEST(Gene, EmptySlotIsZero) {
  EXPECT_EQ(encode_gene(Gene{}), 0);
  const Gene empty = decode_gene(0);
  EXPECT_EQ(empty.node, -1);
  EXPECT_EQ(empty.ag_count, 0);
}

TEST(Gene, RejectsOutOfRangeCounts) {
  EXPECT_THROW(encode_gene(Gene{1, 10000}), ConfigError);
  EXPECT_THROW(encode_gene(Gene{1, -3}), ConfigError);
  EXPECT_NO_THROW(encode_gene(Gene{1, kMaxAgCountPerGene}));
  EXPECT_THROW(decode_gene(-5), ConfigError);
  EXPECT_THROW(decode_gene(30000), ConfigError);  // zero ag_count
}

class SolutionTest : public ::testing::Test {
 protected:
  SolutionTest()
      : graph_(zoo::squeezenet(64)), hw_(HardwareConfig::puma_default()) {
    hw_.core_count = 36;
    workload_ = std::make_unique<Workload>(graph_, hw_);
  }

  Graph graph_;
  HardwareConfig hw_;
  std::unique_ptr<Workload> workload_;
};

TEST_F(SolutionTest, AddMergesIntoOneGenePerNodePerCore) {
  MappingSolution s(*workload_, 8);
  const NodeId node = workload_->partitions()[0].node;
  ASSERT_TRUE(s.can_add(0, node, 1));
  s.add(0, node, 1);
  s.add(0, node, 2);
  EXPECT_EQ(s.gene_count(0), 1);
  EXPECT_EQ(s.genes(0)[0].ag_count, 3);
  EXPECT_EQ(s.total_ags(node), 3);
}

TEST_F(SolutionTest, CapacityEnforced) {
  MappingSolution s(*workload_, 8);
  const NodePartition& p = workload_->partitions()[0];
  const int fit = hw_.xbars_per_core / p.xbars_per_ag;
  EXPECT_TRUE(s.can_add(0, p.node, fit));
  EXPECT_FALSE(s.can_add(0, p.node, fit + 1));
  s.add(0, p.node, fit);
  EXPECT_FALSE(s.can_add(0, p.node, 1));
  EXPECT_EQ(s.free_xbars(0), hw_.xbars_per_core - fit * p.xbars_per_ag);
}

TEST_F(SolutionTest, NodeSlotBoundEnforced) {
  MappingSolution s(*workload_, 2);
  s.add(0, workload_->partitions()[0].node, 1);
  s.add(0, workload_->partitions()[1].node, 1);
  const NodeId extra = workload_->partitions()[2].node;
  EXPECT_FALSE(s.can_add(0, extra, 1));
  EXPECT_THROW(s.add(0, extra, 1), ConfigError);
  EXPECT_EQ(s.gene_count(0), 2);
  // Existing nodes can still grow, and the full core's slots do not spill
  // into its neighbour's.
  EXPECT_TRUE(s.can_add(0, workload_->partitions()[0].node, 1));
  EXPECT_EQ(s.gene_count(1), 0);
  EXPECT_TRUE(s.can_add(1, extra, 1));
}

TEST_F(SolutionTest, RemoveReturnsActualCount) {
  MappingSolution s(*workload_, 8);
  const NodeId node = workload_->partitions()[0].node;
  s.add(0, node, 3);
  EXPECT_EQ(s.remove(0, node, 2), 2);
  EXPECT_EQ(s.remove(0, node, 5), 1);  // only one left
  EXPECT_EQ(s.remove(0, node, 1), 0);  // gene gone
  EXPECT_EQ(s.gene_count(0), 0);
}

TEST_F(SolutionTest, ReplicationAndCycles) {
  MappingSolution s(*workload_, 8);
  const NodePartition& p = workload_->partitions()[0];
  s.add(0, p.node, p.ags_per_replica());
  EXPECT_EQ(s.replication(p.node), 1);
  EXPECT_EQ(s.cycles(p.node), p.windows);
  s.add(1, p.node, p.ags_per_replica());
  EXPECT_EQ(s.replication(p.node), 2);
  EXPECT_EQ(s.cycles(p.node), (p.windows + 1) / 2);
}

TEST_F(SolutionTest, ValidateCatchesMissingReplicas) {
  MappingSolution s(*workload_, 8);
  // Give only the first node a replica; everything else is missing.
  s.add(0, workload_->partitions()[0].node,
        workload_->partitions()[0].ags_per_replica());
  EXPECT_THROW(s.validate(), Error);
}

TEST_F(SolutionTest, ValidateCatchesPartialReplicaTotals) {
  MappingSolution s(*workload_, 8);
  for (const NodePartition& p : workload_->partitions()) {
    int remaining = p.ags_per_replica();
    int guard = 0;
    for (int c = 0; remaining > 0; ++c) {
      ASSERT_LT(++guard, 100000) << "placement did not converge";
      int add = std::min(remaining, 4);
      while (add > 0 && !s.can_add(c % 36, p.node, add)) --add;
      if (add > 0) {
        s.add(c % 36, p.node, add);
        remaining -= add;
      }
    }
  }
  EXPECT_NO_THROW(s.validate());
  // Now break one node's total.
  const NodePartition& p0 = workload_->partitions()[0];
  if (p0.ags_per_replica() > 1) {
    for (int c = 0; c < 36; ++c) {
      if (s.remove(c, p0.node, 1) == 1) break;
    }
    EXPECT_THROW(s.validate(), Error);
  }
}

TEST_F(SolutionTest, EncodeDecodeRoundTrip) {
  MappingSolution s(*workload_, 8);
  for (const NodePartition& p : workload_->partitions()) {
    int remaining = p.ags_per_replica();
    int core = p.node % 36;
    int guard = 0;
    while (remaining > 0) {
      ASSERT_LT(++guard, 100000) << "placement did not converge";
      int add = std::min(remaining, 3);
      while (add > 0 && !s.can_add(core, p.node, add)) --add;
      if (add > 0) {
        s.add(core, p.node, add);
        remaining -= add;
      } else {
        core = (core + 1) % 36;
      }
    }
  }
  const std::vector<std::int64_t> chromosome = s.encode();
  EXPECT_EQ(chromosome.size(), 36u * 8u);
  MappingSolution restored = MappingSolution::decode(*workload_, 8, chromosome);
  EXPECT_EQ(restored.encode(), chromosome);
  for (const NodePartition& p : workload_->partitions()) {
    EXPECT_EQ(restored.total_ags(p.node), s.total_ags(p.node));
  }
}

TEST_F(SolutionTest, InstantiateKeepsWholeReplicasLocal) {
  MappingSolution s(*workload_, 8);
  std::vector<bool> whole_replica(
      static_cast<std::size_t>(graph_.node_count()), false);
  for (const NodePartition& p : workload_->partitions()) {
    // Two whole replicas on distinct cores where one fits a core; nodes
    // whose replica exceeds a core's crossbars scatter AG by AG.
    if (p.xbars_per_replica() <= hw_.xbars_per_core) {
      int placed = 0;
      for (int c = 0; c < 36 && placed < 2; ++c) {
        if (s.can_add(c, p.node, p.ags_per_replica())) {
          s.add(c, p.node, p.ags_per_replica());
          ++placed;
        }
      }
      ASSERT_GE(placed, 1);
      whole_replica[static_cast<std::size_t>(p.node)] = true;
    } else {
      int remaining = p.ags_per_replica();
      int guard = 0;
      for (int c = 0; remaining > 0; ++c) {
        ASSERT_LT(++guard, 100000);
        if (s.can_add(c % 36, p.node, 1)) {
          s.add(c % 36, p.node, 1);
          --remaining;
        }
      }
    }
  }
  const std::vector<AgInstance> instances = s.instantiate();
  // Whole-replica nodes: every (replica, chunk) accumulation group must
  // live on exactly one core (instantiate's pass-1 guarantee).
  std::map<std::tuple<NodeId, int, int>, int> group_core;
  for (const AgInstance& ag : instances) {
    if (!whole_replica[static_cast<std::size_t>(ag.node)]) continue;
    const auto key = std::make_tuple(ag.node, ag.replica, ag.col_chunk);
    auto it = group_core.find(key);
    if (it == group_core.end()) {
      group_core[key] = ag.core;
    } else {
      EXPECT_EQ(it->second, ag.core) << "scattered group for node " << ag.node;
    }
  }
}

TEST_F(SolutionTest, InstantiateCountsMatchTotals) {
  MappingSolution s(*workload_, 8);
  for (const NodePartition& p : workload_->partitions()) {
    int remaining = 2 * p.ags_per_replica();
    int guard = 0;
    for (int c = 0; remaining > 0; ++c) {
      ASSERT_LT(++guard, 100000) << "placement did not converge";
      int add = std::min(remaining, 2);
      while (add > 0 && !s.can_add(c % 36, p.node, add)) --add;
      if (add > 0) {
        s.add(c % 36, p.node, add);
        remaining -= add;
      }
    }
    ASSERT_EQ(remaining, 0);
  }
  const auto instances = s.instantiate();
  std::map<NodeId, int> counts;
  for (const AgInstance& ag : instances) ++counts[ag.node];
  for (const NodePartition& p : workload_->partitions()) {
    EXPECT_EQ(counts[p.node], s.total_ags(p.node));
    EXPECT_EQ(counts[p.node], 2 * p.ags_per_replica());
  }
}

// --- Flat gene storage ------------------------------------------------------
// Genes live in one core-major buffer (max_nodes_per_core slots per core);
// the GA copy-assigns solutions into recycled buffers, so the slot order
// and the reuse of freed slots are behaviour, not layout trivia: mutation
// picks, encode() slots and the evaluator's gather all follow it.

TEST_F(SolutionTest, RemovingMiddleGeneKeepsSurvivorOrder) {
  MappingSolution s(*workload_, 8);
  const NodeId a = workload_->partitions()[0].node;
  const NodeId b = workload_->partitions()[1].node;
  const NodeId c = workload_->partitions()[2].node;
  s.add(0, a, 1);
  s.add(0, b, 2);
  s.add(0, c, 3);
  EXPECT_EQ(s.remove(0, b, 2), 2);
  ASSERT_EQ(s.gene_count(0), 2);
  EXPECT_EQ(s.genes(0)[0], (Gene{a, 1}));
  EXPECT_EQ(s.genes(0)[1], (Gene{c, 3}));
  const std::vector<std::int64_t> chromosome = s.encode();
  EXPECT_EQ(chromosome[0], encode_gene(Gene{a, 1}));
  EXPECT_EQ(chromosome[1], encode_gene(Gene{c, 3}));
  EXPECT_EQ(chromosome[2], 0);
}

TEST_F(SolutionTest, FreedSlotIsReusedByAdd) {
  MappingSolution s(*workload_, 2);
  const NodeId a = workload_->partitions()[0].node;
  const NodeId b = workload_->partitions()[1].node;
  const NodeId c = workload_->partitions()[2].node;
  s.add(0, a, 1);
  s.add(0, b, 1);
  ASSERT_FALSE(s.can_add(0, c, 1));
  EXPECT_EQ(s.remove(0, a, 1), 1);
  ASSERT_TRUE(s.can_add(0, c, 1));
  s.add(0, c, 1);
  ASSERT_EQ(s.gene_count(0), 2);
  EXPECT_EQ(s.genes(0)[0].node, b);
  EXPECT_EQ(s.genes(0)[1].node, c);
  EXPECT_EQ(s.xbars_used(0), workload_->partition_of(b).xbars_per_ag +
                                 workload_->partition_of(c).xbars_per_ag);
}

TEST_F(SolutionTest, CopyAssignOntoSameWorkloadGivesEqualEncode) {
  MappingSolution source(*workload_, 8);
  MappingSolution target(*workload_, 8);
  for (const NodePartition& p : workload_->partitions()) {
    for (int c = 0; c < 36; ++c) {
      if (source.can_add(c, p.node, 1)) {
        source.add(c, p.node, 1);
        break;
      }
    }
  }
  target.add(5, workload_->partitions()[0].node, 2);
  target = source;
  EXPECT_EQ(target.encode(), source.encode());
  for (const NodePartition& p : workload_->partitions()) {
    EXPECT_EQ(target.total_ags(p.node), source.total_ags(p.node));
  }
  for (int c = 0; c < 36; ++c) {
    EXPECT_EQ(target.xbars_used(c), source.xbars_used(c));
  }
  // The copy owns its storage: mutating it leaves the source untouched.
  const std::vector<std::int64_t> before = source.encode();
  target.remove(target.cores_of(workload_->partitions()[0].node).front(),
                workload_->partitions()[0].node, 1);
  EXPECT_EQ(source.encode(), before);
}

TEST_F(SolutionTest, CoresOfOutParamClearsFirst) {
  MappingSolution s(*workload_, 8);
  const NodeId node = workload_->partitions()[0].node;
  s.add(3, node, 1);
  s.add(0, node, 1);
  std::vector<int> out = {99, 98, 97};
  s.cores_of(node, out);
  EXPECT_EQ(out, (std::vector<int>{0, 3}));
  EXPECT_EQ(out, s.cores_of(node));
  s.cores_of(workload_->partitions()[1].node, out);
  EXPECT_TRUE(out.empty());
}

TEST_F(SolutionTest, ValidateCatchesStaleCrossbarCache) {
  MappingSolution s(*workload_, 8);
  for (const NodePartition& p : workload_->partitions()) {
    int remaining = p.ags_per_replica();
    int guard = 0;
    for (int c = 0; remaining > 0; ++c) {
      ASSERT_LT(++guard, 100000) << "placement did not converge";
      if (s.can_add(c % 36, p.node, 1)) {
        s.add(c % 36, p.node, 1);
        --remaining;
      }
    }
  }
  ASSERT_NO_THROW(s.validate());
  // Re-partition the workload under the solution with half-width crossbars:
  // every AG now spans more crossbars than the per-core cache recorded.
  HardwareConfig narrow = hw_;
  narrow.xbar_cols /= 2;
  *workload_ = Workload(graph_, narrow);
  try {
    s.validate();
    FAIL() << "validate() accepted a stale crossbar cache";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("crossbar cache is stale"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SolutionTest, ValidateCatchesStaleHostIndex) {
  // Node 2 is a convolution in both graphs, but the second crossbar node in
  // `before` and the first in `after`: swapping the workload under the
  // solution moves the node's host-index row while its genes stay put.
  GraphBuilder before_builder("before", {16, 8, 8});
  NodeId x = before_builder.conv(before_builder.input(), 16, 3, 1, 1);
  x = before_builder.conv(x, 16, 3, 1, 1);
  before_builder.relu(x);
  const Graph before = before_builder.build();
  GraphBuilder after_builder("after", {16, 8, 8});
  NodeId y = after_builder.relu(after_builder.input());
  y = after_builder.conv(y, 16, 3, 1, 1);
  after_builder.conv(y, 16, 3, 1, 1);
  const Graph after = after_builder.build();

  Workload workload(before, hw_);
  ASSERT_EQ(workload.partition_index(2), 1);
  MappingSolution s(workload, 8);
  for (const NodePartition& p : workload.partitions()) {
    s.add(p.node, p.node, p.ags_per_replica());  // node n on core n
  }
  ASSERT_NO_THROW(s.validate());
  s.remove(1, 1, workload.partition_of(1).ags_per_replica());

  workload = Workload(after, hw_);
  ASSERT_EQ(workload.partition_index(2), 0);
  try {
    s.validate();
    FAIL() << "validate() accepted a stale host-core index";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("host-core index is stale"),
              std::string::npos)
        << e.what();
  }
}

/// Reference answers for the host-core index, by scanning genes(core).
bool scanned_has_node(const MappingSolution& s, int core, NodeId node) {
  for (const Gene& g : s.genes(core)) {
    if (g.node == node) return true;
  }
  return false;
}

std::vector<int> scanned_cores_of(const MappingSolution& s, NodeId node) {
  std::vector<int> cores;
  for (int c = 0; c < s.core_count(); ++c) {
    if (scanned_has_node(s, c, node)) cores.push_back(c);
  }
  return cores;
}

bool scanned_can_add(const MappingSolution& s, int core, NodeId node,
                     int ag_count) {
  const NodePartition& p = s.workload().partition_of(node);
  if (s.xbars_used(core) + ag_count * p.xbars_per_ag >
      s.workload().hardware().xbars_per_core) {
    return false;
  }
  if (!scanned_has_node(s, core, node) &&
      s.gene_count(core) >= s.max_nodes_per_core()) {
    return false;
  }
  for (const Gene& g : s.genes(core)) {
    if (g.node == node && g.ag_count + ag_count > kMaxAgCountPerGene) {
      return false;
    }
  }
  return true;
}

TEST(SolutionHostIndex, MatchesGeneScansAcrossWordBoundaries) {
  const Graph graph = zoo::squeezenet(64);
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = 150;  // three index words per row
  const Workload workload(graph, hw);
  // Cores on either side of each word boundary, drawn 70% of the time.
  const std::vector<int> edges = {0, 1, 62, 63, 64, 65, 126, 127, 128, 149};

  std::vector<MappingSolution> solutions(2, MappingSolution(workload, 3));
  Rng rng(20261017);
  std::vector<int> out;
  int adds = 0;
  int removes = 0;
  int copies = 0;
  int boundary_adds = 0;  // on cores 63, 64, 127 and 128
  for (int step = 0; step < 4000; ++step) {
    MappingSolution& s =
        solutions[static_cast<std::size_t>(rng.uniform_int(2))];
    int core = rng.uniform_int(hw.core_count);
    if (rng.bernoulli(0.7)) {
      core = edges[static_cast<std::size_t>(rng.pick_index(edges))];
    }
    const int part = rng.uniform_int(workload.partition_count());
    NodeId node = workload.partitions()[static_cast<std::size_t>(part)].node;
    const int ags = rng.uniform_range(1, 3);
    const int op = rng.uniform_int(20);
    if (op == 0) {
      solutions[0] = solutions[1];  // copy-assign reuses the target's storage
      ++copies;
    } else if (op < 8) {
      const std::span<const Gene> genes = s.genes(core);
      if (!genes.empty()) {
        node = genes[static_cast<std::size_t>(rng.pick_index(genes))].node;
      }
      removes += s.remove(core, node, ags) > 0 ? 1 : 0;
    } else if (s.can_add(core, node, ags)) {
      s.add(core, node, ags);
      ++adds;
      if (core % 64 == 63 || (core % 64 == 0 && core > 0)) ++boundary_adds;
    }

    for (const MappingSolution& checked : solutions) {
      for (const NodePartition& p : workload.partitions()) {
        const std::vector<int> expected = scanned_cores_of(checked, p.node);
        ASSERT_EQ(checked.cores_of(p.node), expected)
            << "step " << step << " node " << p.node;
        checked.cores_of(p.node, out);
        ASSERT_EQ(out, expected) << "step " << step << " node " << p.node;
        for (int c = 0; c < checked.core_count(); ++c) {
          ASSERT_EQ(checked.has_node(c, p.node),
                    scanned_has_node(checked, c, p.node))
              << "step " << step << " core " << c << " node " << p.node;
        }
        for (int n = 1; n <= 4; ++n) {
          ASSERT_EQ(checked.can_add(core, p.node, n),
                    scanned_can_add(checked, core, p.node, n))
              << "step " << step << " core " << core << " node " << p.node;
        }
      }
    }
  }
  // The walk must have exercised every primitive, on the boundary cores too.
  EXPECT_GT(adds, 1000);
  EXPECT_GT(removes, 300);
  EXPECT_GT(copies, 100);
  EXPECT_GT(boundary_adds, 100);
}

}  // namespace
}  // namespace pimcomp
