#include "mapping/mapping_solution.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace pimcomp {

MappingSolution::MappingSolution(const Workload& workload,
                                 int max_nodes_per_core)
    : workload_(&workload),
      core_count_(workload.hardware().core_count),
      max_nodes_per_core_(max_nodes_per_core),
      host_words_((static_cast<std::size_t>(core_count_) + 63) / 64) {
  PIMCOMP_CHECK(max_nodes_per_core >= 1,
                "max_nodes_per_core must be positive");
  genes_.resize(slot_base(core_count_));
  per_core_.resize(static_cast<std::size_t>(core_count_));
  total_ags_.assign(static_cast<std::size_t>(workload.partition_count()), 0);
  hosts_.assign(host_row(workload.partition_count()), 0);
}

bool MappingSolution::can_add(int core, NodeId node, int ag_count) const {
  PIMCOMP_ASSERT(core >= 0 && core < core_count_, "core out of range");
  PIMCOMP_ASSERT(ag_count > 0, "ag_count must be positive");
  const NodePartition& p = workload_->partition_of(node);
  if (xbars_used(core) + ag_count * p.xbars_per_ag >
      workload_->hardware().xbars_per_core) {
    return false;
  }
  // A resident gene merges (bounded by the integer gene encoding); a new
  // gene needs a free slot.
  for (const Gene& g : genes(core)) {
    if (g.node == node) return g.ag_count + ag_count <= kMaxAgCountPerGene;
  }
  return gene_count(core) < max_nodes_per_core_;
}

void MappingSolution::add(int core, NodeId node, int ag_count) {
  PIMCOMP_CHECK(can_add(core, node, ag_count),
                "MappingSolution::add called with infeasible placement");
  const NodePartition& p = workload_->partition_of(node);
  const int part = workload_->partition_index(node);
  PerCore& state = per_core_[static_cast<std::size_t>(core)];
  int& count = state.genes;
  Gene* first = genes_.data() + slot_base(core);
  Gene* it = std::find_if(first, first + count,
                          [node](const Gene& g) { return g.node == node; });
  if (it == first + count) {
    *it = Gene{node, ag_count};  // can_add proved a free slot exists
    ++count;
    hosts_[host_row(part) + static_cast<std::size_t>(core) / 64] |=
        std::uint64_t{1} << (core % 64);
  } else {
    it->ag_count += ag_count;
  }
  state.xbars += ag_count * p.xbars_per_ag;
  total_ags_[static_cast<std::size_t>(part)] += ag_count;
}

int MappingSolution::remove(int core, NodeId node, int ag_count) {
  PIMCOMP_ASSERT(core >= 0 && core < core_count_, "core out of range");
  PIMCOMP_ASSERT(ag_count > 0, "ag_count must be positive");
  PerCore& state = per_core_[static_cast<std::size_t>(core)];
  int& count = state.genes;
  Gene* first = genes_.data() + slot_base(core);
  Gene* it = std::find_if(first, first + count,
                          [node](const Gene& g) { return g.node == node; });
  if (it == first + count) return 0;
  const int part = workload_->partition_index(node);
  const int removed = std::min(it->ag_count, ag_count);
  it->ag_count -= removed;
  if (it->ag_count == 0) {
    std::copy(it + 1, first + count, it);  // survivors keep their order
    --count;
    hosts_[host_row(part) + static_cast<std::size_t>(core) / 64] &=
        ~(std::uint64_t{1} << (core % 64));
  }
  const NodePartition& p = workload_->partition_of(node);
  state.xbars -= removed * p.xbars_per_ag;
  total_ags_[static_cast<std::size_t>(part)] -= removed;
  return removed;
}

int MappingSolution::total_ags(NodeId node) const {
  return total_ags_[static_cast<std::size_t>(workload_->partition_index(node))];
}

int MappingSolution::replication(NodeId node) const {
  const NodePartition& p = workload_->partition_of(node);
  return total_ags(node) / p.ags_per_replica();
}

int MappingSolution::cycles(NodeId node) const {
  const NodePartition& p = workload_->partition_of(node);
  const int r = replication(node);
  PIMCOMP_ASSERT(r >= 1, "cycles() on a node without a full replica");
  return ceil_div(p.windows, r);
}

bool MappingSolution::has_node(int core, NodeId node) const {
  PIMCOMP_ASSERT(core >= 0 && core < core_count_, "core out of range");
  const int part = workload_->partition_index(node);
  if (part < 0) return false;  // not a crossbar node: never resident
  const std::uint64_t word =
      hosts_[host_row(part) + static_cast<std::size_t>(core) / 64];
  return ((word >> (core % 64)) & 1U) != 0;
}

std::vector<int> MappingSolution::cores_of(NodeId node) const {
  std::vector<int> cores;
  cores_of(node, cores);
  return cores;
}

void MappingSolution::cores_of(NodeId node, std::vector<int>& out) const {
  out.clear();
  const int part = workload_->partition_index(node);
  if (part < 0) return;
  const std::uint64_t* row = hosts_.data() + host_row(part);
  for (std::size_t w = 0; w < host_words_; ++w) {
    for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
      out.push_back(static_cast<int>(w * 64) + std::countr_zero(bits));
    }
  }
}

std::int64_t MappingSolution::total_xbars_used() const {
  std::int64_t total = 0;
  for (const PerCore& state : per_core_) total += state.xbars;
  return total;
}

void MappingSolution::validate() const {
  const HardwareConfig& hw = workload_->hardware();
  std::vector<int> recount(static_cast<std::size_t>(
                               workload_->partition_count()),
                           0);
  // The host-core index equals the genes' (node, core) pairs when it holds
  // every gene's bit and no other: same row count, each gene's bit set, and
  // as many bits set as there are genes (genes are unique per core).
  if (hosts_.size() != host_row(workload_->partition_count())) {
    throw Error("host-core index is stale: row count differs");
  }
  std::int64_t gene_total = 0;
  for (int c = 0; c < core_count_; ++c) {
    const std::span<const Gene> core_genes = genes(c);
    int xbars = 0;
    for (std::size_t i = 0; i < core_genes.size(); ++i) {
      const Gene& g = core_genes[i];
      PIMCOMP_ASSERT(g.ag_count > 0, "gene with zero AG count");
      for (std::size_t j = i + 1; j < core_genes.size(); ++j) {
        if (core_genes[j].node == g.node) {
          throw Error("core " + std::to_string(c) +
                      " has duplicate genes for node " +
                      std::to_string(g.node));
        }
      }
      if (!has_node(c, g.node)) {
        throw Error("core " + std::to_string(c) +
                    " host-core index is stale for node " +
                    std::to_string(g.node));
      }
      ++gene_total;
      const NodePartition& p = workload_->partition_of(g.node);
      xbars += g.ag_count * p.xbars_per_ag;
      recount[static_cast<std::size_t>(workload_->partition_index(g.node))] +=
          g.ag_count;
    }
    if (xbars != xbars_used(c)) {
      throw Error("core " + std::to_string(c) + " crossbar cache is stale");
    }
    if (xbars > hw.xbars_per_core) {
      throw Error("core " + std::to_string(c) + " uses " +
                  std::to_string(xbars) + " crossbars, budget is " +
                  std::to_string(hw.xbars_per_core));
    }
  }
  std::int64_t bits_set = 0;
  for (std::uint64_t word : hosts_) bits_set += std::popcount(word);
  if (bits_set != gene_total) {
    throw Error("host-core index is stale: " + std::to_string(bits_set) +
                " bits for " + std::to_string(gene_total) + " genes");
  }
  for (const NodePartition& p : workload_->partitions()) {
    const int total =
        recount[static_cast<std::size_t>(workload_->partition_index(p.node))];
    if (total != total_ags(p.node)) {
      throw Error("node " + std::to_string(p.node) + " AG-total cache stale");
    }
    if (total < p.ags_per_replica()) {
      throw Error("node " + std::to_string(p.node) +
                  " lacks a full replica (" + std::to_string(total) + "/" +
                  std::to_string(p.ags_per_replica()) + " AGs)");
    }
    if (total % p.ags_per_replica() != 0) {
      throw Error("node " + std::to_string(p.node) + " AG total " +
                  std::to_string(total) +
                  " is not a multiple of ags_per_replica " +
                  std::to_string(p.ags_per_replica()));
    }
  }
}

std::vector<AgInstance> MappingSolution::instantiate() const {
  validate();
  std::vector<AgInstance> instances;
  for (const NodePartition& p : workload_->partitions()) {
    const int col_chunks = p.col_chunks;
    const int row_slices = p.row_slices;
    const int per_replica = row_slices * col_chunks;

    auto emit = [&](int core, std::int64_t identity) {
      AgInstance ag;
      ag.node = p.node;
      ag.replica = static_cast<int>(identity / per_replica);
      const int within = static_cast<int>(identity % per_replica);
      ag.row_slice = within / col_chunks;
      ag.col_chunk = within % col_chunks;
      ag.core = core;
      ag.xbars = p.xbars_per_ag;
      ag.cols = p.chunk_cols(ag.col_chunk);
      instances.push_back(ag);
    };

    // Pass 1: every gene realizes as many *whole* replicas as it can hold,
    // keeping each replica's accumulation group on one core (no cross-core
    // partial sums for them). Pass 2 stitches the per-gene remainders into
    // the trailing replicas, which also carry the shortest window ranges.
    std::int64_t next = 0;
    std::vector<std::pair<int, int>> remainders;  // (core, leftover AGs)
    for (int c = 0; c < core_count_; ++c) {
      for (const Gene& g : genes(c)) {
        if (g.node != p.node) continue;
        const int whole = g.ag_count / per_replica;
        for (int k = 0; k < whole * per_replica; ++k) emit(c, next++);
        const int leftover = g.ag_count - whole * per_replica;
        if (leftover > 0) remainders.emplace_back(c, leftover);
      }
    }
    for (const auto& [core, leftover] : remainders) {
      for (int k = 0; k < leftover; ++k) emit(core, next++);
    }
  }
  return instances;
}

std::vector<std::int64_t> MappingSolution::encode() const {
  std::vector<std::int64_t> chromosome(
      static_cast<std::size_t>(core_count_) * max_nodes_per_core_, 0);
  for (int c = 0; c < core_count_; ++c) {
    const std::span<const Gene> core_genes = genes(c);
    for (std::size_t i = 0; i < core_genes.size(); ++i) {
      chromosome[slot_base(c) + i] = encode_gene(core_genes[i]);
    }
  }
  return chromosome;
}

MappingSolution MappingSolution::decode(
    const Workload& workload, int max_nodes_per_core,
    const std::vector<std::int64_t>& chromosome) {
  MappingSolution solution(workload, max_nodes_per_core);
  PIMCOMP_CHECK(chromosome.size() ==
                    static_cast<std::size_t>(solution.core_count()) *
                        max_nodes_per_core,
                "chromosome length must be core_count * max_nodes_per_core");
  for (std::size_t slot = 0; slot < chromosome.size(); ++slot) {
    const Gene gene = decode_gene(chromosome[slot]);
    if (gene.ag_count == 0) continue;
    const int core = static_cast<int>(slot) / max_nodes_per_core;
    solution.add(core, gene.node, gene.ag_count);
  }
  return solution;
}

Json MappingSolution::to_json() const {
  Json chromosome = Json::array();
  for (std::int64_t gene : encode()) chromosome.push_back(gene);
  Json json = Json::object();
  json["max_nodes_per_core"] = max_nodes_per_core_;
  json["chromosome"] = std::move(chromosome);
  return json;
}

MappingSolution MappingSolution::from_json(const Workload& workload,
                                           const Json& json) {
  const int max_nodes =
      static_cast<int>(json.at("max_nodes_per_core").as_int());
  if (max_nodes < 1) {
    throw JsonError("mapping solution: max_nodes_per_core must be >= 1");
  }
  const Json& encoded = json.at("chromosome");
  if (!encoded.is_array()) {
    throw JsonError("mapping solution: chromosome must be an array");
  }
  std::vector<std::int64_t> chromosome;
  chromosome.reserve(encoded.size());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    chromosome.push_back(encoded.at(i).as_int());
  }
  // decode() throws on length mismatches and infeasible placements (the
  // crossbar/slot budgets of *this* workload's hardware); validate()
  // re-proves the replication invariants, so a loaded solution is exactly
  // as trustworthy as a freshly mapped one.
  MappingSolution solution =
      MappingSolution::decode(workload, max_nodes, chromosome);
  solution.validate();
  return solution;
}

std::string MappingSolution::to_string() const {
  std::ostringstream oss;
  oss << "mapping over " << core_count_ << " cores, "
      << total_xbars_used() << " crossbars used\n";
  for (const NodePartition& p : workload_->partitions()) {
    oss << "  node " << p.node << " ("
        << workload_->graph().node(p.node).name << "): R=" << replication(p.node)
        << " over cores {";
    bool first = true;
    for (int c : cores_of(p.node)) {
      if (!first) oss << ", ";
      oss << c;
      first = false;
    }
    oss << "}\n";
  }
  return oss.str();
}

}  // namespace pimcomp
