#ifndef PIMCOMP_MAPPING_MAPPING_SOLUTION_HPP
#define PIMCOMP_MAPPING_MAPPING_SOLUTION_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "mapping/gene.hpp"
#include "partition/array_group.hpp"
#include "partition/workload.hpp"

namespace pimcomp {

/// The joint weight-replicating + core-mapping decision: which AGs of which
/// node live on which core. This is both the GA's phenotype and the input to
/// dataflow scheduling.
///
/// Invariants (enforced by the mutation primitives and checked by
/// `validate()`):
///  * each node appears at most once per core (genes merge);
///  * per-core crossbars used <= hardware budget;
///  * per-core distinct nodes <= max_nodes_per_core (paper's
///    max_node_num_in_core chromosome bound);
///  * each node's total AG count is a positive multiple of its
///    ags-per-replica, i.e. replication is integral and >= 1.
///
/// Storage is flat: one core-major gene buffer with max_nodes_per_core
/// slots per core plus per-core gene and crossbar counts, so every solution
/// of a workload has the same shape and copy-assigning one onto another
/// reuses the target's storage (the GA recycles its breeding buffers this
/// way).
///
/// A host-core index mirrors the genes: one bitset row per partition,
/// ceil(core_count / 64) words wide, with core c's bit set while the node
/// has a gene on c. `add`/`remove` keep it current, so `has_node` is one bit
/// test and `cores_of` walks only the set bits instead of scanning every
/// core's genes.
class MappingSolution {
 public:
  MappingSolution(const Workload& workload, int max_nodes_per_core);

  const Workload& workload() const { return *workload_; }
  int core_count() const { return core_count_; }
  int max_nodes_per_core() const { return max_nodes_per_core_; }

  /// Genes resident on a core (each a distinct node), in insertion order.
  /// The view is invalidated by the next mutation of this core.
  std::span<const Gene> genes(int core) const {
    const auto count = static_cast<std::size_t>(gene_count(core));
    return {genes_.data() + slot_base(core), count};
  }

  // --- Mutation primitives (used by mappers) -------------------------------

  /// True when `ag_count` more AGs of `node` fit on `core` (crossbar budget
  /// and node-slot bound).
  bool can_add(int core, NodeId node, int ag_count) const;

  /// Adds AGs of `node` to `core`, merging into an existing gene.
  /// Throws if infeasible (call can_add first).
  void add(int core, NodeId node, int ag_count);

  /// Removes up to `ag_count` AGs of `node` from `core`; returns how many
  /// were actually removed (0 when the node is absent). A gene that drops
  /// to zero AGs frees its slot; the core's other genes keep their order.
  int remove(int core, NodeId node, int ag_count);

  // --- Queries ---------------------------------------------------------------

  int total_ags(NodeId node) const;
  /// Replication factor: total AGs / AGs-per-replica (floor).
  int replication(NodeId node) const;
  /// Operation cycles each replica runs: ceil(windows / replication).
  int cycles(NodeId node) const;

  // The per-core accessors are inline: the GA's feasible-core scans call
  // them once per core probed.
  int xbars_used(int core) const {
    PIMCOMP_ASSERT(core >= 0 && core < core_count_, "core out of range");
    return per_core_[static_cast<std::size_t>(core)].xbars;
  }
  int free_xbars(int core) const {
    return workload_->hardware().xbars_per_core - xbars_used(core);
  }
  int gene_count(int core) const {
    PIMCOMP_ASSERT(core >= 0 && core < core_count_, "core out of range");
    return per_core_[static_cast<std::size_t>(core)].genes;
  }
  /// One bit test in the host-core index.
  bool has_node(int core, NodeId node) const;
  /// Cores currently holding at least one AG of `node`, ascending. Costs
  /// O(core_count / 64 + hosts) through the host-core index.
  std::vector<int> cores_of(NodeId node) const;
  /// Allocation-free form for hot loops: clears `out`, then fills it as
  /// above, reusing its capacity.
  void cores_of(NodeId node, std::vector<int>& out) const;

  /// Total crossbars used across all cores.
  std::int64_t total_xbars_used() const;

  /// Checks every invariant, re-deriving the crossbar, AG-total and
  /// host-core caches from the genes; throws Error with a diagnostic on
  /// violation.
  void validate() const;

  /// Expands genes into concrete AG instances (replica-major assignment in
  /// core order) for the scheduler. Requires a valid solution.
  std::vector<AgInstance> instantiate() const;

  /// Chromosome in the paper's integer format: core-major, fixed
  /// max_nodes_per_core slots per core, zero-padded.
  std::vector<std::int64_t> encode() const;

  /// Rebuilds a solution from the integer chromosome.
  static MappingSolution decode(const Workload& workload,
                                int max_nodes_per_core,
                                const std::vector<std::int64_t>& chromosome);

  /// Serializes the mapping decision for the persistent artifact cache:
  /// `{"max_nodes_per_core": N, "chromosome": [...]}` in the paper's
  /// integer gene format. The workload itself is NOT serialized — it is
  /// recomputed deterministically from (graph, hardware) and re-attached
  /// by from_json.
  Json to_json() const;

  /// Inverse of to_json against an already-partitioned workload. Every
  /// invariant is re-checked on load (decode rejects infeasible
  /// placements, then validate() re-proves replication integrality), so a
  /// corrupt or foreign artifact can never smuggle an invalid mapping into
  /// the scheduler. Throws JsonError/Error on violation.
  static MappingSolution from_json(const Workload& workload, const Json& json);

  std::string to_string() const;

 private:
  /// First gene slot of `core` in genes_.
  std::size_t slot_base(int core) const {
    return static_cast<std::size_t>(core) *
           static_cast<std::size_t>(max_nodes_per_core_);
  }

  /// First word of partition `part`'s row in hosts_.
  std::size_t host_row(int part) const {
    return static_cast<std::size_t>(part) * host_words_;
  }

  struct PerCore {
    int genes = 0;  // live slots at the core's front
    int xbars = 0;  // crossbars used (cache)
  };

  const Workload* workload_;
  int core_count_;
  int max_nodes_per_core_;
  std::vector<Gene> genes_;        // core-major, max_nodes_per_core_ per core
  std::vector<PerCore> per_core_;  // one allocation for both per-core counts
  std::vector<int> total_ags_;     // per partition index cache

  // Host-core index: partition-major bitset rows, host_words_ words each.
  std::size_t host_words_;
  std::vector<std::uint64_t> hosts_;
};

}  // namespace pimcomp

#endif  // PIMCOMP_MAPPING_MAPPING_SOLUTION_HPP
