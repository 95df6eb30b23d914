#ifndef PIMCOMP_SCHEDULE_HT_SCHEDULER_HPP
#define PIMCOMP_SCHEDULE_HT_SCHEDULER_HPP

#include "mapping/mapping_solution.hpp"
#include "schedule/memory_allocator.hpp"
#include "schedule/operation.hpp"

namespace pimcomp {

/// Options of the High-Throughput dataflow generator.
struct HtScheduleOptions {
  MemoryPolicy memory_policy = MemoryPolicy::kAgReuse;

  /// Windows each AG processes between global-memory flushes; the paper's
  /// memory evaluation uses 2 ("after each AG performs 2 MVM operations",
  /// §V-B3).
  int flush_windows = 2;

  /// Max AGs computing at once per core, as the program will run. Sets the
  /// MVM issue slot in the per-core load estimate that places vector work.
  int parallelism_degree = 20;
};

/// Generates the HT-mode dataflow (paper Algorithm 1). Layers pipeline
/// across inferences, so the per-core streams carry no inter-layer
/// dependencies; each batch loads inputs from global memory, runs one MVM
/// per unfinished AG per window, accumulates partial sums within and across
/// cores, applies the fused activation, and stores results back. Standalone
/// vector operations (POOL/ELTWISE/SOFTMAX/...) are the "other operations"
/// Algorithm 1 line 10 distributes among the cores: since throughput is set
/// by the busiest core, each is split into the fewest output-row slices
/// whose VFU time fits under the busiest crossbar core, and each slice goes
/// to the core with the least estimated busy time (busy_time, the
/// simulator's per-op cost).
Schedule schedule_ht(const MappingSolution& solution,
                     const HtScheduleOptions& options);

}  // namespace pimcomp

#endif  // PIMCOMP_SCHEDULE_HT_SCHEDULER_HPP
