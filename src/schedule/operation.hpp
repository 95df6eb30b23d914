#ifndef PIMCOMP_SCHEDULE_OPERATION_HPP
#define PIMCOMP_SCHEDULE_OPERATION_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "arch/hardware_config.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "graph/node.hpp"

namespace pimcomp {

/// Basic operation classes of the execution model (paper §III-B): MVM by the
/// PIM matrix unit, vector work by the VFU, inter-core communication, and
/// global memory access.
enum class OpKind : std::uint8_t {
  kMvm,          ///< one MVM on one Array Group's crossbars
  kVfu,          ///< vector work (accumulate/activate/pool/eltwise/softmax)
  kCommSend,     ///< enqueue a message toward another core (non-blocking)
  kCommRecv,     ///< dequeue a message from another core (blocking)
  kLoadGlobal,   ///< read from global memory into local memory
  kStoreGlobal,  ///< write from local memory to global memory
};

std::string to_string(OpKind kind);

/// One operation in a core's static operation sequence. The format is
/// deliberately lean (the streams run to millions of entries): data
/// dependencies on out-of-order MVM completions are expressed via the `ag`
/// wait handle, everything else is program order.
struct Operation {
  OpKind kind = OpKind::kVfu;
  NodeId node = -1;

  /// kMvm: the global AG-instance index this MVM runs on (also its wait
  /// handle). Other kinds: the AG whose most recent MVM must complete before
  /// this op starts, or -1 for no MVM dependency.
  std::int32_t ag = -1;

  /// Sliding-window index for MVMs (diagnostics).
  std::int32_t window = -1;

  /// Payload size for comm/memory ops, in bytes.
  std::int64_t bytes = 0;

  /// Element count for VFU ops.
  std::int64_t elements = 0;

  /// Peer core for comm ops.
  std::int32_t peer = -1;

  /// Logical channel class for comm ops: messages only pair with the same
  /// tag on the same (src, dst) pair. The LL scheduler separates row-packet
  /// forwarding (tag 0) from partial-sum accumulation (tag 1) so their FIFO
  /// orders stay independent.
  std::int32_t tag = 0;

  /// kMvm: crossbars energized (for energy accounting).
  std::int32_t xbars = 0;

  /// Absolute local-memory bytes in use after this op, or -1 when unchanged.
  /// The simulator integrates this into the time-weighted usage of Fig 10.
  std::int64_t local_usage = -1;

  friend bool operator==(const Operation&, const Operation&) = default;
};

/// The time `op` keeps its core busy: the one per-op cost model. An MVM
/// takes one issue slot (`mvm_issue`, HardwareConfig::mvm_issue_interval at
/// the run's parallelism), a VFU op its elements at vfu_ops_per_ns, LOAD and
/// STORE their bytes at global-memory bandwidth, SEND and RECV theirs at
/// local-memory bandwidth. The simulator charges exactly this to
/// SimReport::core_busy, and the HT scheduler balances vector work with it.
/// Throws SimulationError when the duration does not fit Picoseconds.
Picoseconds busy_time(const Operation& op, const HardwareConfig& hw,
                      Picoseconds mvm_issue);

/// Raised when a Schedule violates the invariants Schedule::validate()
/// proves. Decoders and executors rethrow it as their own typed error.
class ScheduleError : public Error {
 public:
  explicit ScheduleError(const std::string& message) : Error(message) {}
};

/// A whole compiled dataflow: one static operation sequence per core plus
/// the facts the simulator needs to size its state. This is the one program
/// type: the lowered InstructionStream is a Schedule plus its header.
struct Schedule {
  std::vector<std::vector<Operation>> programs;  ///< per core
  int ag_count = 0;          ///< AG instances (wait-handle domain)
  std::int64_t total_ops = 0;

  /// Extra global traffic from local-memory overflow spills, per core
  /// (schedule-time estimate from the memory planner).
  std::vector<std::int64_t> spill_bytes;

  /// Peak local-memory bytes per core (schedule-time).
  std::vector<std::int64_t> peak_local_bytes;

  int core_count() const { return static_cast<int>(programs.size()); }

  friend bool operator==(const Schedule&, const Schedule&) = default;

  /// Proves the invariants every executor relies on: one spill and one
  /// peak entry per core, wait handles inside [-1, ag_count) (an MVM's AG
  /// inside [0, ag_count)), comm peers inside [0, core_count()),
  /// non-negative payloads, and a total_ops that counts the programs.
  /// Throws ScheduleError. Every decoder of untrusted program bytes and
  /// the simulator call it before trusting a row.
  void validate() const;

  /// Ops of one kind across all cores (test/report helper).
  std::int64_t count(OpKind kind) const;

  /// Sum of a payload field across all cores (test/report helper).
  std::int64_t total_bytes(OpKind kind) const;
};

}  // namespace pimcomp

#endif  // PIMCOMP_SCHEDULE_OPERATION_HPP
