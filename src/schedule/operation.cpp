#include "schedule/operation.hpp"

namespace pimcomp {

std::string to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kMvm: return "MVM";
    case OpKind::kVfu: return "VFU";
    case OpKind::kCommSend: return "SEND";
    case OpKind::kCommRecv: return "RECV";
    case OpKind::kLoadGlobal: return "LOAD";
    case OpKind::kStoreGlobal: return "STORE";
  }
  return "?";
}

namespace {

/// Transfer time of `bytes` at `gbps` (GB/s).
Picoseconds transfer_time(std::int64_t bytes, double gbps) {
  if (bytes <= 0) return 0;
  return checked_ps(static_cast<double>(bytes) * 1000.0 / gbps);
}

}  // namespace

Picoseconds busy_time(const Operation& op, const HardwareConfig& hw,
                      Picoseconds mvm_issue) {
  switch (op.kind) {
    case OpKind::kMvm:
      return mvm_issue;
    case OpKind::kVfu:
      return checked_ps(static_cast<double>(op.elements) / hw.vfu_ops_per_ns *
                        static_cast<double>(kPsPerNs));
    case OpKind::kLoadGlobal:
    case OpKind::kStoreGlobal:
      return transfer_time(op.bytes, hw.global_memory_gbps);
    case OpKind::kCommSend:
    case OpKind::kCommRecv:
      return transfer_time(op.bytes, hw.local_memory_gbps);
  }
  return 0;
}

std::int64_t Schedule::count(OpKind kind) const {
  std::int64_t n = 0;
  for (const auto& program : programs) {
    for (const Operation& op : program) {
      if (op.kind == kind) ++n;
    }
  }
  return n;
}

std::int64_t Schedule::total_bytes(OpKind kind) const {
  std::int64_t n = 0;
  for (const auto& program : programs) {
    for (const Operation& op : program) {
      if (op.kind == kind) n += op.bytes;
    }
  }
  return n;
}

void Schedule::validate() const {
  if (ag_count < 0) throw ScheduleError("schedule ag_count is negative");
  const int cores = core_count();
  if (static_cast<int>(spill_bytes.size()) != cores ||
      static_cast<int>(peak_local_bytes.size()) != cores) {
    throw ScheduleError(
        "schedule per-core metadata does not match its core count (" +
        std::to_string(cores) + " cores, " +
        std::to_string(spill_bytes.size()) + " spill entries, " +
        std::to_string(peak_local_bytes.size()) + " peak entries)");
  }
  std::int64_t ops = 0;
  for (int c = 0; c < cores; ++c) {
    for (const Operation& op : programs[static_cast<std::size_t>(c)]) {
      ++ops;
      // Built only on the throwing path: validation runs on every decode.
      const auto where = [&] {
        return to_string(op.kind) + " on core " + std::to_string(c);
      };
      if (op.kind == OpKind::kMvm) {
        if (op.ag < 0 || op.ag >= ag_count) {
          throw ScheduleError(where() + " runs on AG " + std::to_string(op.ag) +
                              " outside [0, " + std::to_string(ag_count) +
                              ")");
        }
        if (op.xbars < 0) {
          throw ScheduleError(where() + " has a negative crossbar count");
        }
      } else if (op.ag < -1 || op.ag >= ag_count) {
        throw ScheduleError(where() + " waits on AG " + std::to_string(op.ag) +
                            " outside [-1, " + std::to_string(ag_count) +
                            ")");
      }
      if ((op.kind == OpKind::kCommSend || op.kind == OpKind::kCommRecv) &&
          (op.peer < 0 || op.peer >= cores)) {
        throw ScheduleError(where() + " targets peer " +
                            std::to_string(op.peer) + " outside [0, " +
                            std::to_string(cores) + ")");
      }
      if (op.bytes < 0) {
        throw ScheduleError(where() + " has negative payload bytes");
      }
      if (op.elements < 0) {
        throw ScheduleError(where() + " has a negative element count");
      }
      if (op.local_usage < -1) {
        throw ScheduleError(where() + " has a local usage below -1");
      }
    }
  }
  if (ops != total_ops) {
    throw ScheduleError("schedule total_ops (" + std::to_string(total_ops) +
                        ") disagrees with its own programs (" +
                        std::to_string(ops) + ")");
  }
}

}  // namespace pimcomp
