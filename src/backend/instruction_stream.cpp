#include "backend/instruction_stream.hpp"

#include <utility>

#include "cache/cache_store.hpp"

namespace pimcomp {

namespace {

/// FNV-1a over the canonical serialization (same constants as the session's
/// fingerprint helpers — the artifact identity must be stable across
/// processes and releases).
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a_bytes(std::uint64_t h, const char* data,
                          std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

const char* mode_name(PipelineMode mode) {
  return mode == PipelineMode::kHighThroughput ? "ht" : "ll";
}

PipelineMode mode_from_name(const std::string& name) {
  if (name == "ht") return PipelineMode::kHighThroughput;
  if (name == "ll") return PipelineMode::kLowLatency;
  throw InstructionStreamError("instruction stream mode must be 'ht' or "
                               "'ll', got '" + name + "'");
}

Instruction instruction_from_json(const Json& row) {
  if (!row.is_array() || row.size() != 10) {
    throw InstructionStreamError("instruction row must be a 10-tuple");
  }
  Instruction inst;
  inst.opcode = opcode_from_string(row.at(std::size_t(0)).as_string());
  inst.node = static_cast<NodeId>(row.at(std::size_t(1)).as_int());
  inst.ag = static_cast<std::int32_t>(row.at(std::size_t(2)).as_int());
  inst.window = static_cast<std::int32_t>(row.at(std::size_t(3)).as_int());
  inst.bytes = row.at(std::size_t(4)).as_int();
  inst.elements = row.at(std::size_t(5)).as_int();
  inst.peer = static_cast<std::int32_t>(row.at(std::size_t(6)).as_int());
  inst.tag = static_cast<std::int32_t>(row.at(std::size_t(7)).as_int());
  inst.xbars = static_cast<std::int32_t>(row.at(std::size_t(8)).as_int());
  inst.local_usage = row.at(std::size_t(9)).as_int();
  return inst;
}

/// Appends `"name":`, opening the object before the first member.
void append_key(std::string& out, const char* name) {
  out.push_back(out.empty() ? '{' : ',');
  json_append_string(out, name);
  out.push_back(':');
}

void append_int(std::string& out, std::int64_t value) {
  // Through a double, exactly as a Json number holds it.
  json_append_number(out, static_cast<double>(value));
}

void append_int64_array(std::string& out,
                        const std::vector<std::int64_t>& values) {
  out.push_back('[');
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    append_int(out, values[i]);
  }
  out.push_back(']');
}

/// One Instruction as a compact 10-tuple. Field order is part of the
/// schema — changing it requires a kIsaVersion bump:
///   [opcode, node, ag, window, bytes, elements, peer, tag, xbars,
///    local_usage]
void append_instruction(std::string& out, const Instruction& inst) {
  out.push_back('[');
  json_append_string(out, to_string(inst.opcode));
  for (const std::int64_t field :
       {std::int64_t{inst.node}, std::int64_t{inst.ag},
        std::int64_t{inst.window}, inst.bytes, inst.elements,
        std::int64_t{inst.peer}, std::int64_t{inst.tag},
        std::int64_t{inst.xbars}, inst.local_usage}) {
    out.push_back(',');
    append_int(out, field);
  }
  out.push_back(']');
}

std::vector<std::int64_t> int64_vector(const Json& array, const char* what) {
  if (!array.is_array()) {
    throw InstructionStreamError(std::string("instruction stream ") + what +
                                 " must be an array");
  }
  std::vector<std::int64_t> values;
  values.reserve(array.size());
  for (std::size_t i = 0; i < array.size(); ++i) {
    values.push_back(array.at(i).as_int());
  }
  return values;
}

}  // namespace

std::string to_string(Opcode opcode) {
  switch (opcode) {
    case Opcode::kMvm: return "MVM";
    case Opcode::kValu: return "VALU";
    case Opcode::kSend: return "SEND";
    case Opcode::kRecv: return "RECV";
    case Opcode::kLoad: return "LOAD";
    case Opcode::kStore: return "STORE";
  }
  return "UNKNOWN";
}

Opcode opcode_from_string(const std::string& mnemonic) {
  if (mnemonic == "MVM") return Opcode::kMvm;
  if (mnemonic == "VALU") return Opcode::kValu;
  if (mnemonic == "SEND") return Opcode::kSend;
  if (mnemonic == "RECV") return Opcode::kRecv;
  if (mnemonic == "LOAD") return Opcode::kLoad;
  if (mnemonic == "STORE") return Opcode::kStore;
  throw InstructionStreamError("unknown opcode mnemonic '" + mnemonic + "'");
}

Opcode opcode_from_op_kind(OpKind kind) {
  switch (kind) {
    case OpKind::kMvm: return Opcode::kMvm;
    case OpKind::kVfu: return Opcode::kValu;
    case OpKind::kCommSend: return Opcode::kSend;
    case OpKind::kCommRecv: return Opcode::kRecv;
    case OpKind::kLoadGlobal: return Opcode::kLoad;
    case OpKind::kStoreGlobal: return Opcode::kStore;
  }
  throw InstructionStreamError("unknown operation kind");
}

OpKind op_kind_from_opcode(Opcode opcode) {
  switch (opcode) {
    case Opcode::kMvm: return OpKind::kMvm;
    case Opcode::kValu: return OpKind::kVfu;
    case Opcode::kSend: return OpKind::kCommSend;
    case Opcode::kRecv: return OpKind::kCommRecv;
    case Opcode::kLoad: return OpKind::kLoadGlobal;
    case Opcode::kStore: return OpKind::kStoreGlobal;
  }
  throw InstructionStreamError("unknown opcode");
}

void InstructionStream::validate() const {
  if (backend.empty()) {
    throw InstructionStreamError("instruction stream has no backend name");
  }
  if (parallelism_degree < 1) {
    throw InstructionStreamError(
        "instruction stream parallelism degree must be >= 1");
  }
  if (ag_count < 0) {
    throw InstructionStreamError("instruction stream ag_count is negative");
  }
  const int cores_n = core_count();
  if (static_cast<int>(spill_bytes.size()) != cores_n ||
      static_cast<int>(peak_local_bytes.size()) != cores_n) {
    throw InstructionStreamError(
        "instruction stream per-core metadata does not match its core "
        "count (" + std::to_string(cores_n) + " cores, " +
        std::to_string(spill_bytes.size()) + " spill entries, " +
        std::to_string(peak_local_bytes.size()) + " peak entries)");
  }
  std::int64_t ops = 0;
  for (int c = 0; c < cores_n; ++c) {
    for (const Instruction& inst : cores[static_cast<std::size_t>(c)]) {
      ++ops;
      const bool is_comm =
          inst.opcode == Opcode::kSend || inst.opcode == Opcode::kRecv;
      if (inst.opcode == Opcode::kMvm) {
        if (inst.ag < 0 || inst.ag >= ag_count) {
          throw InstructionStreamError(
              "MVM on core " + std::to_string(c) +
              " references AG " + std::to_string(inst.ag) + " outside [0, " +
              std::to_string(ag_count) + ")");
        }
        if (inst.xbars < 0) {
          throw InstructionStreamError("MVM with negative crossbar count");
        }
      } else if (inst.ag < -1 || inst.ag >= ag_count) {
        throw InstructionStreamError(
            to_string(inst.opcode) + " on core " + std::to_string(c) +
            " waits on AG " + std::to_string(inst.ag) + " outside [-1, " +
            std::to_string(ag_count) + ")");
      }
      if (is_comm && (inst.peer < 0 || inst.peer >= cores_n)) {
        throw InstructionStreamError(
            to_string(inst.opcode) + " on core " + std::to_string(c) +
            " targets peer " + std::to_string(inst.peer) + " outside [0, " +
            std::to_string(cores_n) + ")");
      }
      if (inst.bytes < 0) {
        throw InstructionStreamError(to_string(inst.opcode) +
                                     " with negative payload bytes");
      }
      if (inst.elements < 0) {
        throw InstructionStreamError(to_string(inst.opcode) +
                                     " with negative element count");
      }
      if (inst.local_usage < -1) {
        throw InstructionStreamError(to_string(inst.opcode) +
                                     " with local usage below -1");
      }
    }
  }
  if (ops != total_ops) {
    throw InstructionStreamError(
        "instruction stream total_ops (" + std::to_string(total_ops) +
        ") disagrees with its own instruction lists (" +
        std::to_string(ops) + ")");
  }
}

Schedule InstructionStream::to_schedule() const {
  Schedule schedule;
  schedule.ag_count = ag_count;
  schedule.total_ops = total_ops;
  schedule.spill_bytes = spill_bytes;
  schedule.peak_local_bytes = peak_local_bytes;
  schedule.programs.reserve(cores.size());
  for (const std::vector<Instruction>& program : cores) {
    std::vector<Operation> ops;
    ops.reserve(program.size());
    for (const Instruction& inst : program) {
      Operation op;
      op.kind = op_kind_from_opcode(inst.opcode);
      op.node = inst.node;
      op.ag = inst.ag;
      op.window = inst.window;
      op.bytes = inst.bytes;
      op.elements = inst.elements;
      op.peer = inst.peer;
      op.tag = inst.tag;
      op.xbars = inst.xbars;
      op.local_usage = inst.local_usage;
      ops.push_back(op);
    }
    schedule.programs.push_back(std::move(ops));
  }
  return schedule;
}

InstructionStream InstructionStream::from_schedule(
    const Schedule& schedule, PipelineMode mode, int parallelism_degree,
    const std::string& backend, std::uint64_t mapping_key) {
  InstructionStream stream;
  stream.backend = backend;
  stream.mapping_key = mapping_key;
  stream.mode = mode;
  stream.parallelism_degree = parallelism_degree;
  stream.ag_count = schedule.ag_count;
  stream.total_ops = schedule.total_ops;
  stream.spill_bytes = schedule.spill_bytes;
  stream.peak_local_bytes = schedule.peak_local_bytes;
  stream.cores.reserve(schedule.programs.size());
  for (const std::vector<Operation>& program : schedule.programs) {
    std::vector<Instruction> insts;
    insts.reserve(program.size());
    for (const Operation& op : program) {
      Instruction inst;
      inst.opcode = opcode_from_op_kind(op.kind);
      inst.node = op.node;
      inst.ag = op.ag;
      inst.window = op.window;
      inst.bytes = op.bytes;
      inst.elements = op.elements;
      inst.peer = op.peer;
      inst.tag = op.tag;
      inst.xbars = op.xbars;
      inst.local_usage = op.local_usage;
      insts.push_back(inst);
    }
    stream.cores.push_back(std::move(insts));
  }
  stream.validate();
  return stream;
}

std::uint64_t InstructionStream::content_fingerprint() const {
  const std::string canonical = to_json_text();
  return fnv1a_bytes(kFnvOffset, canonical.data(), canonical.size());
}

std::string InstructionStream::to_json_text() const {
  // Rows are ~40 bytes; one reservation keeps the writer from regrowing.
  std::size_t rows = 0;
  for (const std::vector<Instruction>& program : cores) rows += program.size();
  std::string out;
  out.reserve(256 + 48 * rows);
  // Envelope first: a self-describing artifact survives being moved
  // between caches, files and wire frames.
  append_key(out, "isa");
  append_int(out, kIsaVersion);
  append_key(out, "backend");
  json_append_string(out, backend);
  append_key(out, "mapping_key");
  json_append_string(out, cache_key_hex(mapping_key));
  append_key(out, "mode");
  json_append_string(out, mode_name(mode));
  append_key(out, "parallelism");
  append_int(out, parallelism_degree);
  append_key(out, "ag_count");
  append_int(out, ag_count);
  append_key(out, "total_ops");
  append_int(out, total_ops);
  append_key(out, "spill_bytes");
  append_int64_array(out, spill_bytes);
  append_key(out, "peak_local_bytes");
  append_int64_array(out, peak_local_bytes);
  append_key(out, "cores");
  out.push_back('[');
  for (std::size_t c = 0; c < cores.size(); ++c) {
    if (c > 0) out.push_back(',');
    out.push_back('[');
    for (std::size_t i = 0; i < cores[c].size(); ++i) {
      if (i > 0) out.push_back(',');
      append_instruction(out, cores[c][i]);
    }
    out.push_back(']');
  }
  out += "]}";
  return out;
}

Json InstructionStream::to_json() const { return Json::parse(to_json_text()); }

InstructionStream InstructionStream::from_json(const Json& json) {
  if (!json.is_object()) {
    throw InstructionStreamError("instruction stream must be a JSON object");
  }
  const int isa = static_cast<int>(json.get("isa", -1));
  if (isa != kIsaVersion) {
    throw InstructionStreamError(
        "instruction stream ISA version mismatch (artifact " +
        std::to_string(isa) + ", this build " + std::to_string(kIsaVersion) +
        ")");
  }
  InstructionStream stream;
  stream.backend = json.get("backend", std::string());
  const std::string key_hex = json.get("mapping_key", std::string());
  const std::optional<std::uint64_t> key = cache_key_from_hex(key_hex);
  if (!key.has_value()) {
    throw InstructionStreamError(
        "instruction stream mapping_key '" + key_hex +
        "' is not a 16-digit hex fingerprint");
  }
  stream.mapping_key = *key;
  stream.mode = mode_from_name(json.get("mode", std::string()));
  stream.parallelism_degree = static_cast<int>(json.get("parallelism", 0));
  stream.ag_count = static_cast<int>(json.at("ag_count").as_int());
  stream.total_ops = json.at("total_ops").as_int();
  stream.spill_bytes = int64_vector(json.at("spill_bytes"), "spill_bytes");
  stream.peak_local_bytes =
      int64_vector(json.at("peak_local_bytes"), "peak_local_bytes");
  const Json& cores_json = json.at("cores");
  if (!cores_json.is_array()) {
    throw InstructionStreamError("instruction stream cores must be an array");
  }
  stream.cores.reserve(cores_json.size());
  for (std::size_t c = 0; c < cores_json.size(); ++c) {
    const Json& rows = cores_json.at(c);
    if (!rows.is_array()) {
      throw InstructionStreamError(
          "instruction stream core program must be an array");
    }
    std::vector<Instruction> program;
    program.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      program.push_back(instruction_from_json(rows.at(i)));
    }
    stream.cores.push_back(std::move(program));
  }
  stream.validate();
  return stream;
}

InstructionStream InstructionStream::from_json(
    const Json& json, std::uint64_t expected_mapping_key) {
  InstructionStream stream = from_json(json);
  if (stream.mapping_key != expected_mapping_key) {
    throw InstructionStreamError(
        "instruction stream is bound to mapping " +
        cache_key_hex(stream.mapping_key) +
        ", not the requesting compilation's " +
        cache_key_hex(expected_mapping_key) +
        " — refusing to serve a lowered program for a different schedule");
  }
  return stream;
}

}  // namespace pimcomp
