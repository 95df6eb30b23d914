#include "backend/instruction_stream.hpp"

#include <iterator>
#include <limits>
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

/// The ISA mnemonics, one per OpKind in enum order. Part of the schema:
/// renaming one requires a kIsaVersion bump.
constexpr const char* kMnemonics[] = {"MVM",  "VALU", "SEND",
                                      "RECV", "LOAD", "STORE"};
static_assert(std::size(kMnemonics) ==
              static_cast<std::size_t>(OpKind::kStoreGlobal) + 1);

const char* mnemonic(OpKind kind) {
  return kMnemonics[static_cast<std::size_t>(kind)];
}

OpKind kind_from_mnemonic(const std::string& name) {
  for (std::size_t k = 0; k < std::size(kMnemonics); ++k) {
    if (name == kMnemonics[k]) return static_cast<OpKind>(k);
  }
  throw InstructionStreamError("unknown opcode mnemonic '" + name + "'");
}

/// Row field `i` for a 32-bit Operation field. A value that does not fit
/// is refused: wrapped, 2^32 + 5 would pass validation as AG 5.
std::int32_t int32_at(const Json& row, std::size_t i) {
  const std::int64_t value = row.at(i).as_int();
  if (value < std::numeric_limits<std::int32_t>::min() ||
      value > std::numeric_limits<std::int32_t>::max()) {
    throw InstructionStreamError("instruction row field " +
                                 std::to_string(i) + " (" +
                                 std::to_string(value) +
                                 ") does not fit 32 bits");
  }
  return static_cast<std::int32_t>(value);
}

Operation operation_from_row(const Json& row) {
  if (!row.is_array() || row.size() != 10) {
    throw InstructionStreamError("instruction row must be a 10-tuple");
  }
  Operation op;
  op.kind = kind_from_mnemonic(row.at(std::size_t(0)).as_string());
  op.node = int32_at(row, 1);
  op.ag = int32_at(row, 2);
  op.window = int32_at(row, 3);
  op.bytes = row.at(std::size_t(4)).as_int();
  op.elements = row.at(std::size_t(5)).as_int();
  op.peer = int32_at(row, 6);
  op.tag = int32_at(row, 7);
  op.xbars = int32_at(row, 8);
  op.local_usage = row.at(std::size_t(9)).as_int();
  return op;
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

/// One Operation as a compact 10-tuple. Field order is part of the
/// schema — changing it requires a kIsaVersion bump:
///   [mnemonic, node, ag, window, bytes, elements, peer, tag, xbars,
///    local_usage]
void append_operation(std::string& out, const Operation& op) {
  out.push_back('[');
  json_append_string(out, mnemonic(op.kind));
  for (const std::int64_t field :
       {std::int64_t{op.node}, std::int64_t{op.ag}, std::int64_t{op.window},
        op.bytes, op.elements, std::int64_t{op.peer}, std::int64_t{op.tag},
        std::int64_t{op.xbars}, op.local_usage}) {
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

void InstructionStream::validate_header() const {
  if (backend.empty()) {
    throw InstructionStreamError("instruction stream has no backend name");
  }
  if (parallelism_degree < 1) {
    throw InstructionStreamError(
        "instruction stream parallelism degree must be >= 1");
  }
}

void InstructionStream::validate() const {
  validate_header();
  try {
    Schedule::validate();
  } catch (const ScheduleError& e) {
    throw InstructionStreamError(std::string("instruction stream: ") +
                                 e.what());
  }
}

InstructionStream InstructionStream::from_schedule(
    const Schedule& schedule, PipelineMode mode, int parallelism_degree,
    const std::string& backend, std::uint64_t mapping_key) {
  InstructionStream stream;
  static_cast<Schedule&>(stream) = schedule;
  stream.backend = backend;
  stream.mapping_key = mapping_key;
  stream.mode = mode;
  stream.parallelism_degree = parallelism_degree;
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
  for (const std::vector<Operation>& program : programs) {
    rows += program.size();
  }
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
  for (std::size_t c = 0; c < programs.size(); ++c) {
    if (c > 0) out.push_back(',');
    out.push_back('[');
    for (std::size_t i = 0; i < programs[c].size(); ++i) {
      if (i > 0) out.push_back(',');
      append_operation(out, programs[c][i]);
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
  stream.programs.reserve(cores_json.size());
  for (std::size_t c = 0; c < cores_json.size(); ++c) {
    const Json& rows = cores_json.at(c);
    if (!rows.is_array()) {
      throw InstructionStreamError(
          "instruction stream core program must be an array");
    }
    std::vector<Operation> program;
    program.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      program.push_back(operation_from_row(rows.at(i)));
    }
    stream.programs.push_back(std::move(program));
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
