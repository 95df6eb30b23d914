// The backend subsystem's acceptance surface: the registry ships the two
// built-in backends, every zoo model lowers into an instruction stream that
// round-trips its JSON artifact losslessly, tampered or foreign artifacts
// are rejected, the `sim` backend reports on a lowered stream exactly what
// the simulator reports on its schedule (so lowering loses nothing), the
// simulator's reports over the zoo are pinned, lowered streams survive the
// disk cache byte-identically, and two small models' artifact fingerprints
// are pinned as goldens (the kIsaVersion bump protocol, mirroring
// tests/test_fingerprint_goldens.cpp).

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/instruction_stream.hpp"
#include "cache/artifact.hpp"
#include "cache/cache_store.hpp"
#include "common/error.hpp"
#include "core/session.hpp"
#include "graph/builder.hpp"
#include "graph/zoo/zoo.hpp"
#include "sim/simulator.hpp"

namespace pimcomp {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() {
    std::string pattern =
        (fs::temp_directory_path() / "pimcomp-backend-XXXXXX").string();
    char* made = ::mkdtemp(pattern.data());
    EXPECT_NE(made, nullptr);
    path = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

/// Smallest feasible zoo resolution per model (input-size constraints).
int small_input(const std::string& model) {
  return model == "inception-v3" ? 96 : 32;
}

CompileOptions tiny_options(const std::string& backend) {
  CompileOptions options;
  options.mode = PipelineMode::kLowLatency;
  options.ga.population = 4;
  options.ga.generations = 2;
  options.seed = 1;
  options.backend = backend;
  return options;
}

Graph small_cnn() {
  GraphBuilder b("backend-cnn", {3, 16, 16});
  NodeId x = b.input();
  x = b.conv_relu(x, 8, 3, /*stride=*/1, /*padding=*/1, "conv1");
  x = b.max_pool(x, 2, 2, 0, "pool1");
  x = b.conv_relu(x, 16, 3, 1, 1, "conv2");
  x = b.fc(b.flatten(x, "flatten"), 10, "classifier");
  b.softmax(x, "prob");
  return b.build();
}

HardwareConfig fitted(const Graph& graph) {
  return fit_core_count(graph, HardwareConfig::puma_default(),
                        /*headroom=*/3.0);
}

CompileResult compile_small(const std::string& backend) {
  Graph graph = small_cnn();
  HardwareConfig hw = fitted(graph);
  return Compiler(std::move(graph), hw).compile(tiny_options(backend));
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(BackendRegistry, ShipsTheBuiltinBackends) {
  EXPECT_TRUE(BackendRegistry::contains("isa-json"));
  EXPECT_TRUE(BackendRegistry::contains("sim"));
  const std::vector<std::string> keys = BackendRegistry::keys();
  EXPECT_GE(keys.size(), 2u);

  try {
    BackendRegistry::create("no-such-backend");
    FAIL() << "unknown backend key must throw";
  } catch (const ConfigError& e) {
    // The error must teach the fix: it lists what is registered.
    EXPECT_NE(std::string(e.what()).find("isa-json"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("sim"), std::string::npos);
  }
}

TEST(BackendRegistry, OnlySimExecutes) {
  EXPECT_FALSE(BackendRegistry::create("isa-json")->can_execute());
  EXPECT_TRUE(BackendRegistry::create("sim")->can_execute());

  const CompileResult result = compile_small("isa-json");
  ASSERT_NE(result.stream, nullptr);
  EXPECT_THROW(BackendRegistry::create("isa-json")
                   ->execute(*result.stream, HardwareConfig::puma_default()),
               ConfigError);
}

// ---------------------------------------------------------------------------
// Mnemonics.
// ---------------------------------------------------------------------------

/// The ISA mnemonic of each OpKind, as the schema in docs/backends.md
/// names them.
const char* mnemonic(OpKind kind) {
  switch (kind) {
    case OpKind::kMvm: return "MVM";
    case OpKind::kVfu: return "VALU";
    case OpKind::kCommSend: return "SEND";
    case OpKind::kCommRecv: return "RECV";
    case OpKind::kLoadGlobal: return "LOAD";
    case OpKind::kStoreGlobal: return "STORE";
  }
  return "?";
}

TEST(InstructionStream, EveryOpKindRoundTripsThroughItsMnemonic) {
  InstructionStream stream;
  stream.backend = "isa-json";
  stream.ag_count = 1;
  std::vector<Operation> program;
  for (const OpKind kind :
       {OpKind::kMvm, OpKind::kVfu, OpKind::kCommSend, OpKind::kCommRecv,
        OpKind::kLoadGlobal, OpKind::kStoreGlobal}) {
    Operation op;
    op.kind = kind;
    op.ag = 0;
    op.peer = 0;
    program.push_back(op);
  }
  stream.programs = {program};
  stream.total_ops = static_cast<std::int64_t>(program.size());
  stream.spill_bytes = {0};
  stream.peak_local_bytes = {0};

  const Json artifact = stream.to_json();
  const Json& rows = artifact.at("cores").at(std::size_t(0));
  for (std::size_t i = 0; i < program.size(); ++i) {
    EXPECT_EQ(rows.at(i).at(std::size_t(0)).as_string(),
              mnemonic(program[i].kind));
  }
  EXPECT_EQ(InstructionStream::from_json(artifact).programs, stream.programs);

  std::string unknown = stream.to_json_text();
  unknown.replace(unknown.find("\"MVM\""), 5, "\"JMP\"");
  EXPECT_THROW(InstructionStream::from_json(Json::parse(unknown)),
               InstructionStreamError);

  // AG 2^32 would wrap to the valid AG 0 in the 32-bit field.
  const std::string mvm_row = "[\"MVM\",-1,0,";
  std::string wide = stream.to_json_text();
  wide.replace(wide.find(mvm_row), mvm_row.size(),
               "[\"MVM\",-1,4294967296,");
  EXPECT_THROW(InstructionStream::from_json(Json::parse(wide)),
               InstructionStreamError);
}

// ---------------------------------------------------------------------------
// Lowering and round-trips.
// ---------------------------------------------------------------------------

TEST(InstructionStream, CompilerWithoutBackendEmitsNoStream) {
  const CompileResult result = compile_small("");
  EXPECT_EQ(result.stream, nullptr);
  EXPECT_EQ(result.stage_times.lowering, 0.0);
}

TEST(InstructionStream, EveryZooModelLowersAndRoundTrips) {
  for (const std::string& model : zoo::model_names()) {
    SCOPED_TRACE(model);
    Graph graph = zoo::build(model, small_input(model));
    HardwareConfig hw = fitted(graph);
    const CompileResult result =
        Compiler(std::move(graph), hw).compile(tiny_options("isa-json"));

    ASSERT_NE(result.stream, nullptr);
    const InstructionStream& stream = *result.stream;
    EXPECT_EQ(stream.backend, "isa-json");
    EXPECT_NE(stream.mapping_key, 0u);
    EXPECT_EQ(stream.core_count(), result.schedule.core_count());
    EXPECT_EQ(stream.total_ops, result.schedule.total_ops);
    EXPECT_GT(result.stage_times.lowering, 0.0);

    // JSON round-trip: re-parsing (which re-validates) reproduces the
    // exact artifact, so the content fingerprint is stable across hops.
    const Json artifact = stream.to_json();
    const InstructionStream reparsed =
        InstructionStream::from_json(artifact, stream.mapping_key);
    EXPECT_EQ(reparsed.to_json().dump(-1), artifact.dump(-1));
    EXPECT_EQ(reparsed.content_fingerprint(), stream.content_fingerprint());
    EXPECT_TRUE(reparsed == stream);

    // Schedule round-trip: the stream's rows are the schedule's, so the
    // parsed program equals the compiled one and re-lowering it is a
    // fixpoint.
    EXPECT_TRUE(static_cast<const Schedule&>(reparsed) == result.schedule);
    const InstructionStream relowered = InstructionStream::from_schedule(
        reparsed, stream.mode, stream.parallelism_degree, stream.backend,
        stream.mapping_key);
    EXPECT_EQ(relowered.content_fingerprint(), stream.content_fingerprint());
  }
}

// ---------------------------------------------------------------------------
// The DOM-free text writer.
// ---------------------------------------------------------------------------

/// The artifact built node by node through the Json API, the way the
/// encoder worked before the text writer: the reference the writer's bytes
/// are held to.
Json reference_dom(const InstructionStream& stream) {
  const auto int64s = [](const std::vector<std::int64_t>& values) {
    Json array = Json::array();
    for (const std::int64_t v : values) array.push_back(v);
    return array;
  };
  Json json = Json::object();
  json["isa"] = kIsaVersion;
  json["backend"] = stream.backend;
  json["mapping_key"] = cache_key_hex(stream.mapping_key);
  json["mode"] =
      stream.mode == PipelineMode::kHighThroughput ? "ht" : "ll";
  json["parallelism"] = stream.parallelism_degree;
  json["ag_count"] = stream.ag_count;
  json["total_ops"] = stream.total_ops;
  json["spill_bytes"] = int64s(stream.spill_bytes);
  json["peak_local_bytes"] = int64s(stream.peak_local_bytes);
  Json cores = Json::array();
  for (const std::vector<Operation>& program : stream.programs) {
    Json rows = Json::array();
    for (const Operation& op : program) {
      Json row = Json::array();
      row.push_back(mnemonic(op.kind));
      for (const std::int64_t field :
           {std::int64_t{op.node}, std::int64_t{op.ag},
            std::int64_t{op.window}, op.bytes, op.elements,
            std::int64_t{op.peer}, std::int64_t{op.tag},
            std::int64_t{op.xbars}, op.local_usage}) {
        row.push_back(field);
      }
      rows.push_back(std::move(row));
    }
    cores.push_back(std::move(rows));
  }
  json["cores"] = std::move(cores);
  return json;
}

TEST(InstructionStream, TextWriterMatchesTheDomOnEveryZooModelInBothModes) {
  for (const std::string& model : zoo::model_names()) {
    for (const PipelineMode mode :
         {PipelineMode::kHighThroughput, PipelineMode::kLowLatency}) {
      SCOPED_TRACE(model + "/" + to_string(mode));
      Graph graph = zoo::build(model, small_input(model));
      HardwareConfig hw = fitted(graph);
      CompileOptions options = tiny_options("isa-json");
      options.mode = mode;
      const CompileResult result =
          Compiler(std::move(graph), hw).compile(options);
      ASSERT_NE(result.stream, nullptr);
      const std::string text = result.stream->to_json_text();
      EXPECT_EQ(text, result.stream->to_json().dump(-1));
      EXPECT_EQ(text, reference_dom(*result.stream).dump(-1));
    }
  }
}

TEST(InstructionStream, TextWriterMatchesTheDomOnExtremeIntegers) {
  // Not a valid program (the writer never validates): every integer field
  // holds -1, 0 or a value a double cannot represent exactly.
  constexpr std::int64_t kAbove53 = (std::int64_t{1} << 53) + 1;
  InstructionStream stream;
  stream.backend = "isa-json";
  stream.mapping_key = 0xfedcba9876543210ULL;
  stream.mode = PipelineMode::kHighThroughput;
  stream.parallelism_degree = 0;
  stream.ag_count = -1;
  stream.total_ops = kAbove53;
  Operation extreme;
  extreme.kind = OpKind::kCommSend;
  extreme.node = -1;
  extreme.ag = 0;
  extreme.window = std::numeric_limits<std::int32_t>::max();
  extreme.bytes = kAbove53;
  extreme.elements = std::numeric_limits<std::int64_t>::max();
  extreme.peer = std::numeric_limits<std::int32_t>::min();
  extreme.tag = -1;
  extreme.xbars = 0;
  extreme.local_usage = -kAbove53 - 2;
  Operation plain;  // every field at its default: -1s and 0s
  stream.programs = {{extreme, plain}, {}, {plain}};
  stream.spill_bytes = {0, -1, kAbove53};
  stream.peak_local_bytes = {std::numeric_limits<std::int64_t>::min(), 0,
                             (std::int64_t{1} << 62) + 7};

  const std::string text = stream.to_json_text();
  EXPECT_EQ(text, reference_dom(stream).dump(-1));
  EXPECT_EQ(text, stream.to_json().dump(-1));
  EXPECT_NE(text.find("\"mapping_key\":\"fedcba9876543210\""),
            std::string::npos);
  EXPECT_NE(text.find("[],[[\"VALU\",-1,-1,-1,0,0,-1,0,0,-1]]]}"),
            std::string::npos);
}

TEST(InstructionStream, RejectsAForeignMappingKey) {
  const CompileResult result = compile_small("isa-json");
  ASSERT_NE(result.stream, nullptr);
  const Json artifact = result.stream->to_json();

  EXPECT_NO_THROW(
      InstructionStream::from_json(artifact, result.stream->mapping_key));
  try {
    InstructionStream::from_json(artifact,
                                 result.stream->mapping_key ^ 0xdeadbeefULL);
    FAIL() << "a stream bound to another compilation must be rejected";
  } catch (const InstructionStreamError& e) {
    EXPECT_NE(std::string(e.what()).find("bound to mapping"),
              std::string::npos);
  }
}

TEST(InstructionStream, ValidationCatchesTampering) {
  const CompileResult result = compile_small("isa-json");
  ASSERT_NE(result.stream, nullptr);
  const Json artifact = result.stream->to_json();

  {  // Wrong ISA version: a future artifact must not half-parse.
    Json tampered = artifact;
    tampered["isa"] = kIsaVersion + 1;
    EXPECT_THROW(InstructionStream::from_json(tampered),
                 InstructionStreamError);
  }
  {  // total_ops disagreeing with the per-core programs.
    Json tampered = artifact;
    tampered["total_ops"] = tampered.at("total_ops").as_int() + 1;
    EXPECT_THROW(InstructionStream::from_json(tampered),
                 InstructionStreamError);
  }
  {  // An MVM waiting on an AG outside the declared domain.
    Json tampered = artifact;
    tampered["ag_count"] = 0;
    EXPECT_THROW(InstructionStream::from_json(tampered),
                 InstructionStreamError);
  }
  {  // Unparseable binding.
    Json tampered = artifact;
    tampered["mapping_key"] = "not-hex";
    EXPECT_THROW(InstructionStream::from_json(tampered),
                 InstructionStreamError);
  }
}

// ---------------------------------------------------------------------------
// The sim backend is the legacy simulator, bit for bit.
// ---------------------------------------------------------------------------

TEST(SimBackend, BitIdenticalWithLegacySimulatorOnEveryZooModel) {
  for (const std::string& model : zoo::model_names()) {
    SCOPED_TRACE(model);
    Graph graph = zoo::build(model, small_input(model));
    HardwareConfig hw = fitted(graph);
    const CompileResult result =
        Compiler(std::move(graph), hw).compile(tiny_options("sim"));
    ASSERT_NE(result.stream, nullptr);
    EXPECT_EQ(result.stream->backend, "sim");

    SimOptions sim_options;
    sim_options.parallelism_degree = result.options.parallelism_degree;
    sim_options.mode = result.options.mode;
    const SimReport legacy = Simulator(hw, sim_options).run(result.schedule);
    const SimReport replay =
        BackendRegistry::create("sim")->execute(*result.stream, hw);

    // EXPECT_EQ (not NEAR) throughout: the interpreter must execute the
    // same integer/double arithmetic in the same order, so every field —
    // including the accumulated energies — matches exactly.
    EXPECT_EQ(replay.makespan, legacy.makespan);
    EXPECT_EQ(replay.core_finish, legacy.core_finish);
    EXPECT_EQ(replay.core_busy, legacy.core_busy);
    EXPECT_EQ(replay.dynamic_energy.mvm, legacy.dynamic_energy.mvm);
    EXPECT_EQ(replay.dynamic_energy.vfu, legacy.dynamic_energy.vfu);
    EXPECT_EQ(replay.dynamic_energy.local_memory,
              legacy.dynamic_energy.local_memory);
    EXPECT_EQ(replay.dynamic_energy.global_memory,
              legacy.dynamic_energy.global_memory);
    EXPECT_EQ(replay.dynamic_energy.noc, legacy.dynamic_energy.noc);
    EXPECT_EQ(replay.leakage_energy, legacy.leakage_energy);
    EXPECT_EQ(replay.avg_local_memory_bytes, legacy.avg_local_memory_bytes);
    EXPECT_EQ(replay.peak_local_memory_bytes,
              legacy.peak_local_memory_bytes);
    EXPECT_EQ(replay.global_traffic_bytes, legacy.global_traffic_bytes);
    EXPECT_EQ(replay.spill_traffic_bytes, legacy.spill_traffic_bytes);
    EXPECT_EQ(replay.mvm_ops, legacy.mvm_ops);
    EXPECT_EQ(replay.vfu_ops, legacy.vfu_ops);
    EXPECT_EQ(replay.comm_messages, legacy.comm_messages);
    EXPECT_EQ(replay.comm_bytes, legacy.comm_bytes);
    EXPECT_EQ(replay.active_cores, legacy.active_cores);
  }
}

TEST(SimBackend, ReportGoldensArePinnedOnEveryZooModelInBothModes) {
  // The reference simulator's measurements of every zoo model, tiny GA,
  // seed 1, auto-fitted cores. A drift means either the program or the
  // simulator's arithmetic changed: neither may move silently.
  struct GoldenReport {
    Picoseconds makespan;
    const char* total_energy_bits;  ///< total_energy() as IEEE-754 hex
    std::int64_t mvm_ops;
    std::int64_t comm_bytes;
    std::int64_t peak_local_memory_bytes;
  };
  const GoldenReport goldens[] = {
      // One HT row, then one LL row, per model in zoo::model_names() order.
      // The HT rows were re-pinned when the HT scheduler began splitting
      // standalone vector nodes and placing them by core load; the LL rows
      // are unchanged since the goldens were first pinned.
      {165233212, "4216a537be205724", 14656, 3701808, 40960},
      {1046058954, "425300bffed0dca8", 14656, 69473712, 130816},
      {44947256, "41e223d68b7b6c80", 2708, 317808, 24576},
      {505571349, "4222c837d69aa312", 2708, 3259632, 32640},
      {38212287, "41da61879cf020ee", 2327, 211248, 30720},
      {761515575, "42210c7f847812b0", 2327, 1220912, 20864},
      {228742452, "421fdab4c702dd73", 31773, 2457648, 64128},
      {3335088230, "42619abbe7825ac8", 31773, 57262448, 240640},
      {12955947, "41a4857f2d5e105a", 754, 10096, 25088},
      {304915517, "41e715623691170e", 754, 133872, 15680},
  };
  const std::vector<std::string> models = zoo::model_names();
  ASSERT_EQ(std::size(goldens), 2 * models.size());
  const GoldenReport* golden = goldens;
  for (const std::string& model : models) {
    for (const PipelineMode mode :
         {PipelineMode::kHighThroughput, PipelineMode::kLowLatency}) {
      SCOPED_TRACE(model + "/" + to_string(mode));
      Graph graph = zoo::build(model, small_input(model));
      HardwareConfig hw = fitted(graph);
      CompileOptions options = tiny_options("");
      options.mode = mode;
      const CompileResult result =
          Compiler(std::move(graph), hw).compile(options);
      SimOptions sim_options;
      sim_options.parallelism_degree = options.parallelism_degree;
      sim_options.mode = mode;
      const SimReport report = Simulator(hw, sim_options).run(result.schedule);
      EXPECT_EQ(report.makespan, golden->makespan);
      EXPECT_EQ(cache_key_hex(std::bit_cast<std::uint64_t>(
                    report.total_energy())),
                golden->total_energy_bits);
      EXPECT_EQ(report.mvm_ops, golden->mvm_ops);
      EXPECT_EQ(report.comm_bytes, golden->comm_bytes);
      EXPECT_EQ(report.peak_local_memory_bytes,
                golden->peak_local_memory_bytes);
      ++golden;
    }
  }
}

// ---------------------------------------------------------------------------
// Pinned artifact goldens (the kIsaVersion bump protocol).
// ---------------------------------------------------------------------------

TEST(InstructionStream, ContentFingerprintGoldensArePinned) {
  // Two small zoo models, tiny GA, seed 1, auto-fitted cores: if either
  // value drifts, the artifact bytes changed — revert the drift or bump
  // kIsaVersion and re-pin in the same commit.
  struct GoldenCase {
    const char* model;
    const char* fingerprint;
  };
  // Re-pinned when the island-model GA became the default mapper
  // trajectory (ga.islands = 4): the mapping — and therefore the lowered
  // stream — legitimately changed, recorded by the kCacheSchemaVersion
  // bump to v3.
  const GoldenCase cases[] = {
      {"squeezenet", "659ed7bf9701c252"},
      {"resnet18", "24070a180ea26957"},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.model);
    Graph graph = zoo::build(c.model, small_input(c.model));
    HardwareConfig hw = fitted(graph);
    const CompileResult result =
        Compiler(std::move(graph), hw).compile(tiny_options("isa-json"));
    ASSERT_NE(result.stream, nullptr);
    EXPECT_EQ(cache_key_hex(result.stream->content_fingerprint()),
              c.fingerprint);
  }
}

TEST(InstructionStream, PumaArtifactBytesArePinned) {
  // The JSON codec's exact output on a real artifact. The PUMA mapper keeps
  // the GA out of it, so only lowering and the codec decide these bytes: a
  // drift here with the mapping unchanged means the number or string
  // formatting changed, which no cached artifact or peer can tolerate.
  Graph graph = zoo::build("squeezenet", 32);
  graph.finalize();
  const HardwareConfig hw = fitted(graph);
  CompileOptions options = tiny_options("isa-json");
  options.mapper = "puma";
  const std::uint64_t workload_fp =
      combine_fingerprints(fingerprint(graph), fingerprint(hw));
  const std::uint64_t mapping_key =
      combine_fingerprints(workload_fp, fingerprint(options));
  const CompileResult result = Compiler(std::move(graph), hw).compile(options);
  ASSERT_NE(result.stream, nullptr);
  EXPECT_EQ(cache_key_hex(result.stream->content_fingerprint()),
            "25d4b884b95149f4");

  const std::string artifact =
      compile_result_to_artifact(result, workload_fp, mapping_key).dump(-1);
  std::uint64_t fnv1a = 0xcbf29ce484222325ULL;
  for (const char c : artifact) {
    fnv1a = (fnv1a ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  // Re-pinned at kCacheSchemaVersion 4: the artifact stamps its schema.
  EXPECT_EQ(cache_key_hex(fnv1a), "410e5df3fa8ded98");
}

// ---------------------------------------------------------------------------
// Disk-cache round-trip across a session restart.
// ---------------------------------------------------------------------------

TEST(DiskCache, LoweredStreamRoundTripsByteIdentically) {
  TempDir dir;
  CacheConfig cache;
  cache.dir = dir.path;
  CompileOptions options = tiny_options("isa-json");

  std::string cold_artifact;
  {
    CompilerSession session(small_cnn(), fitted(small_cnn()), cache);
    const CompileResult result = session.compile(options);
    ASSERT_NE(result.stream, nullptr);
    cold_artifact = result.stream->to_json().dump(-1);
  }  // every trace of in-process state dies with the session

  {
    CompilerSession session(small_cnn(), fitted(small_cnn()), cache);
    const CompileResult warm = session.compile(options);
    ASSERT_NE(warm.stream, nullptr);
    // Served from disk: no stage ran, and the artifact is byte-identical.
    EXPECT_EQ(warm.stage_times.total(), 0.0);
    EXPECT_EQ(warm.stream->to_json().dump(-1), cold_artifact);
  }

  {
    // A different backend key is a different cache identity: the session
    // must recompile (and re-lower through the requested backend), never
    // serve the isa-json stream.
    CompilerSession session(small_cnn(), fitted(small_cnn()), cache);
    const CompileResult other = session.compile(tiny_options("sim"));
    ASSERT_NE(other.stream, nullptr);
    EXPECT_EQ(other.stream->backend, "sim");
    EXPECT_GT(other.stage_times.total(), 0.0);
  }
}

}  // namespace
}  // namespace pimcomp
