// Times the lowering stage in isolation: compile each benchmark network
// once (three classic stages, no backend), then repeatedly lower the
// compiled schedule through the `isa-json` backend and round-trip the
// resulting artifact through its JSON codec — stream to text (the DOM-free
// writer), stream to DOM, DOM to text, text to DOM, the header-only read a
// router makes of the artifact frame, DOM to stream: the costs a
// lowering-enabled compile, the disk cache, and the serve protocol's v4
// artifact frames add on top of a plain compile. The writer's text must
// equal the DOM's dump byte for byte (the bench exits non-zero otherwise).
// A final column executes the stream through the `sim` backend against the
// simulator run on the original schedule; both run the one Simulator, so
// the two reports must stay bit-identical (the bench aborts otherwise).
//
// PIMCOMP_BENCH_JSON=path writes the measurements as a machine-readable
// artifact (one row per model), same idiom as table2_compile_time.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "backend/backend.hpp"
#include "backend/instruction_stream.hpp"
#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"  // seconds_since
#include "serve/protocol.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace pimcomp;
  using namespace pimcomp::bench;
  const BenchConfig cfg = BenchConfig::from_env();
  constexpr int kReps = 5;

  Table table("Backend lowering: schedule -> InstructionStream, GA pop " +
              std::to_string(cfg.ga_population) + " x " +
              std::to_string(cfg.ga_generations) + " generations");
  table.set_header({"model", "ops", "cores", "lower (ms)", "write (ms)",
                    "to_json (ms)", "dump (ms)", "parse (ms)",
                    "fields (ms)", "from_json (ms)", "artifact KiB",
                    "sim exec (ms)", "legacy sim (ms)"});

  const std::unique_ptr<Backend> emitter = BackendRegistry::create("isa-json");
  const std::unique_ptr<Backend> executor = BackendRegistry::create("sim");
  Json rows = Json::array();

  for (const std::string& name : zoo::model_names()) {
    Graph graph = bench_model(name, cfg);
    const HardwareConfig hw = bench_hardware(graph);
    CompilerSession session(std::move(graph), hw);
    const CompileOptions options =
        bench_options(cfg, PipelineMode::kLowLatency, 4);
    const CompileResult result = session.compile(options);

    LowerInput input;
    input.schedule = &result.schedule;
    input.solution = &result.solution;
    input.graph = &session.graph();
    input.hardware = &hw;
    input.options = &result.options;

    // Best-of-kReps for each leg: lowering, then the six codec legs.
    double lower_s = 0.0, write_s = 0.0, encode_s = 0.0, dump_s = 0.0,
           parse_s = 0.0, fields_s = 0.0, decode_s = 0.0;
    InstructionStream stream;
    std::string text;
    const auto keep_best = [](int rep, double seconds, double& best) {
      if (rep == 0 || seconds < best) best = seconds;
    };
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      stream = emitter->lower(input);
      keep_best(rep, seconds_since(t0), lower_s);

      t0 = std::chrono::steady_clock::now();
      const std::string written = stream.to_json_text();
      keep_best(rep, seconds_since(t0), write_s);

      t0 = std::chrono::steady_clock::now();
      const Json artifact = stream.to_json();
      keep_best(rep, seconds_since(t0), encode_s);

      t0 = std::chrono::steady_clock::now();
      text = artifact.dump(-1);
      keep_best(rep, seconds_since(t0), dump_s);
      if (written != text) {
        std::cerr << name << ": to_json_text() differs from "
                  << "to_json().dump(-1)\n";
        return 1;
      }

      t0 = std::chrono::steady_clock::now();
      const Json reparsed = Json::parse(text);
      keep_best(rep, seconds_since(t0), parse_s);

      const std::string frame = serve::artifact_frame_line(1, name, 0, text);
      t0 = std::chrono::steady_clock::now();
      const Json header = Json::parse_fields(frame, {"type", "index"});
      keep_best(rep, seconds_since(t0), fields_s);
      if (header.get("type", std::string()) != "artifact") return 1;

      t0 = std::chrono::steady_clock::now();
      const InstructionStream parsed = InstructionStream::from_json(reparsed);
      keep_best(rep, seconds_since(t0), decode_s);
      if (parsed.total_ops != stream.total_ops) return 1;  // defensive
    }
    const std::size_t artifact_bytes = text.size();

    auto t0 = std::chrono::steady_clock::now();
    const SimReport backend_sim = executor->execute(stream, hw);
    const double exec_s = seconds_since(t0);

    SimOptions sim_options;
    sim_options.parallelism_degree = result.options.parallelism_degree;
    sim_options.mode = result.options.mode;
    t0 = std::chrono::steady_clock::now();
    const SimReport legacy = Simulator(hw, sim_options).run(result.schedule);
    const double legacy_s = seconds_since(t0);

    if (backend_sim.to_string() != legacy.to_string()) {
      std::cerr << name << ": the lowered stream simulated differently "
                << "from its schedule\n";
      return 1;
    }

    table.add_row(
        {name, std::to_string(stream.total_ops),
         std::to_string(stream.core_count()),
         format_double(lower_s * 1e3, 2), format_double(write_s * 1e3, 2),
         format_double(encode_s * 1e3, 2), format_double(dump_s * 1e3, 2),
         format_double(parse_s * 1e3, 2), format_double(fields_s * 1e3, 2),
         format_double(decode_s * 1e3, 2),
         format_double(static_cast<double>(artifact_bytes) / 1024.0, 1),
         format_double(exec_s * 1e3, 2), format_double(legacy_s * 1e3, 2)});

    Json row = Json::object();
    row["model"] = name;
    row["total_ops"] = stream.total_ops;
    row["cores"] = stream.core_count();
    row["lower_s"] = lower_s;
    row["write_s"] = write_s;
    row["to_json_s"] = encode_s;
    row["dump_s"] = dump_s;
    row["parse_s"] = parse_s;
    row["parse_fields_s"] = fields_s;
    row["from_json_s"] = decode_s;
    row["artifact_bytes"] = static_cast<std::int64_t>(artifact_bytes);
    row["sim_execute_s"] = exec_s;
    row["legacy_sim_s"] = legacy_s;
    rows.push_back(std::move(row));
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n";
  table.print();
  std::cout << "\nLowering and every codec leg are linear in the "
               "instruction count and stay far below one mapping "
               "generation; the sim backend reports on the stream what "
               "the simulator reports on the schedule, bit for bit.\n";

  if (const char* json_path = std::getenv("PIMCOMP_BENCH_JSON")) {
    Json out = Json::object();
    Json config = Json::object();
    config["population"] = cfg.ga_population;
    config["generations"] = cfg.ga_generations;
    config["seed"] = static_cast<std::int64_t>(cfg.seed);
    config["full"] = cfg.full;
    config["reps"] = kReps;
    out["config"] = std::move(config);
    out["models"] = std::move(rows);
    try {
      json_to_file(out, json_path);
      std::cout << "wrote lowering timings to " << json_path << '\n';
    } catch (const std::exception& e) {
      std::cerr << "failed to write " << json_path << ": " << e.what()
                << '\n';
      return 1;
    }
  }
  return 0;
}
