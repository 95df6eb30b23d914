// compile-cold: the paper's Table II compile set, in process. Each sweep
// builds one fresh CompilerSession per model (no cache directory) and
// compiles it in HT then LL mode, each at two GA seeds, at the paper's GA
// budget, one compile at a time. Only the compile() calls are timed; every
// program is validated and simulated outside the timed region.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/instruction_stream.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "core/session.hpp"
#include "graph/zoo/zoo.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pimcomp;

struct Model {
  const char* name;
  int input;
};

// vgg16 runs at 64 px: at 224 its LL compile alone takes ~18 s.
constexpr Model kModels[] = {{"resnet18", 224},
                             {"googlenet", 224},
                             {"squeezenet", 224},
                             {"inception-v3", 299},
                             {"vgg16", 64}};
constexpr PipelineMode kModes[] = {PipelineMode::kHighThroughput,
                                   PipelineMode::kLowLatency};
// Each (model, mode) compiles at two GA seeds drawn from the workload seed:
// the simulated quality of one HT program moves by several percent between
// GA seeds, and two per shape halve that variance in the geometric mean.
constexpr int kSeedsPerShape = 2;
constexpr int kProgramsPerModel = 2 * kSeedsPerShape;
constexpr int kPrograms = 5 * kProgramsPerModel;
// A sweep's set-up takes about 2 ms of CPU; it runs this many times per
// sweep (keeping the last) so that setup_s is a median over many samples.
constexpr int kSetupRepeats = 5;

/// Records the stage spans of the compile running on this thread, and the
/// mapping stage's CPU time and allocations.
class StageRecorder final : public PipelineObserver {
 public:
  explicit StageRecorder(Tracer& tracer) : tracer_(tracer) {}

  void begin_compile(int root, std::uint64_t op) {
    root_ = root;
    op_ = op;
  }

  void on_stage_begin(const StageInfo& info) override {
    start_ = tracer_.now();
    if (info.stage == stage_names::kMapping) {
      cpu_start_ = process_cpu_seconds();
      allocations_start_ = allocation_count();
      set_allocation_counting(true);
    }
  }

  void on_stage_end(const StageInfo& info) override {
    const double end = tracer_.now();
    if (info.stage == stage_names::kMapping) {
      set_allocation_counting(false);
      mapping_cpu += process_cpu_seconds() - cpu_start_;
      mapping_wall += end - start_;
      mapping_allocations += allocation_count() - allocations_start_;
    }
    tracer_.add(layer_of_stage(info.stage), root_, op_, start_, end);
  }

  double mapping_cpu = 0.0;
  double mapping_wall = 0.0;
  std::uint64_t mapping_allocations = 0;

 private:
  Tracer& tracer_;
  int root_ = -1;
  std::uint64_t op_ = 0;
  double start_ = 0.0;
  double cpu_start_ = 0.0;
  std::uint64_t allocations_start_ = 0;
};

std::uint64_t schedule_digest(const CompileResult& result) {
  Digest digest;
  for (std::int64_t gene : result.solution.encode()) {
    digest.add(static_cast<std::uint64_t>(gene));
  }
  for (const std::vector<Operation>& program : result.schedule.programs) {
    digest.add(program.size());
    for (const Operation& op : program) {
      digest.add(static_cast<std::uint64_t>(op.kind))
          .add(static_cast<std::uint64_t>(op.node))
          .add(static_cast<std::uint64_t>(op.ag))
          .add(static_cast<std::uint64_t>(op.window))
          .add(static_cast<std::uint64_t>(op.bytes))
          .add(static_cast<std::uint64_t>(op.elements))
          .add(static_cast<std::uint64_t>(op.peer))
          .add(static_cast<std::uint64_t>(op.tag))
          .add(static_cast<std::uint64_t>(op.xbars))
          .add(static_cast<std::uint64_t>(op.local_usage));
    }
  }
  return digest.value();
}

bool same_report(const SimReport& a, const SimReport& b) {
  return a.makespan == b.makespan && a.core_finish == b.core_finish &&
         a.core_busy == b.core_busy && a.total_energy() == b.total_energy() &&
         a.mvm_ops == b.mvm_ops && a.vfu_ops == b.vfu_ops &&
         a.comm_messages == b.comm_messages && a.comm_bytes == b.comm_bytes &&
         a.global_traffic_bytes == b.global_traffic_bytes;
}

/// First-sweep facts about one program: its digest and simulated quality.
struct Reference {
  std::uint64_t digest = 0;
  double quality = 0.0;  ///< HT: inferences/s; LL: latency in us
};

/// Validates a program, simulates it on the legacy simulator and on the
/// `sim` backend, and checks the two agree. Returns the reference, or an
/// error message.
std::string check_program(const CompilerSession& session,
                          const CompileResult& result, Reference& reference) {
  try {
    result.solution.validate();
    const InstructionStream stream = InstructionStream::from_schedule(
        result.schedule, result.options.mode,
        result.options.parallelism_degree, "sim", 0);
    stream.validate();
    const SimReport legacy = session.simulate(result);
    const SimReport replay = BackendRegistry::create("sim")->execute(
        stream, result.workload->hardware());
    if (!same_report(legacy, replay)) {
      return "legacy simulator and sim backend disagree";
    }
    reference.digest = schedule_digest(result);
    reference.quality = result.options.mode == PipelineMode::kHighThroughput
                            ? legacy.throughput_per_sec()
                            : to_seconds(legacy.makespan) * 1e6;
    if (!(reference.quality > 0.0)) return "simulated quality is not positive";
    return {};
  } catch (const std::exception& e) {
    return std::string("invalid program: ") + e.what();
  }
}

}  // namespace

Report run_compile_cold(const RunConfig& config, Tracer& tracer) {
  Report report;
  Oracle oracle;
  StageRecorder recorder(tracer);
  Digest run_digest;
  EndToEnd measured;

  std::vector<Reference> references(kPrograms);
  std::vector<double> compile_ms, traced_sweep_s, untraced_sweep_s;
  std::map<std::string, std::vector<double>> layer;  // one entry per traced sweep

  const auto start = Clock::now();
  std::uint64_t op = 0;
  for (int sweep = 0;; ++sweep) {
    if (seconds_between(start, Clock::now()) >= config.seconds &&
        sweep >= (config.trace ? 2 : 1)) {
      break;
    }
    throw_if_interrupted();
    // A traced run alternates untraced and traced sweeps; the difference
    // between the two is the tracing overhead.
    const bool traced = config.trace && sweep % 2 == 1;

    reset_peak_rss();
    // Set-up: graphs, hardware fit, sessions.
    std::vector<std::unique_ptr<CompilerSession>> sessions;
    for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
      sessions.clear();
      const double setup_cpu = process_cpu_seconds();
      for (const Model& model : kModels) {
        Graph graph = zoo::build(model.name, model.input);
        const HardwareConfig hw =
            fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
        sessions.push_back(
            std::make_unique<CompilerSession>(std::move(graph), hw));
      }
      measured.setup_cpu_s.push_back(process_cpu_seconds() - setup_cpu);
    }

    const std::size_t first_span = tracer.size();
    recorder.mapping_cpu = recorder.mapping_wall = 0.0;
    recorder.mapping_allocations = 0;
    double sweep_seconds = 0.0, evaluations = 0.0, ops = 0.0, sim_ops = 0.0;
    std::vector<double> gain[2];
    for (int p = 0; p < kPrograms; ++p, ++op) {
      throw_if_interrupted();
      const int m = p / kProgramsPerModel;
      const int mode = (p % kProgramsPerModel) / kSeedsPerShape;
      const Model& model = kModels[m];
      CompilerSession& session = *sessions[static_cast<std::size_t>(m)];
      CompileOptions options;
      options.mode = kModes[mode];
      options.parallelism_degree = 20;
      options.seed = split_seed(config.seed, static_cast<std::uint64_t>(p) + 1);

      session.set_observer(traced ? &recorder : nullptr);
      const int root = traced ? tracer.open("compile", -1, op) : -1;
      recorder.begin_compile(root, op);
      const double cpu0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      const CompileResult result = session.compile(options);
      const double seconds = seconds_between(t0, Clock::now());
      measured.op_cpu_s += process_cpu_seconds() - cpu0;
      ++measured.ops;
      if (traced) tracer.finish(root);
      session.set_observer(nullptr);

      compile_ms.push_back(seconds * 1e3);
      sweep_seconds += seconds;
      evaluations += result.ga_stats.evaluations;
      ops += static_cast<double>(result.schedule.total_ops);
      if (result.ga_stats.final_best > 0.0) {
        gain[mode].push_back(result.ga_stats.initial_best /
                              result.ga_stats.final_best);
      }

      if (traced) {
        // The simulator's cost on this program, outside the compile and
        // outside every end-to-end time.
        const int span = tracer.open("sim", -1, op);
        (void)session.simulate(result);
        tracer.finish(span);
        sim_ops += static_cast<double>(result.schedule.total_ops);
      }

      // Outside the timed region: the oracle. The first sweep validates and
      // simulates every program; later sweeps compile the same inputs and
      // must reproduce them exactly.
      Reference& reference = references[static_cast<std::size_t>(p)];
      if (sweep == 0) {
        const std::string error = check_program(session, result, reference);
        oracle.check(error.empty(), std::string(model.name) + ": " + error);
        run_digest.add(reference.digest);
        (mode == 0 ? measured.ht_ips : measured.ll_us).push_back(reference.quality);
        measured.code_ops.push_back(static_cast<double>(result.schedule.total_ops));
      } else {
        oracle.check(schedule_digest(result) == reference.digest,
                     std::string(model.name) +
                         ": compile differs from the first sweep at one seed");
      }
    }
    measured.peak_rss_mib.push_back(peak_rss_mib());
    (traced ? traced_sweep_s : untraced_sweep_s).push_back(sweep_seconds);
    if (!traced) continue;

    std::map<std::string, double> self = tracer.self_seconds(first_span);
    layer["mapping.s"].push_back(self["mapping"]);
    layer["schedule.s"].push_back(self["schedule"]);
    layer["partition.s"].push_back(self["partition"]);
    layer["backend.lower_s"].push_back(self["backend"]);
    layer["unattributed.s"].push_back(self["compile"]);
    layer["mapping.evaluations"].push_back(evaluations);
    layer["mapping.evals_per_s"].push_back(
        self["mapping"] > 0.0 ? evaluations / self["mapping"] : 0.0);
    layer["mapping.cpu_per_wall"].push_back(
        recorder.mapping_wall > 0.0 ? recorder.mapping_cpu / recorder.mapping_wall
                                    : 0.0);
    layer["mapping.allocations"].push_back(
        static_cast<double>(recorder.mapping_allocations));
    layer["mapping.gain_over_seed.ht"].push_back(geomean(gain[0]));
    layer["mapping.gain_over_seed.ll"].push_back(geomean(gain[1]));
    layer["schedule.ops"].push_back(ops);
    layer["sim.s"].push_back(self["sim"]);
    layer["sim.ops"].push_back(sim_ops);
  }

  report_end_to_end(report, measured);
  std::vector<double> sweep_s = untraced_sweep_s;
  sweep_s.insert(sweep_s.end(), traced_sweep_s.begin(), traced_sweep_s.end());
  double total_seconds = 0.0;
  for (double s : sweep_s) total_seconds += s;
  std::vector<double> compile_s;
  for (double ms : compile_ms) compile_s.push_back(ms / 1e3);
  report.add_detail("compile_s_p50", median(compile_s), "s", compile_s.size());
  add_tail_detail(report, "compile_s_p75", compile_s, 0.75, "s");
  report.add_detail("sweep_s", median(sweep_s), "s", sweep_s.size());
  report.add_detail("compiles_per_s", static_cast<double>(compile_ms.size()) / total_seconds,
                    "1/s", compile_ms.size());
  report.add_detail("ht_throughput_ips", geomean(measured.ht_ips), "1/s",
                    measured.ht_ips.size());
  report.add_detail("ll_latency_us", geomean(measured.ll_us), "us", measured.ll_us.size());

  if (config.trace) {
    LayerValues values;
    for (const auto& [name, per_sweep] : layer) {
      values.set(name, median(per_sweep), per_sweep.size());
    }
    values.set("trace.overhead",
               median(traced_sweep_s) / median(untraced_sweep_s) - 1.0,
               traced_sweep_s.size() + untraced_sweep_s.size());
    values.emit(report);
  }

  report.attempted = oracle.attempted();
  report.failed = oracle.failed();
  report.result_digest = run_digest.value();
  return report;
}

}  // namespace perfbench
