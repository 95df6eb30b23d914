// Reproduces Fig 8: normalized throughput (HT mode, top) and normalized
// speed (LL mode, bottom) of PIMCOMP vs the PUMA-like baseline across
// parallelism degrees {1, 20, 40, 200, 2000} for the five benchmark
// networks. Values are PUMA-time / PIMCOMP-time, i.e. PUMA-like == 1.00x.
//
// PIMCOMP_BENCH_JSON=path also writes every cell's absolute simulated
// makespans (GA and PUMA, in us), so a scheduler change that moves both
// mappers alike still shows up.

#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace pimcomp;
using namespace pimcomp::bench;

// Fig 8 reference series from the paper, for side-by-side comparison.
struct PaperRow {
  const char* model;
  double ht[5];
  double ll[5];
};
constexpr PaperRow kPaper[] = {
    {"vgg16", {3.9, 3.1, 2.0, 1.5, 1.5}, {3.1, 2.6, 2.5, 2.5, 2.5}},
    {"resnet18", {2.0, 1.8, 1.4, 1.3, 1.3}, {4.9, 3.9, 3.8, 3.6, 3.6}},
    {"googlenet", {1.4, 1.2, 1.2, 1.2, 1.2}, {2.6, 1.8, 1.7, 1.6, 1.6}},
    {"inception-v3", {2.0, 1.3, 1.3, 1.3, 1.3}, {2.3, 2.2, 2.2, 2.2, 2.2}},
    {"squeezenet", {1.4, 1.5, 1.4, 1.4, 1.4}, {2.6, 2.1, 2.0, 1.9, 1.8}},
};

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  const std::vector<int> parallelism = {1, 20, 40, 200, 2000};
  Json cells = Json::array();

  for (PipelineMode mode :
       {PipelineMode::kHighThroughput, PipelineMode::kLowLatency}) {
    const bool ht = mode == PipelineMode::kHighThroughput;
    Table table(std::string("Fig 8 (") + (ht ? "top" : "bottom") +
                "): normalized " + (ht ? "throughput" : "speed") + " in " +
                to_string(mode) + " mode (PUMA-like = 1.00x)");
    std::vector<std::string> header = {"model"};
    for (int p : parallelism) header.push_back("P=" + std::to_string(p));
    header.push_back("paper P=1");
    header.push_back("paper P=2000");
    table.set_header(header);

    int model_index = 0;
    for (const std::string& name : zoo::model_names()) {
      // One session per model: the ten runs below share one partitioning.
      CompilerSession session = bench_session(name, cfg);
      std::vector<std::string> row = {name};
      for (int p : parallelism) {
        const RunOutcome ga =
            run_one(session, bench_options(cfg, mode, p, "ga"));
        const RunOutcome puma =
            run_one(session, bench_options(cfg, mode, p, "puma"));
        const double ratio = static_cast<double>(puma.sim.makespan) /
                             static_cast<double>(ga.sim.makespan);
        row.push_back(format_ratio(ratio));
        Json cell = Json::object();
        cell["model"] = name;
        cell["mode"] = to_string(mode);
        cell["parallelism"] = p;
        cell["ga_makespan_us"] = to_us(ga.sim.makespan);
        cell["puma_makespan_us"] = to_us(puma.sim.makespan);
        cells.push_back(std::move(cell));
      }
      const PaperRow& paper = kPaper[model_index++];
      const double* series = ht ? paper.ht : paper.ll;
      row.push_back(format_ratio(series[0], 1));
      row.push_back(format_ratio(series[4], 1));
      table.add_row(row);
      std::cout << "." << std::flush;
    }
    std::cout << "\n\n";
    table.print();
    std::cout << '\n';
  }
  std::cout << "Paper headline: PIMCOMP gains 1.6x throughput (HT) and 2.4x "
               "latency (LL) on average over PUMA-like; improvements shrink "
               "as the parallelism degree grows.\n";

  if (const char* json_path = std::getenv("PIMCOMP_BENCH_JSON")) {
    Json artifact = Json::object();
    Json config = Json::object();
    config["population"] = cfg.ga_population;
    config["generations"] = cfg.ga_generations;
    config["seed"] = static_cast<std::int64_t>(cfg.seed);
    config["full"] = cfg.full;
    artifact["config"] = std::move(config);
    artifact["hardware_threads"] = ThreadPool::hardware_threads();
    artifact["cells"] = std::move(cells);
    try {
      json_to_file(artifact, json_path);
      std::cout << "wrote makespans to " << json_path << '\n';
    } catch (const std::exception& e) {
      std::cerr << "failed to write " << json_path << ": " << e.what()
                << '\n';
      return 1;
    }
  }
  return 0;
}
