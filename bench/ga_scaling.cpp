// Island-model GA scaling: mapping-stage wall clock across an
// islands x threads sweep on inception-v3 and resnet18 (the two Table II
// models whose mapping budgets bracket the zoo), in both pipeline modes.
// Every cell runs the SAME (seed, islands) trajectory at any thread count —
// results are bit-reproducible per cell and the thread axis changes wall
// clock only — so the sweep reports the two effects separately:
//
//   * thread speedup: the cell against the SAME island count on 1 thread —
//     the parallel effect alone (same algorithm, same evaluations);
//   * island effect: the cell against islands=1 on the SAME thread count —
//     the algorithmic effect of splitting the population (different
//     trajectory, different evaluation count), which a single "speedup vs
//     the sequential cell" column would mix into the thread axis;
//   * equal-or-better quality: the final fitness at islands>1 vs the
//     islands=1 sequential trajectory at the same seed and budget. HT
//     cells gate the exit code; LL cells are reported only, because small
//     LL budgets do not keep the island finals at or below the sequential
//     final (the GA moves in LL, where the trajectories really differ).
//
// PIMCOMP_BENCH_JSON=path writes the cells as a machine-readable artifact;
// bench/ga_scaling_baseline.json holds reference numbers (wall clock is
// machine-dependent and deliberately not CI-gated; the CI smoke leg checks
// the artifact's shape and the quality column instead).
//
// Extra knobs on top of bench_common.hpp's:
//   PIMCOMP_BENCH_GA_ISLANDS   comma list of island counts (default 1,2,4,8)
//   PIMCOMP_BENCH_GA_THREADS   comma list of pool sizes (default "1" plus
//                              the hardware thread count)
// Both lists always include 1: it is the reference of the two ratios.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "mapping/genetic_mapper.hpp"

namespace {

/// Sorted, deduplicated positive values of a comma list, always with 1.
std::vector<int> axis_from_env(const char* name, std::vector<int> fallback) {
  std::vector<int> values;
  if (const char* raw = std::getenv(name)) {
    for (const std::string& item : pimcomp::split(raw, ',')) {
      const int value = std::atoi(item.c_str());
      if (value >= 1) values.push_back(value);
    }
  }
  if (values.empty()) values = std::move(fallback);
  values.push_back(1);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

}  // namespace

int main() {
  using namespace pimcomp;
  using namespace pimcomp::bench;
  const BenchConfig cfg = BenchConfig::from_env();

  const std::vector<int> island_counts =
      axis_from_env("PIMCOMP_BENCH_GA_ISLANDS", {1, 2, 4, 8});
  const std::vector<int> thread_counts = axis_from_env(
      "PIMCOMP_BENCH_GA_THREADS", {ThreadPool::hardware_threads()});

  Table table("Island GA mapping scaling, pop " +
              std::to_string(cfg.ga_population) + " x " +
              std::to_string(cfg.ga_generations) + " generations, seed " +
              std::to_string(cfg.seed));
  table.set_header({"model", "mode", "islands", "threads", "mapping s",
                    "thread speedup", "island effect", "final fitness",
                    "evals"});

  Json rows = Json::array();
  bool quality_ok = true;     // HT cells: gates the exit code
  bool ll_quality_ok = true;  // LL cells: reported only
  for (const std::string& name : {std::string("inception-v3"),
                                  std::string("resnet18")}) {
    Graph graph = bench_model(name, cfg);
    const HardwareConfig hw = bench_hardware(graph);
    const Workload workload(graph, hw);

    for (const PipelineMode mode :
         {PipelineMode::kHighThroughput, PipelineMode::kLowLatency}) {
      // Both axes ascend from 1, so each cell's two references — (islands,
      // 1 thread) and (1 island, threads) — are measured before it.
      std::map<std::pair<int, int>, double> seconds_at;
      double sequential_fitness = 0.0;  // islands=1 (any thread count)
      for (const int islands : island_counts) {
        for (const int threads : thread_counts) {
          GaConfig config;
          config.population = cfg.ga_population;
          config.generations = cfg.ga_generations;
          config.islands = islands;
          GeneticMapper mapper(config);
          ThreadPool pool(threads);
          MapperOptions options;
          options.mode = mode;
          options.seed = cfg.seed;
          options.pool = &pool;

          const auto t0 = std::chrono::steady_clock::now();
          mapper.map(workload, options);
          const double seconds =
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
          const GaStats& stats = mapper.last_stats();
          seconds_at[{islands, threads}] = seconds;
          if (islands == 1) sequential_fitness = stats.final_best;
          if (stats.final_best > sequential_fitness) {
            (mode == PipelineMode::kHighThroughput ? quality_ok
                                                   : ll_quality_ok) = false;
          }

          auto ratio = [&](const std::pair<int, int>& reference) {
            return seconds > 0.0 ? seconds_at.at(reference) / seconds : 0.0;
          };
          const double thread_speedup = ratio({islands, 1});
          const double island_effect = ratio({1, threads});

          table.add_row({name, to_string(mode), std::to_string(islands),
                         std::to_string(threads), format_double(seconds, 3),
                         format_ratio(thread_speedup),
                         format_ratio(island_effect),
                         format_double(stats.final_best, 1),
                         std::to_string(stats.evaluations)});
          Json row = Json::object();
          row["model"] = name;
          row["mode"] = to_string(mode);
          row["islands"] = islands;
          row["threads"] = threads;
          row["mapping_s"] = seconds;
          row["thread_speedup"] = thread_speedup;
          row["island_effect"] = island_effect;
          row["final_fitness"] = stats.final_best;
          row["evaluations"] = stats.evaluations;
          rows.push_back(std::move(row));
          std::cout << "." << std::flush;
        }
      }
    }
  }
  std::cout << "\n\n";
  table.print();
  std::cout << "\nthread speedup = same islands on 1 thread / this cell; "
               "island effect = islands=1 on the same threads / this cell\n"
            << "quality: HT island finals " << (quality_ok ? "<=" : "NOT <=")
            << " the sequential (islands=1) final at equal seed; LL (not "
               "gated): "
            << (ll_quality_ok ? "<=" : "NOT <=") << "\n";
  std::cout << "hardware threads: " << ThreadPool::hardware_threads()
            << " (thread speedups are bounded by the machine; the "
               "determinism contract is exercised at every cell "
               "regardless)\n";

  if (const char* json_path = std::getenv("PIMCOMP_BENCH_JSON")) {
    Json artifact = Json::object();
    Json config = Json::object();
    config["population"] = cfg.ga_population;
    config["generations"] = cfg.ga_generations;
    config["seed"] = static_cast<std::int64_t>(cfg.seed);
    config["full"] = cfg.full;
    artifact["config"] = std::move(config);
    artifact["hardware_threads"] = ThreadPool::hardware_threads();
    artifact["cells"] = std::move(rows);
    artifact["quality_ok"] = quality_ok;
    artifact["ll_quality_ok"] = ll_quality_ok;
    try {
      json_to_file(artifact, json_path);
      std::cout << "wrote scaling cells to " << json_path << '\n';
    } catch (const std::exception& e) {
      std::cerr << "failed to write " << json_path << ": " << e.what()
                << '\n';
      return 1;
    }
  }
  return quality_ok ? 0 : 1;
}
