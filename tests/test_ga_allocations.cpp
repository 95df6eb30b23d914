// Steady-state GA breeding allocates nothing: every island recycles its
// child buffers (copy-assignment into same-shaped MappingSolutions, then a
// population/next swap) and its mutation scratch, so the heap traffic of a
// GeneticMapper run is set-up plus a small constant per migration epoch —
// never a cost per bred child or per fitness evaluation.
//
// The check counts every global operator new in this executable (its own
// binary, so the replacement touches nothing else) and compares two runs
// that differ only in their generation budget: initialization is identical
// at equal seeds, so the difference is what the extra generations cost.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "common/thread_pool.hpp"
#include "core/compiler.hpp"
#include "graph/zoo/zoo.hpp"
#include "mapping/genetic_mapper.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pimcomp {
namespace {

constexpr int kPopulation = 16;
constexpr int kGenerations = 20;
constexpr int kMigrationInterval = 5;
/// Allowance per island per migration epoch: the epoch's parallel_for
/// dispatch plus one migrant copy (a solution is four vectors).
constexpr std::uint64_t kPerIslandEpoch = 8;

struct Counted {
  std::uint64_t allocations = 0;
  int evaluations = 0;
};

Counted map_counting(const Workload& workload, PipelineMode mode, int islands,
                 int generations, ThreadPool& pool) {
  GaConfig config;
  config.population = kPopulation;
  config.generations = generations;
  config.islands = islands;
  config.migration_interval = kMigrationInterval;
  GeneticMapper mapper(config);
  MapperOptions options;
  options.mode = mode;
  options.seed = 3;
  options.pool = &pool;
  const std::uint64_t before = g_allocations.load();
  const MappingSolution solution = mapper.map(workload, options);
  const std::uint64_t after = g_allocations.load();
  return {after - before, mapper.last_stats().evaluations};
}

TEST(GaAllocations, ExtraGenerationsCostOnlyPerEpochAllocations) {
  Graph graph = zoo::build("squeezenet", 32);
  const HardwareConfig hw =
      fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
  const Workload workload(graph, hw);
  ThreadPool pool(2);
  for (const auto mode :
       {PipelineMode::kHighThroughput, PipelineMode::kLowLatency}) {
    for (const int islands : {1, 4}) {
      SCOPED_TRACE(to_string(mode) + " islands=" + std::to_string(islands));
      const Counted short_run =
          map_counting(workload, mode, islands, kGenerations, pool);
      const Counted long_run =
          map_counting(workload, mode, islands, 2 * kGenerations, pool);
      const std::uint64_t extra =
          long_run.allocations - std::min(long_run.allocations,
                                          short_run.allocations);
      const int extra_evaluations =
          long_run.evaluations - short_run.evaluations;
      const std::uint64_t extra_epochs = kGenerations / kMigrationInterval;
      ASSERT_GT(extra_evaluations, 0);
      EXPECT_LE(extra, extra_epochs * kPerIslandEpoch *
                           static_cast<std::uint64_t>(islands + 1))
          << extra << " allocations for " << extra_evaluations
          << " extra evaluations";
    }
  }
}

}  // namespace
}  // namespace pimcomp
