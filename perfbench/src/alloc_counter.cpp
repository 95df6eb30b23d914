// Counting replacement of the global allocation functions, so a traced run
// can report how many heap allocations a compile stage makes (on every
// thread). Counting is off by default and costs one relaxed load then; when
// on, each thread increments its own cache line, so the GA's island threads
// do not contend on the counter.

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

constexpr std::size_t kShards = 64;

struct alignas(64) Shard {
  std::atomic<std::uint64_t> count{0};
};

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_next_shard{0};
Shard g_shards[kShards];

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    thread_local const std::size_t shard =
        g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
    g_shards[shard].count.fetch_add(1, std::memory_order_relaxed);
  }
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

namespace perfbench {

void set_allocation_counting(bool enabled) {
  g_counting.store(enabled, std::memory_order_relaxed);
}

std::uint64_t allocation_count() {
  std::uint64_t total = 0;
  for (const Shard& shard : g_shards) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench
