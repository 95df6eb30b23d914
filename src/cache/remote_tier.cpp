#include "cache/remote_tier.hpp"

#include <atomic>

#include "cache/cache_store.hpp"

namespace pimcomp {

namespace {

/// Written once from fleet/remote_store.cpp's static initializer, read by
/// every session constructor afterwards; atomic because sessions can be
/// constructed from any thread.
std::atomic<RemoteTierFactory> g_remote_tier_factory{nullptr};

}  // namespace

RemoteTierFactory register_remote_tier_factory(RemoteTierFactory factory) {
  return g_remote_tier_factory.exchange(factory, std::memory_order_acq_rel);
}

std::unique_ptr<CacheStore> make_remote_tier(const CacheConfig& config) {
  RemoteTierFactory factory =
      g_remote_tier_factory.load(std::memory_order_acquire);
  if (factory == nullptr) return nullptr;
  return factory(config);
}

}  // namespace pimcomp
