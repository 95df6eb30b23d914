#include "cache/tiered_store.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace pimcomp {

TieredStore::TieredStore(std::vector<std::unique_ptr<CacheStore>> tiers)
    : tiers_(std::move(tiers)) {
  PIMCOMP_CHECK(!tiers_.empty(), "TieredStore needs at least one tier");
  for (const std::unique_ptr<CacheStore>& tier : tiers_) {
    PIMCOMP_CHECK(tier != nullptr, "TieredStore tier must not be null");
  }
}

std::optional<CacheHit> TieredStore::load(std::uint64_t key) {
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (std::optional<CacheHit> hit = tiers_[i]->load(key)) {
      hit->tier = i;
      return hit;
    }
  }
  return std::nullopt;
}

const char* TieredStore::store(std::uint64_t key, const CacheEntry& entry) {
  return promote(key, entry, tiers_.size());
}

const char* TieredStore::promote(std::uint64_t key, const CacheEntry& entry,
                                 std::size_t hit_tier) {
  const char* deepest = nullptr;
  for (std::size_t i = 0; i < std::min(hit_tier, tiers_.size()); ++i) {
    if (const char* stored = tiers_[i]->store(key, entry)) deepest = stored;
  }
  return deepest;
}

void TieredStore::erase(std::uint64_t key) {
  for (std::unique_ptr<CacheStore>& tier : tiers_) tier->erase(key);
}

std::uint64_t TieredStore::purge() {
  std::uint64_t dropped = 0;
  for (std::unique_ptr<CacheStore>& tier : tiers_) dropped += tier->purge();
  return dropped;
}

CacheStoreStats TieredStore::stats() const {
  CacheStoreStats total;
  for (const std::unique_ptr<CacheStore>& tier : tiers_) {
    const CacheStoreStats stats = tier->stats();
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.stores += stats.stores;
    total.evictions += stats.evictions;
    total.bytes += stats.bytes;
    total.entries = stats.entries;  // deepest tier wins
  }
  return total;
}

}  // namespace pimcomp
