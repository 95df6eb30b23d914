#ifndef PIMCOMP_CACHE_TIERED_STORE_HPP
#define PIMCOMP_CACHE_TIERED_STORE_HPP

#include <memory>
#include <vector>

#include "cache/cache_store.hpp"

namespace pimcomp {

/// Read-through / write-through composition of cache tiers, fastest first
/// (the session composes InMemoryStore over DiskStore over a peer tier):
///  * load() consults tiers in order and reports the first hit with that
///    tier's source attribution and index (CacheHit::tier). It does NOT
///    auto-promote: a deeper tier's artifact is only JSON, and promotion
///    without the decoded object would poison the fast tier with entries
///    that still need parsing. The caller decodes the artifact and
///    promote()s the enriched entry back.
///  * promote() fills only the tiers above the one that served the hit: a
///    remote hit fills memory and disk, a disk hit fills memory. The
///    serving tier and everything below it already hold the artifact, so
///    a hit never rewrites a file or re-sends the artifact to a peer.
///  * store() is for freshly computed results: it writes through every
///    tier, peers included, and returns the deepest tier that newly
///    accepted the entry (nullptr when none did).
/// Thread-safe because every tier is.
class TieredStore final : public CacheStore {
 public:
  explicit TieredStore(std::vector<std::unique_ptr<CacheStore>> tiers);

  const char* name() const override { return "tiered"; }

  std::optional<CacheHit> load(std::uint64_t key) override;
  const char* store(std::uint64_t key, const CacheEntry& entry) override;
  const char* promote(std::uint64_t key, const CacheEntry& entry,
                      std::size_t hit_tier) override;
  void erase(std::uint64_t key) override;
  std::uint64_t purge() override;
  /// Aggregated counters; `entries` is the deepest (most complete) tier's.
  CacheStoreStats stats() const override;

  std::size_t tier_count() const { return tiers_.size(); }
  CacheStore& tier(std::size_t i) { return *tiers_[i]; }
  const CacheStore& tier(std::size_t i) const { return *tiers_[i]; }

 private:
  std::vector<std::unique_ptr<CacheStore>> tiers_;
};

}  // namespace pimcomp

#endif  // PIMCOMP_CACHE_TIERED_STORE_HPP
