#ifndef PIMCOMP_CACHE_REMOTE_TIER_HPP
#define PIMCOMP_CACHE_REMOTE_TIER_HPP

#include <memory>

namespace pimcomp {

struct CacheConfig;  // cache/cache_config.hpp
class CacheStore;    // cache/cache_store.hpp

/// Builds the network cache tier for a CacheConfig with peers, or nullptr
/// when none is registered. This is a dependency-inversion seam: the
/// session (src/core/) composes its tier stack against the CacheStore
/// interface only, and the concrete fleet::RemoteStore (src/fleet/)
/// registers itself here at static-init time — the same direction-flip the
/// mapper/scheduler/backend registries use, keeping the include DAG free
/// of a core -> fleet edge (enforced by pimcomp-analyze --checker
/// layering). Binaries that never link src/fleet/ (unit tests, the bare
/// compiler CLI) simply get nullptr and must not enable peers.
std::unique_ptr<CacheStore> make_remote_tier(const CacheConfig& config);

/// Factory signature: must honor RemoteStore's contract (best-effort
/// network store over CacheConfig::peers; see fleet/remote_store.hpp).
using RemoteTierFactory =
    std::unique_ptr<CacheStore> (*)(const CacheConfig& config);

/// Installs `factory` as the remote-tier builder (latest registration
/// wins; nullptr uninstalls) and returns the one it replaced, so a caller
/// that swaps in its own can put the previous one back. Called from a
/// static initializer in the registering TU, mirroring
/// PIMCOMP_REGISTER_MAPPER's idiom.
RemoteTierFactory register_remote_tier_factory(RemoteTierFactory factory);

}  // namespace pimcomp

#endif  // PIMCOMP_CACHE_REMOTE_TIER_HPP
