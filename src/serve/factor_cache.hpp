// Byte-accounted LRU cache of completed SchurSolver setups — the
// amortization layer of the solve service. The paper's setup phase
// (partition + subdomain LUs + approximate Schur preconditioner) dominates
// a single solve by orders of magnitude; serving repeated or related
// systems is only fast if that work is reused. Reuse ladder per request:
//   1. full hit   — same pattern, same values, same setup options: the
//                   cached factored solver answers immediately (const,
//                   any number of concurrent solves);
//   2. symbolic   — same pattern + options, new values: the cached DBBD
//                   partition is adopted, only factor() is redone;
//   3. cold       — new pattern: full setup() + factor().
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/schur_solver.hpp"
#include "serve/fingerprint.hpp"

namespace pdslin::serve {

/// One completed setup: a factored solver shared read-only between
/// concurrent solves, plus a pool of SolveContexts so steady-state solves
/// against a hot entry allocate nothing.
class CachedSetup {
 public:
  CachedSetup(SetupKey key, std::shared_ptr<const SchurSolver> solver)
      : key_(key), solver_(std::move(solver)),
        bytes_(solver_->memory_bytes()) {}

  [[nodiscard]] const SetupKey& key() const { return key_; }
  [[nodiscard]] const SchurSolver& solver() const { return *solver_; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

  /// Pop a prepared solve context (or make a fresh one on first use /
  /// under contention). Give it back with return_context() so the next
  /// solve reuses the buffers.
  std::unique_ptr<SchurSolver::SolveContext> take_context();
  void return_context(std::unique_ptr<SchurSolver::SolveContext> ctx);

 private:
  SetupKey key_;
  std::shared_ptr<const SchurSolver> solver_;
  std::size_t bytes_ = 0;
  std::mutex mu_;
  std::vector<std::unique_ptr<SchurSolver::SolveContext>> contexts_;
};

struct FactorCacheConfig {
  /// Byte budget over all cached setups (SchurSolver::memory_bytes sums).
  std::size_t capacity_bytes = std::size_t{512} << 20;
  /// Entry-count ceiling, independent of bytes.
  std::size_t max_entries = 64;
};

struct FactorCacheStats {
  long long hits = 0;
  long long misses = 0;
  long long symbolic_hits = 0;   // partition reused, values re-factored
  long long evictions = 0;
  long long insert_rejects = 0;  // entry larger than the whole budget
  std::size_t bytes = 0;
  std::size_t entries = 0;
};

/// Thread-safe LRU keyed by SetupKey. Entries referenced outside the cache
/// (an in-flight solve holds the shared_ptr) are never evicted — eviction
/// skips them and keeps scanning from the cold end. Hit/miss/eviction/bytes
/// counters are mirrored into the obs metrics registry under
/// "serve.cache.*".
class FactorCache {
 public:
  explicit FactorCache(FactorCacheConfig cfg = {});

  /// Full-key lookup for a request with incidence hash `incidence`
  /// (incidence_hash_of): an entry partitioned on another incidence
  /// (DbbdPartition::incidence_hash) is a miss. Without one, the key's entry
  /// whatever its incidence. A hit refreshes recency and pins the entry
  /// (shared_ptr).
  std::shared_ptr<CachedSetup> find(
      const SetupKey& key, std::optional<std::uint64_t> incidence = {});

  /// Partition of the last setup completed in the same symbolic class
  /// (pattern + options, values ignored), when it was partitioned on
  /// `incidence`. Survives numeric eviction: the partition itself is tiny
  /// next to the factors.
  std::shared_ptr<const DbbdPartition> find_partition(const SetupKey& key,
                                                      std::uint64_t incidence);

  /// Insert a finished setup, evicting cold unpinned entries until it fits;
  /// also records the setup's partition for symbolic reuse. Returns false
  /// (and does not cache) when the entry exceeds the whole byte budget or
  /// pinned entries block enough space. Re-inserting an existing key
  /// replaces the old entry.
  bool insert(const std::shared_ptr<CachedSetup>& setup);

  [[nodiscard]] FactorCacheStats stats() const;
  [[nodiscard]] const FactorCacheConfig& config() const { return cfg_; }
  void clear();

 private:
  void export_gauges_locked() const;

  FactorCacheConfig cfg_;
  mutable std::mutex mu_;
  /// Front = hottest. The index maps keys to list positions.
  std::list<std::shared_ptr<CachedSetup>> lru_;
  std::map<SetupKey, std::list<std::shared_ptr<CachedSetup>>::iterator> index_;
  /// Symbolic class → partition, kept past numeric eviction (bounded at
  /// 4 × max_entries; coldest-key order is not tracked — arbitrary member
  /// dropped on overflow).
  std::map<SetupKey, std::shared_ptr<const DbbdPartition>> partitions_;
  std::size_t bytes_ = 0;
  FactorCacheStats stats_;
};

}  // namespace pdslin::serve
