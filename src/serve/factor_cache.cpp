#include "serve/factor_cache.hpp"

#include "obs/metrics.hpp"

namespace pdslin::serve {

std::unique_ptr<SchurSolver::SolveContext> CachedSetup::take_context() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!contexts_.empty()) {
      auto ctx = std::move(contexts_.back());
      contexts_.pop_back();
      return ctx;
    }
  }
  auto ctx = std::make_unique<SchurSolver::SolveContext>();
  solver_->prepare_context(*ctx);
  return ctx;
}

void CachedSetup::return_context(
    std::unique_ptr<SchurSolver::SolveContext> ctx) {
  if (!ctx) return;
  std::lock_guard<std::mutex> lock(mu_);
  contexts_.push_back(std::move(ctx));
}

FactorCache::FactorCache(FactorCacheConfig cfg) : cfg_(cfg) {}

std::shared_ptr<CachedSetup> FactorCache::find(
    const SetupKey& key, std::optional<std::uint64_t> incidence) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() ||
      (incidence &&
       (*it->second)->solver().partition().incidence_hash != *incidence)) {
    ++stats_.misses;
    obs::counter("serve.cache.misses").add();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  it->second = lru_.begin();
  ++stats_.hits;
  obs::counter("serve.cache.hits").add();
  return *it->second;
}

std::shared_ptr<const DbbdPartition> FactorCache::find_partition(
    const SetupKey& key, std::uint64_t incidence) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = partitions_.find(key.symbolic());
  if (it == partitions_.end() || it->second->incidence_hash != incidence) {
    return nullptr;
  }
  ++stats_.symbolic_hits;
  obs::counter("serve.cache.symbolic_hits").add();
  return it->second;
}

bool FactorCache::insert(const std::shared_ptr<CachedSetup>& setup) {
  std::lock_guard<std::mutex> lock(mu_);

  // Record the partition for symbolic reuse regardless of whether the
  // numeric entry fits — it is the cheap half of the setup.
  if (partitions_.size() >= 4 * cfg_.max_entries &&
      !partitions_.count(setup->key().symbolic())) {
    partitions_.erase(partitions_.begin());
  }
  partitions_[setup->key().symbolic()] =
      std::make_shared<const DbbdPartition>(setup->solver().partition());

  if (auto old = index_.find(setup->key()); old != index_.end()) {
    bytes_ -= (*old->second)->bytes();
    lru_.erase(old->second);
    index_.erase(old);
  }

  if (setup->bytes() > cfg_.capacity_bytes) {
    ++stats_.insert_rejects;
    obs::counter("serve.cache.insert_rejects").add();
    export_gauges_locked();
    return false;
  }

  // Evict cold unpinned entries until the newcomer fits. An entry whose
  // use_count exceeds 1 is held by an in-flight solve and must survive —
  // skip it and keep scanning toward the hot end.
  auto evictable = [](const std::shared_ptr<CachedSetup>& e) {
    return e.use_count() == 1;
  };
  auto it = lru_.end();
  while ((bytes_ + setup->bytes() > cfg_.capacity_bytes ||
          lru_.size() >= cfg_.max_entries) &&
         it != lru_.begin()) {
    --it;
    if (!evictable(*it)) continue;
    bytes_ -= (*it)->bytes();
    index_.erase((*it)->key());
    it = lru_.erase(it);
    ++stats_.evictions;
    obs::counter("serve.cache.evictions").add();
  }
  if (bytes_ + setup->bytes() > cfg_.capacity_bytes ||
      lru_.size() >= cfg_.max_entries) {
    // Pinned entries block the budget; serve the setup un-cached.
    ++stats_.insert_rejects;
    obs::counter("serve.cache.insert_rejects").add();
    export_gauges_locked();
    return false;
  }

  lru_.push_front(setup);
  index_[setup->key()] = lru_.begin();
  bytes_ += setup->bytes();
  export_gauges_locked();
  return true;
}

FactorCacheStats FactorCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FactorCacheStats s = stats_;
  s.bytes = bytes_;
  s.entries = lru_.size();
  return s;
}

void FactorCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  partitions_.clear();
  bytes_ = 0;
  export_gauges_locked();
}

void FactorCache::export_gauges_locked() const {
  obs::gauge("serve.cache.bytes").set(static_cast<double>(bytes_));
  obs::gauge("serve.cache.entries").set(static_cast<double>(lru_.size()));
}

}  // namespace pdslin::serve
