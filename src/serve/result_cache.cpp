#include "serve/result_cache.hpp"

#include "obs/metrics.hpp"

namespace eva::serve {

namespace {

std::size_t clamp_shards(std::size_t shards) {
  std::size_t p = 1;
  while (p * 2 <= shards && p < 64) p *= 2;
  return p;
}

}  // namespace

ResultCache::ResultCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  const std::size_t n = clamp_shards(shards == 0 ? 1 : shards);
  shard_mask_ = n - 1;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>((capacity + n - 1) / n));
  }
}

std::optional<CachedEval> ResultCache::get(std::uint64_t key) {
  static obs::Counter& hits = obs::counter("serve.cache_hits");
  static obs::Counter& misses = obs::counter("serve.cache_misses");
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lk(s.mu);
  const CachedEval* hit = s.lru.get(key);
  if (hit == nullptr) {
    misses.add();
    return std::nullopt;
  }
  hits.add();
  return *hit;
}

void ResultCache::put(std::uint64_t key, const CachedEval& value) {
  static obs::Counter& evictions = obs::counter("serve.cache_evictions");
  static obs::Gauge& size_g = obs::gauge("serve.cache_size");
  {
    Shard& s = shard_for(key);
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.lru.put(key, value)) evictions.add();
  }
  size_g.set(static_cast<double>(size()));
}

std::size_t ResultCache::size() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    total += sh->lru.size();
  }
  return total;
}

void ResultCache::clear() {
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    sh->lru.clear();
  }
  obs::gauge("serve.cache_size").set(0.0);
}

}  // namespace eva::serve
