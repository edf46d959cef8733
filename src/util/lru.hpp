// Bounded least-recently-used map: the one LRU behind the serving
// layer's per-replica ResultCache shards and the fleet's cache sidecar.
//
// Not thread-safe: callers hold their own lock around every call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

namespace eva {

template <class K, class V>
class Lru {
 public:
  /// At most `capacity` entries (at least one).
  explicit Lru(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {}

  /// The value for `key`, refreshed to most-recent, or nullptr. The
  /// pointer is valid until the next put()/clear().
  [[nodiscard]] V* get(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Insert or overwrite `key` as most-recent. Returns true when a new key
  /// evicted the least-recently-used entry.
  bool put(const K& key, V value) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return false;
    }
    const bool evict = order_.size() >= capacity_;
    if (evict) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(key, order_.begin());
    return evict;
  }

  [[nodiscard]] std::size_t size() const { return order_.size(); }

  void clear() {
    order_.clear();
    index_.clear();
  }

 private:
  using Order = std::list<std::pair<K, V>>;  // front = most recently used

  std::size_t capacity_;
  Order order_;
  std::unordered_map<K, typename Order::iterator> index_;
};

}  // namespace eva
