// Insert-only striped concurrent hash map (mold-style): a fixed array of
// bucket shards, each guarded by its own mutex, with chained buckets that
// double per shard and nodes that never move.  The contract that buys the
// performance:
//
//   - insert/find are thread-safe and contend only within one shard
//     (stripe count is a compile-time power of two, default 64);
//   - a shard doubles its bucket array, under its own lock, once its node
//     count passes its bucket count, so chains stay O(1) long on average
//     however far the map grows past its size estimate;
//   - there is NO erase: once inserted, a node's address — and therefore
//     every returned iterator/pointer — stays valid for the map's
//     lifetime (nodes live in per-shard deques);
//   - `insert` returns {iterator, inserted} exactly like std::map: losers
//     of a racing insert get the winner's entry and `false`;
//   - iteration (`begin`/`end`, `for_each`) is for quiescent phases —
//     concurrent inserts during a traversal may or may not be visited.
//
// Used as the cross-thread memo in the simplifier's instantiation cache
// (parallel batch rewriting) and the STLlint service's summary cache.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <tuple>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

namespace cgp::parallel {

template <class Key, class T, class Hash = std::hash<Key>,
          std::size_t Stripes = 64>
class concurrent_map {
  static_assert((Stripes & (Stripes - 1)) == 0,
                "stripe count must be a power of two");

  struct node {
    std::pair<const Key, T> kv;
    node* next = nullptr;    ///< bucket chain
    std::size_t seq = 0;     ///< insertion index within the shard's deque
    template <class K, class... Args>
    explicit node(K&& k, Args&&... args)
        : kv(std::piecewise_construct,
             std::forward_as_tuple(std::forward<K>(k)),
             std::forward_as_tuple(std::forward<Args>(args)...)) {}
  };

  struct shard {
    mutable std::mutex m;
    std::vector<node*> buckets;
    std::deque<node> nodes;  ///< stable addresses, insertion order
  };

 public:
  using value_type = std::pair<const Key, T>;

  /// `expected_size` sizes the initial bucket arrays (mold sizes these
  /// from a HyperLogLog estimate; callers here usually know the batch
  /// size).  A shard that outgrows the estimate doubles its buckets.
  explicit concurrent_map(std::size_t expected_size = 1024) {
    std::size_t per_shard = expected_size / Stripes + 1;
    std::size_t cap = 8;
    while (cap < per_shard * 2) cap <<= 1;
    for (shard& s : shards_) s.buckets.assign(cap, nullptr);
  }

  concurrent_map(const concurrent_map&) = delete;
  concurrent_map& operator=(const concurrent_map&) = delete;

  /// Forward iterator over (shard, insertion-order) pairs.  Dereference
  /// goes through a node pointer captured while the shard lock was held —
  /// never through the shard's deque, whose internal block map other
  /// threads mutate while inserting — so an iterator returned by
  /// insert/try_emplace may be dereferenced concurrently with inserts.
  /// Traversal (begin / operator++) still requires quiescence.
  class iterator {
   public:
    iterator() = default;
    value_type& operator*() const { return n_->kv; }
    value_type* operator->() const { return &n_->kv; }
    iterator& operator++() {
      ++ni_;
      settle();
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++*this;
      return t;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.map_ == b.map_ && a.si_ == b.si_ && a.ni_ == b.ni_;
    }

   private:
    friend class concurrent_map;
    /// Traversal construction (begin/end): indexes shard deques, so
    /// quiescent phases only.
    iterator(concurrent_map* m, std::size_t si, std::size_t ni)
        : map_(m), si_(si), ni_(ni) {
      settle();
    }
    /// Insert-path construction: the caller holds the shard lock and hands
    /// over the node pointer directly — no deque access ever again.
    iterator(concurrent_map* m, std::size_t si, node* n)
        : map_(m), si_(si), ni_(n->seq), n_(n) {}
    void settle() {
      while (si_ < Stripes && ni_ >= map_->shards_[si_].nodes.size()) {
        ++si_;
        ni_ = 0;
      }
      n_ = si_ < Stripes ? &map_->shards_[si_].nodes[ni_] : nullptr;
    }
    concurrent_map* map_ = nullptr;
    std::size_t si_ = Stripes;
    std::size_t ni_ = 0;
    node* n_ = nullptr;
  };

  [[nodiscard]] iterator begin() {
    return iterator(this, std::size_t{0}, std::size_t{0});
  }
  [[nodiscard]] iterator end() {
    return iterator(this, Stripes, std::size_t{0});
  }

  /// Inserts key -> T(args...) if absent.  Returns {iterator, true} for
  /// the winner, {iterator-to-existing, false} for everyone else.  The
  /// iterator's pointee is stable forever (insert-only contract).
  template <class K, class... Args>
  std::pair<iterator, bool> try_emplace(K&& key, Args&&... args) {
    const std::size_t h = Hash{}(key);
    const std::size_t si = h & (Stripes - 1);
    shard& s = shards_[si];
    const std::lock_guard lock(s.m);
    const std::size_t b = (h / Stripes) & (s.buckets.size() - 1);
    for (node* n = s.buckets[b]; n != nullptr; n = n->next)
      if (n->kv.first == key) return {iterator(this, si, n), false};
    s.nodes.emplace_back(std::forward<K>(key), std::forward<Args>(args)...);
    node* n = &s.nodes.back();
    n->seq = s.nodes.size() - 1;
    n->next = s.buckets[b];
    s.buckets[b] = n;
    if (s.nodes.size() > s.buckets.size()) grow(s);
    return {iterator(this, si, n), true};
  }

  /// std::map-style insert of a ready value.
  std::pair<iterator, bool> insert(const Key& key, T value) {
    return try_emplace(key, std::move(value));
  }

  /// Pointer to the mapped value, or nullptr.  The pointer is stable for
  /// the map's lifetime.
  [[nodiscard]] T* find(const Key& key) {
    const std::size_t h = Hash{}(key);
    shard& s = shards_[h & (Stripes - 1)];
    const std::lock_guard lock(s.m);
    const std::size_t b = (h / Stripes) & (s.buckets.size() - 1);
    for (node* n = s.buckets[b]; n != nullptr; n = n->next)
      if (n->kv.first == key) return &n->kv.second;
    return nullptr;
  }
  [[nodiscard]] const T* find(const Key& key) const {
    return const_cast<concurrent_map*>(this)->find(key);
  }

  /// Entry count (exact when quiescent; a racing insert may or may not be
  /// counted).
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const shard& s : shards_) {
      const std::lock_guard lock(s.m);
      total += s.nodes.size();
    }
    return total;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Quiescent traversal helper (locks shard by shard).
  template <class Fn>
  void for_each(Fn&& fn) {
    for (shard& s : shards_) {
      const std::lock_guard lock(s.m);
      for (node& n : s.nodes) fn(n.kv);
    }
  }

  /// NOT thread-safe: drops every entry (callers must be quiescent).
  /// Insert-only refers to the concurrent phase; single-threaded
  /// invalidation (a simplifier gaining a rule) may reset wholesale.
  void clear() {
    for (shard& s : shards_) {
      const std::lock_guard lock(s.m);
      for (node*& b : s.buckets) b = nullptr;
      s.nodes.clear();
    }
  }

 private:
  /// Doubles `s`'s buckets and re-threads its chains from the node deque
  /// (caller holds `s.m`).  Nodes stay where they are, so every pointer
  /// and insert-path iterator handed out stays valid.
  static void grow(shard& s) {
    s.buckets.assign(s.buckets.size() * 2, nullptr);
    for (node& n : s.nodes) {
      node*& head =
          s.buckets[(Hash{}(n.kv.first) / Stripes) & (s.buckets.size() - 1)];
      n.next = head;
      head = &n;
    }
  }

  std::array<shard, Stripes> shards_{};
};

}  // namespace cgp::parallel
