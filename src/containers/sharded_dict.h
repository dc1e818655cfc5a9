#ifndef HPA_CONTAINERS_SHARDED_DICT_H_
#define HPA_CONTAINERS_SHARDED_DICT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "containers/hash.h"

/// \file
/// A hash-partitioned dictionary: S independent shards of any of the three
/// uniform dictionary backends, with keys routed by the top bits of the
/// shared FNV-1a hash. This is the container behind the parallel reduction
/// layer (parallel/parallel_ops.h): per-worker partial dictionaries are
/// sharded identically, so shard s of the merged result can be produced by
/// one task reading shard s of *every* partial — no locks, no atomics, the
/// whole merge is embarrassingly parallel across shards.
///
/// The shard count is a fixed power of two chosen independently of the
/// worker count, so the merged structure (and therefore its ForEach
/// iteration order) is byte-identical no matter how many workers built it.
/// Routing uses the *top* hash bits; the backends mask the *low* bits for
/// their own bucket arrays, so sharding does not degrade their probe
/// distributions.

namespace hpa::containers {

/// Number of shards used by default. 64 keeps per-shard merge slices well
/// above cache-line granularity at paper-scale vocabularies (≈3–4K words
/// per shard for NSF's 268K) while still load-balancing 16 workers.
inline constexpr size_t kDefaultDictShards = 64;

/// Hash-partitioned wrapper composing any uniform dictionary backend.
/// Exposes the same surface as the three backends (FindOrInsert / Find /
/// Contains / Erase / size / Clear / Reserve / ForEach /
/// ApproxMemoryBytes / kSortedIteration) so it drops into the operators'
/// `DictFor`-typed pipelines, plus shard-level access for the parallel
/// merge layer.
template <typename Shard>
class ShardedDict {
 public:
  explicit ShardedDict(size_t capacity_hint = 0,
                       size_t num_shards = kDefaultDictShards) {
    // Round the shard count up to a power of two for mask-free routing.
    size_t shards = 1;
    size_t bits = 0;
    while (shards < num_shards) {
      shards <<= 1;
      ++bits;
    }
    shard_bits_ = bits;
    shards_.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      shards_.emplace_back(Shard(capacity_hint / shards));
    }
  }

  ShardedDict(const ShardedDict&) = delete;
  ShardedDict& operator=(const ShardedDict&) = delete;
  ShardedDict(ShardedDict&&) noexcept = default;
  ShardedDict& operator=(ShardedDict&&) noexcept = default;

  size_t num_shards() const { return shards_.size(); }

  /// Shard that owns `key`: the top `log2(num_shards)` bits of the key
  /// hash. Deterministic in the key alone — never in the worker count.
  size_t ShardOf(std::string_view key) const {
    if (shard_bits_ == 0) return 0;
    return static_cast<size_t>(HashBytes(key.data(), key.size()) >>
                               (64 - shard_bits_));
  }

  Shard& shard(size_t s) { return shards_[s]; }
  const Shard& shard(size_t s) const { return shards_[s]; }

  decltype(auto) FindOrInsert(std::string_view key) {
    return shards_[ShardOf(key)].FindOrInsert(key);
  }

  auto Find(std::string_view key) const {
    return shards_[ShardOf(key)].Find(key);
  }

  bool Contains(std::string_view key) const { return Find(key) != nullptr; }

  bool Erase(std::string_view key) {
    return shards_[ShardOf(key)].Erase(key);
  }

  size_t size() const {
    size_t total = 0;
    for (const Shard& s : shards_) total += s.size();
    return total;
  }
  bool empty() const { return size() == 0; }

  void Clear() {
    for (Shard& s : shards_) s.Clear();
  }

  /// Splits the capacity hint evenly across shards (hash routing spreads
  /// keys near-uniformly, so an even split is the right presize).
  void Reserve(size_t n) {
    size_t per_shard = (n + shards_.size() - 1) / shards_.size();
    for (Shard& s : shards_) s.Reserve(per_shard);
  }

  /// Walks shards in index order, each shard in its backend's order. The
  /// composite order is deterministic but not globally key-sorted, even
  /// over sorted shards — hash partitioning interleaves the key space.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Shard& s : shards_) s.ForEach(fn);
  }

  static constexpr bool kSortedIteration = false;

  uint64_t ApproxMemoryBytes() const {
    uint64_t bytes = 0;
    for (const Shard& s : shards_) bytes += s.ApproxMemoryBytes();
    return bytes;
  }

 private:
  std::vector<Shard> shards_;
  size_t shard_bits_ = 0;
};

}  // namespace hpa::containers

#endif  // HPA_CONTAINERS_SHARDED_DICT_H_
