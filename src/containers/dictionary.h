#ifndef HPA_CONTAINERS_DICTIONARY_H_
#define HPA_CONTAINERS_DICTIONARY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "common/logging.h"
#include "common/status.h"
#include "containers/chained_hash_map.h"
#include "containers/hash.h"
#include "containers/open_hash_map.h"
#include "containers/rb_tree_map.h"
#include "containers/sharded_dict.h"

/// \file
/// The dictionary abstraction at the heart of the paper's §3.4: word-count
/// and TF/IDF keep their term tables behind one uniform API so the backend
/// can be swapped per workflow phase. Five per-document backends are
/// provided:
///
///   * kStdMap          — `std::map` (the paper's "map")
///   * kStdUnorderedMap — `std::unordered_map` (the paper's "u-map")
///   * kRbTree          — our instrumented red-black tree (≈ std::map)
///   * kChainedHash     — our instrumented chained table (≈ unordered_map)
///   * kOpenHash        — flat open addressing (the modern-engine choice)
///
/// A sixth setting, kInterned, keeps no per-document table at all: each
/// worker interns a token once into a worker-local id and counts ids
/// (ops/word_count.h). It has no DictFor type; operators route it before
/// DispatchDictBackend.
///
/// The per-document backends expose: FindOrInsert / Find / size / Clear / Reserve / ForEach /
/// ApproxMemoryBytes / kSortedIteration, keyed by std::string with
/// heterogeneous std::string_view lookup.

namespace hpa::containers {

/// Selectable dictionary implementation.
enum class DictBackend {
  kStdMap,
  kStdUnorderedMap,
  kRbTree,
  kChainedHash,
  kOpenHash,
  kInterned,
};

/// Stable name ("map", "u-map", "rb-tree", "chained-hash", "open-hash",
/// "interned").
std::string_view DictBackendName(DictBackend backend);

/// Inverse of DictBackendName. Also accepts "unordered_map" and "std_map".
StatusOr<DictBackend> ParseDictBackend(std::string_view name);

/// The five per-document backends, for parameterized tests and sweeps
/// (kInterned is not one: it has no per-document table).
inline constexpr DictBackend kAllDictBackends[] = {
    DictBackend::kStdMap, DictBackend::kStdUnorderedMap, DictBackend::kRbTree,
    DictBackend::kChainedHash, DictBackend::kOpenHash,
};

/// Uniform wrapper over std::map<std::string, V>.
template <typename V>
class StdMapDict {
 public:
  explicit StdMapDict(size_t /*capacity_hint*/ = 0) {}

  V& FindOrInsert(std::string_view key) {
    auto it = map_.find(key);
    if (it != map_.end()) return it->second;
    return map_.emplace(std::string(key), V{}).first->second;
  }
  const V* Find(std::string_view key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  bool Contains(std::string_view key) const { return Find(key) != nullptr; }
  bool Erase(std::string_view key) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    map_.erase(it);
    return true;
  }
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Clear() { map_.clear(); }
  void Reserve(size_t) {}

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& [k, v] : map_) fn(k, v);
  }

  static constexpr bool kSortedIteration = true;

  uint64_t ApproxMemoryBytes() const {
    // libstdc++ _Rb_tree_node: 3 pointers + color + payload, rounded.
    uint64_t per_node = 40 + sizeof(std::pair<std::string, V>);
    uint64_t bytes = 0;
    for (const auto& [k, v] : map_) {
      bytes += per_node + internal_hash::OwnedHeapBytes(k) +
               internal_hash::OwnedHeapBytes(v);
    }
    return bytes;
  }

 private:
  std::map<std::string, V, std::less<>> map_;
};

/// Uniform wrapper over std::unordered_map<std::string, V>.
///
/// `capacity_hint` pre-sizes the bucket array — the paper pre-sizes its
/// per-document u-map tables "to hold 4K items to minimize resizing
/// overhead", which is also what blows up its memory footprint.
template <typename V>
class StdUnorderedDict {
 public:
  explicit StdUnorderedDict(size_t capacity_hint = 0) {
    // reserve() sizes for `capacity_hint` *elements* (accounting for
    // max_load_factor); rehash() would interpret it as a bucket count.
    if (capacity_hint > 0) map_.reserve(capacity_hint);
  }

  V& FindOrInsert(std::string_view key) {
    auto it = map_.find(key);
    if (it != map_.end()) return it->second;
    return map_.emplace(std::string(key), V{}).first->second;
  }
  const V* Find(std::string_view key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  bool Contains(std::string_view key) const { return Find(key) != nullptr; }
  bool Erase(std::string_view key) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    map_.erase(it);
    return true;
  }
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Clear() { map_.clear(); }
  void Reserve(size_t n) { map_.reserve(n); }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& [k, v] : map_) fn(k, v);
  }

  static constexpr bool kSortedIteration = false;

  uint64_t ApproxMemoryBytes() const {
    // Bucket array plus one _Hash_node (next ptr + hash cache + payload).
    uint64_t bytes = map_.bucket_count() * sizeof(void*);
    uint64_t per_node = 16 + sizeof(std::pair<std::string, V>);
    for (const auto& [k, v] : map_) {
      bytes += per_node + internal_hash::OwnedHeapBytes(k) +
               internal_hash::OwnedHeapBytes(v);
    }
    return bytes;
  }

 private:
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return static_cast<size_t>(HashBytes(s.data(), s.size()));
    }
  };
  std::unordered_map<std::string, V, TransparentHash, std::equal_to<>> map_;
};

/// Maps a DictBackend tag to the wrapper type for value type `V`.
template <DictBackend B, typename V>
struct DictFor;

template <typename V>
struct DictFor<DictBackend::kStdMap, V> {
  using type = StdMapDict<V>;
};
template <typename V>
struct DictFor<DictBackend::kStdUnorderedMap, V> {
  using type = StdUnorderedDict<V>;
};
template <typename V>
struct DictFor<DictBackend::kRbTree, V> {
  using type = RbTreeMap<std::string, V>;
};
template <typename V>
struct DictFor<DictBackend::kChainedHash, V> {
  using type = ChainedHashMap<std::string, V>;
};
template <typename V>
struct DictFor<DictBackend::kOpenHash, V> {
  using type = OpenHashMap<std::string, V>;
};

/// Hash-partitioned composite of backend `B`: the output type of the
/// parallel sharded reductions (parallel/parallel_ops.h). Same uniform
/// surface as the plain backends, so it drops into the same pipelines.
template <DictBackend B, typename V>
using ShardedDictFor = ShardedDict<typename DictFor<B, V>::type>;

/// Invokes `fn` with a `std::integral_constant<DictBackend, B>` matching the
/// runtime `backend` — the bridge from runtime plan choices to the
/// statically-typed operator pipelines:
///
/// \code
///   DispatchDictBackend(plan.wc_backend, [&](auto tag) {
///     RunWordCount<tag()>(ctx, corpus);
///   });
/// \endcode
///
/// `backend` must be a per-document backend: kInterned has no table type
/// and aborts.
template <typename Fn>
decltype(auto) DispatchDictBackend(DictBackend backend, Fn&& fn) {
  HPA_CHECK(backend != DictBackend::kInterned,
            "the interned count has no per-document dictionary to dispatch");
  switch (backend) {
    case DictBackend::kStdMap:
      return fn(std::integral_constant<DictBackend, DictBackend::kStdMap>{});
    case DictBackend::kStdUnorderedMap:
      return fn(std::integral_constant<DictBackend,
                                       DictBackend::kStdUnorderedMap>{});
    case DictBackend::kRbTree:
      return fn(std::integral_constant<DictBackend, DictBackend::kRbTree>{});
    case DictBackend::kChainedHash:
      return fn(
          std::integral_constant<DictBackend, DictBackend::kChainedHash>{});
    case DictBackend::kOpenHash:
      return fn(std::integral_constant<DictBackend, DictBackend::kOpenHash>{});
    case DictBackend::kInterned:
      break;
  }
  // Unreachable for per-document backends.
  return fn(std::integral_constant<DictBackend, DictBackend::kStdMap>{});
}

}  // namespace hpa::containers

#endif  // HPA_CONTAINERS_DICTIONARY_H_
