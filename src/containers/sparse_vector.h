#ifndef HPA_CONTAINERS_SPARSE_VECTOR_H_
#define HPA_CONTAINERS_SPARSE_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

/// \file
/// Sparse numeric vectors — the representation whose adoption the paper
/// credits for most of the gap to WEKA ("using sparse vectors to represent
/// inherently sparse data"). A document's TF/IDF scores over a vocabulary
/// of hundreds of thousands of terms typically has a few hundred non-zeros.

namespace hpa::containers {

/// Immutable-ish sparse vector: parallel (term id, value) arrays sorted by
/// ascending id. Structure-of-arrays layout keeps dot products streaming.
class SparseVector {
 public:
  SparseVector() = default;

  /// Builds from unsorted (id, value) pairs; ids must be unique.
  static SparseVector FromPairs(std::vector<std::pair<uint32_t, float>> pairs);

  /// Appends an entry; `id` must be greater than the last appended id.
  /// (Used by builders that already iterate terms in sorted order.)
  void PushBack(uint32_t id, float value);

  /// Replaces the contents with `nnz` ids and `nnz` values copied from raw
  /// native-endian arrays (alignment not required), e.g. a serialized row;
  /// the ids must strictly increase. Keeps capacity, like Clear().
  void AssignRaw(const void* ids, const void* values, size_t nnz);

  /// Number of stored non-zeros.
  size_t nnz() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  const std::vector<uint32_t>& ids() const { return ids_; }
  const std::vector<float>& values() const { return values_; }

  uint32_t id_at(size_t i) const { return ids_[i]; }
  float value_at(size_t i) const { return values_[i]; }

  /// Value at term `id`, or 0 if absent. O(log nnz).
  float ValueOf(uint32_t id) const;

  /// Sum of squared values.
  double SquaredL2Norm() const;

  /// Scales all values so the L2 norm is 1. No-op for the zero vector.
  void NormalizeL2();

  /// Removes all entries but keeps capacity (buffer recycling).
  void Clear() {
    ids_.clear();
    values_.clear();
  }

  /// Reserves storage for `n` entries.
  void Reserve(size_t n) {
    ids_.reserve(n);
    values_.reserve(n);
  }

  /// Heap bytes held by this vector (capacity, not size).
  uint64_t ApproxMemoryBytes() const {
    return ids_.capacity() * sizeof(uint32_t) +
           values_.capacity() * sizeof(float);
  }

  friend bool operator==(const SparseVector& a, const SparseVector& b) {
    return a.ids_ == b.ids_ && a.values_ == b.values_;
  }

 private:
  std::vector<uint32_t> ids_;
  std::vector<float> values_;
};

/// Dot product of two sparse vectors (merge join over sorted ids).
double Dot(const SparseVector& a, const SparseVector& b);

/// Dot product of a sparse vector with a dense vector. Ids beyond
/// `dense.size()` are ignored (treated as zero).
double Dot(const SparseVector& a, const std::vector<float>& dense);

/// dense[id] += scale * value for each entry of `a`. `dense` must be large
/// enough for every id in `a`.
void AddScaled(const SparseVector& a, float scale, std::vector<float>& dense);

/// Squared Euclidean distance between a sparse point and a dense centroid
/// with precomputed squared norm: ||x||^2 - 2 x.c + ||c||^2. This is the
/// kernel of sparse K-means — O(nnz) instead of O(dim).
double SquaredDistance(const SparseVector& x, double x_sq_norm,
                       const std::vector<float>& centroid,
                       double centroid_sq_norm);

}  // namespace hpa::containers

#endif  // HPA_CONTAINERS_SPARSE_VECTOR_H_
