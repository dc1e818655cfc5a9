#include "containers/sparse_vector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace hpa::containers {

SparseVector SparseVector::FromPairs(
    std::vector<std::pair<uint32_t, float>> pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  SparseVector v;
  v.Reserve(pairs.size());
  for (const auto& [id, value] : pairs) v.PushBack(id, value);
  return v;
}

void SparseVector::AssignRaw(const void* ids, const void* values,
                             size_t nnz) {
  ids_.resize(nnz);
  values_.resize(nnz);
  if (nnz == 0) return;
  std::memcpy(ids_.data(), ids, nnz * sizeof(uint32_t));
  std::memcpy(values_.data(), values, nnz * sizeof(float));
}

void SparseVector::PushBack(uint32_t id, float value) {
  assert(ids_.empty() || id > ids_.back());
  ids_.push_back(id);
  values_.push_back(value);
}

float SparseVector::ValueOf(uint32_t id) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return 0.0f;
  return values_[static_cast<size_t>(it - ids_.begin())];
}

double SparseVector::SquaredL2Norm() const {
  double sum = 0.0;
  for (float v : values_) sum += static_cast<double>(v) * v;
  return sum;
}

void SparseVector::NormalizeL2() {
  double sq = SquaredL2Norm();
  if (sq <= 0.0) return;
  float inv = static_cast<float>(1.0 / std::sqrt(sq));
  for (float& v : values_) v *= inv;
}

double Dot(const SparseVector& a, const SparseVector& b) {
  double sum = 0.0;
  size_t i = 0, j = 0;
  while (i < a.nnz() && j < b.nnz()) {
    uint32_t ai = a.id_at(i), bj = b.id_at(j);
    if (ai == bj) {
      sum += static_cast<double>(a.value_at(i)) * b.value_at(j);
      ++i;
      ++j;
    } else if (ai < bj) {
      ++i;
    } else {
      ++j;
    }
  }
  return sum;
}

double Dot(const SparseVector& a, const std::vector<float>& dense) {
  double sum = 0.0;
  for (size_t i = 0; i < a.nnz(); ++i) {
    uint32_t id = a.id_at(i);
    if (id < dense.size()) {
      sum += static_cast<double>(a.value_at(i)) * dense[id];
    }
  }
  return sum;
}

void AddScaled(const SparseVector& a, float scale, std::vector<float>& dense) {
  for (size_t i = 0; i < a.nnz(); ++i) {
    assert(a.id_at(i) < dense.size());
    dense[a.id_at(i)] += scale * a.value_at(i);
  }
}

double SquaredDistance(const SparseVector& x, double x_sq_norm,
                       const std::vector<float>& centroid,
                       double centroid_sq_norm) {
  double d = x_sq_norm - 2.0 * Dot(x, centroid) + centroid_sq_norm;
  // Rounding can push tiny distances negative; clamp for callers that sqrt.
  return d < 0.0 ? 0.0 : d;
}

}  // namespace hpa::containers
