#ifndef HPA_OPS_NAIVE_BAYES_H_
#define HPA_OPS_NAIVE_BAYES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "containers/sparse_matrix.h"
#include "ops/exec_context.h"

/// \file
/// Multinomial Naive Bayes over TF/IDF sparse vectors — the first
/// supervised member of the operator family, sharing the sparse kernels
/// and the accumulator-tree reduction discipline of SparseKMeans.
///
/// Training accumulates per-class sufficient statistics (feature mass per
/// (class, term) plus document counts) in worker-local accumulators and
/// merges them with the same cluster × dimension-shard sliced
/// ParallelTreeReduce the K-means centroid merge uses. One twist makes the
/// result *bit-identical across worker counts and to a single-threaded
/// reference*: the per-(class, term) feature mass is summed in fixed-point
/// int64 — each float TF/IDF score is quantized once via
/// llround(score * 2^24) — because integer addition is exactly associative
/// and commutative, so any merge order (serial fold, nested tree, any
/// worker count) produces the same statistics to the bit.
/// Worker-keyed *double* sums would not be (see the Accumulators comment
/// in kmeans.cc); quantization trades 2^-24 of score resolution for exact
/// order-independence, and the differential reference applies the same
/// quantization. The smoothed log-likelihoods are then computed serially
/// from the exact integer statistics.
///
/// Prediction scores class c as
///     log P(c) + Σ_t score(t, d) · log P(t | c)
/// via the shared sparse-dense Dot kernel (the same merge-join K-means'
/// distance kernel is built on), argmax with ties to the lowest class id.
/// Each document is scored independently, so the parallel loop is
/// bit-identical at any worker count.

namespace hpa::ops {

/// Fixed-point scale for feature-mass quantization: 24 fractional bits.
/// TF/IDF scores are L2-normalized (≤ 1), so quantized per-entry values
/// fit comfortably; a corpus would need ~2^39 documents to overflow the
/// int64 per-(class, term) sums.
inline constexpr double kNbFixedPointScale = 16777216.0;  // 2^24

/// Quantizes one TF/IDF score to the fixed-point grid. Shared by the
/// production trainer and the naive differential reference so both see
/// exactly the same sufficient statistics.
int64_t NbQuantize(float score);

/// Naive Bayes training options.
struct NaiveBayesOptions {
  /// Laplace/Lidstone smoothing added to every (class, term) mass.
  double alpha = 1.0;
};

/// A trained multinomial Naive Bayes model. Immutable after training;
/// safe to share across parallel chunks.
struct NaiveBayesModel {
  /// Class label strings, index = class id (lexicographically sorted).
  std::vector<std::string> labels;

  /// log P(c) per class id (document-frequency prior).
  std::vector<double> class_log_prior;

  /// log P(term | class) per class: dense rows of vocabulary dimension,
  /// same layout as the K-means centroid matrix (and serialized the same
  /// bit-exact way by the registry).
  std::vector<std::vector<float>> feature_log_prob;

  /// Vocabulary dimension the model was trained on.
  uint32_t num_features = 0;

  /// Documents actually trained on (excludes empty/unlabeled rows).
  uint64_t documents_trained = 0;

  /// Rows excluded from training: empty rows (quarantined or fully pruned
  /// upstream) and rows without a label.
  uint64_t documents_skipped = 0;

  size_t num_classes() const { return labels.size(); }

  /// Class id for `label`, or -1 if the model never saw it.
  int ClassId(std::string_view label) const;

  /// Predicts the class id for one score row: argmax of
  /// prior + Dot(row, feature_log_prob[c]), ties to the lowest class id.
  /// An all-zero row degenerates to argmax of the prior alone.
  uint32_t Predict(const containers::SparseVector& row) const;

  friend bool operator==(const NaiveBayesModel& a, const NaiveBayesModel& b) {
    return a.labels == b.labels && a.class_log_prior == b.class_log_prior &&
           a.feature_log_prob == b.feature_log_prob &&
           a.num_features == b.num_features &&
           a.documents_trained == b.documents_trained &&
           a.documents_skipped == b.documents_skipped;
  }
};

/// Trains multinomial NB on `matrix` with per-row label strings
/// (`row_labels[i]` labels row i; empty = unlabeled). Rows that are empty
/// or unlabeled are skipped — quarantined documents keep empty rows
/// upstream, so fault-policy runs train on exactly the surviving
/// documents. Fails (kInvalidArgument) when no usable labeled row exists
/// or the label vector length mismatches the matrix. Accrues the
/// "nb-train" phase on ctx.phases.
StatusOr<NaiveBayesModel> TrainNaiveBayes(
    ExecContext& ctx, const containers::SparseMatrix& matrix,
    const std::vector<std::string>& row_labels,
    const NaiveBayesOptions& options = {});

/// Parallel prediction over all rows of `matrix`; out[i] = class id for
/// row i. Accrues the "nb-predict" phase.
std::vector<uint32_t> PredictNaiveBayes(
    ExecContext& ctx, const NaiveBayesModel& model,
    const containers::SparseMatrix& matrix);

/// Bit-exact text serialization ("hpa-nb-model v1"): labels, IEEE-754
/// hex doubles for the priors, hex floats for the likelihood rows — the
/// same round-trip guarantee the registry's centroid artifact makes.
std::string SerializeNaiveBayesModel(const NaiveBayesModel& model);

/// Parses SerializeNaiveBayesModel output; `path` labels errors.
StatusOr<NaiveBayesModel> ParseNaiveBayesModel(std::string_view text,
                                               const std::string& path);

}  // namespace hpa::ops

#endif  // HPA_OPS_NAIVE_BAYES_H_
