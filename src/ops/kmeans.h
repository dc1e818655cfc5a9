#ifndef HPA_OPS_KMEANS_H_
#define HPA_OPS_KMEANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "containers/sparse_matrix.h"
#include "ops/exec_context.h"

/// \file
/// K-means clustering (§3.1). The production form is sparse and parallel:
///
///  * assignment step: parallel loop over documents; distances use the
///    sparse kernel ||x||² − 2·x·c + ||c||² (O(nnz) per cluster);
///  * accumulation: worker-local dense centroid sums, no allocation inside
///    iterations (the paper's buffer-recycling discipline);
///  * merge: pairwise tree over the worker accumulators with each pair
///    combine sliced over clusters × dimension shards
///    (parallel::ParallelTreeReduce), so the k × vocabulary merge work no
///    longer serializes — `ctx.serial_merge` restores the serial fold whose
///    Amdahl term caps the Mix corpus near 2.5x in Figure 1;
///  * centroid finalize: serial, cost ∝ k × vocabulary.
///
/// `recycle_buffers=false` switches to a deliberately naive mode that
/// reallocates every iteration (the ablation for the paper's claim that
/// recycling matters).

namespace hpa::ops {

/// Centroid initialization strategy.
enum class KMeansInit {
  /// One uniformly random row from each of k equal document spans —
  /// cheap, deterministic, and what the paper-era implementation used.
  kStratified,

  /// k-means++ (Arthur & Vassilvitskii 2007): subsequent seeds sampled
  /// proportional to squared distance from the chosen set. Costs k extra
  /// passes over the data but typically converges in fewer, better
  /// iterations (see bench/ablation_kmeans_init).
  kPlusPlus,
};

/// K-means parameters.
struct KMeansOptions {
  /// Number of clusters (the paper uses 8).
  int k = 8;

  /// Centroid seeding strategy.
  KMeansInit init = KMeansInit::kStratified;

  /// Iteration cap.
  int max_iterations = 10;

  /// Stop early when no document changes cluster.
  bool stop_on_convergence = true;

  /// Deterministic centroid seeding.
  uint64_t seed = 42;

  /// Reuse accumulators/assignment buffers across iterations (paper
  /// optimisation (ii)); false = allocate fresh objects each iteration.
  bool recycle_buffers = true;

  /// Triangle-inequality pruning of the assignment step (Hamerly 2010):
  /// one upper bound (distance to the assigned centroid) and one lower
  /// bound (distance to the runner-up) per document, loosened by centroid
  /// drift after each finalize. A document whose upper bound stays below
  /// its lower bound skips the k-way kernel scan entirely — it still pays
  /// one kernel (to its assigned centroid, which keeps the inertia sum and
  /// the upper bound exact), so results are bit-identical to the unpruned
  /// scan. O(n) extra memory, never O(n×k). Overridden off by
  /// ExecContext::no_prune (the --no-prune ablation).
  bool prune = true;

  /// Test hook: after every assignment step, re-scan all k centroids per
  /// document and count documents whose bounds bracket the true distances
  /// incorrectly (upper < d(x, a(x)) or lower > min over other centroids).
  /// Expensive (defeats pruning); off outside the bound-invariant tests.
  bool validate_bounds = false;
};

/// Clustering output.
struct KMeansResult {
  /// Cluster index per row of the input matrix.
  std::vector<uint32_t> assignment;

  /// Final dense centroids, k x num_cols.
  std::vector<std::vector<float>> centroids;

  /// Iterations actually executed.
  int iterations = 0;

  /// Sum of squared distances to assigned centroids after the last
  /// iteration (clustering quality; lower is better).
  double inertia = 0.0;

  /// Inertia after each iteration (size == iterations); Lloyd guarantees
  /// this sequence is non-increasing — useful for convergence plots.
  std::vector<double> inertia_history;

  /// True if the run stopped because assignments stabilized.
  bool converged = false;

  /// Pruning telemetry: sparse distance kernels actually computed vs
  /// skipped by the bound test, summed over all iterations. Their sum is
  /// always n × k × iterations (the unpruned kernel count), so the skip
  /// fraction is skipped / (evaluated + skipped). Counted in both modes;
  /// skipped stays 0 with pruning off.
  uint64_t distance_kernels_evaluated = 0;
  uint64_t distance_kernels_skipped = 0;

  /// Fraction of kernels skipped in each iteration (size == iterations;
  /// all zeros with pruning off). Iteration 0 is always 0 (no bounds yet).
  std::vector<double> skip_rate_history;

  /// Bound-invariant violations found by options.validate_bounds (always 0
  /// unless the implementation is broken); 0 when validation is off.
  uint64_t bound_violations = 0;
};

/// Index of the centroid nearest to `row` (ties break to the lowest
/// index, matching the scan order of the unpruned assignment step).
/// `best_d` receives the squared distance to the winner; `second_d`, when
/// non-null, the squared distance to the runner-up (meaningful only for
/// k >= 2). This is the shared exact-kernel helper used by SparseKMeans'
/// fallback path, MiniBatchKMeans, and the serving classify path.
int NearestCentroid(const containers::SparseVector& row, double row_sq,
                    const std::vector<std::vector<float>>& centroids,
                    const std::vector<double>& centroid_sq, double* best_d,
                    double* second_d = nullptr);

/// ||c||² per centroid (float coordinates squared and summed in double),
/// computed once for the NearestCentroid calls of a classify loop.
std::vector<double> CentroidSquaredNorms(
    const std::vector<std::vector<float>>& centroids);

/// Sparse parallel K-means over TF/IDF rows. Accrues the "kmeans" phase on
/// ctx.phases. Rows should be L2-normalized (the operator does not
/// re-normalize). Fails if `options.k <= 0` or the matrix is empty.
StatusOr<KMeansResult> SparseKMeans(ExecContext& ctx,
                                    const containers::SparseMatrix& matrix,
                                    const KMeansOptions& options);

/// Mini-batch K-means (Sculley, WWW 2010) — an extension beyond the
/// paper: each iteration samples `batch_size` documents, assigns them to
/// the nearest centroid, and moves those centroids toward the batch means
/// with per-centroid learning rates 1/count. Orders of magnitude less work
/// per iteration on large corpora at a small quality cost; the final
/// assignment pass over all documents is parallel.
///
/// `options.max_iterations` is the batch count; `stop_on_convergence` is
/// ignored (mini-batch has no natural fixed point). Accrues the
/// "kmeans-minibatch" phase on ctx.phases.
StatusOr<KMeansResult> MiniBatchKMeans(ExecContext& ctx,
                                       const containers::SparseMatrix& matrix,
                                       const KMeansOptions& options,
                                       size_t batch_size);

/// Writes "name,cluster" CSV rows serially to `csv_path` on
/// ctx.scratch_disk — the workflow's final "output" phase. `doc_names` may
/// be empty, in which case row indices are used.
Status WriteAssignmentsCsv(ExecContext& ctx,
                           const std::vector<std::string>& doc_names,
                           const std::vector<uint32_t>& assignment,
                           const std::string& csv_path);

}  // namespace hpa::ops

#endif  // HPA_OPS_KMEANS_H_
