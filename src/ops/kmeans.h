#ifndef HPA_OPS_KMEANS_H_
#define HPA_OPS_KMEANS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "containers/sparse_matrix.h"
#include "ops/exec_context.h"
#include "parallel/parallel_ops.h"

/// \file
/// K-means clustering (§3.1). The production form is sparse and parallel,
/// and it is one engine, kmeans_internal::LloydHamerly, run over a row
/// source:
///
///  * assignment step: parallel loop over documents; distances use the
///    sparse kernel ||x||² − 2·x·c + ||c||² (O(nnz) per cluster), the
///    k-way scan reading an id-major CentroidTile (one pass over the row
///    per 8 centroids), and Hamerly bounds skip that scan for documents
///    that provably keep their centroid;
///  * accumulation: worker-local dense centroid sums, no allocation inside
///    iterations (the paper's buffer-recycling discipline);
///  * merge: pairwise tree over the worker accumulators with each pair
///    combine sliced over clusters × dimension shards
///    (parallel::ParallelTreeReduce), so the k × vocabulary merge work no
///    longer serializes — `ctx.serial_merge` restores the serial fold whose
///    Amdahl term caps the Mix corpus near 2.5x in Figure 1;
///  * centroid finalize: serial, cost ∝ k × vocabulary.
///
/// SparseKMeans feeds the engine the rows of an in-memory matrix as one
/// corpus-wide window; StreamingSparseKMeans (ops/streaming.h) feeds it
/// corpus windows re-scored on the fly. Same engine, same arithmetic, so
/// the two are bit-identical.
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

/// The centroids of a nearest-centroid scan, laid out id-major:
/// `data()[id * k + c]` is coordinate `id` of centroid `c`. A row nonzero
/// then reads the k coordinates it needs side by side — for k = 8, 32
/// bytes of one cache line — instead of one line from each of k separate
/// dim-long centroids. A copy: the row-major centroids stay the source of
/// truth and the owner rebuilds the tile (Assign) whenever they change.
class CentroidTile {
 public:
  CentroidTile() = default;
  CentroidTile(const std::vector<std::vector<float>>& centroids,
               const std::vector<double>& centroid_sq) {
    Assign(centroids, centroid_sq);
  }

  /// Rebuilds from k equal-length centroids and their squared norms,
  /// reusing the buffers.
  void Assign(const std::vector<std::vector<float>>& centroids,
              const std::vector<double>& centroid_sq);

  int k() const { return k_; }
  uint32_t dim() const { return dim_; }
  const float* data() const { return data_.data(); }
  double sq(int c) const { return sq_[static_cast<size_t>(c)]; }

 private:
  int k_ = 0;
  uint32_t dim_ = 0;
  std::vector<float> data_;
  std::vector<double> sq_;
};

/// Index of the tile's centroid nearest to `row` (ties break to the lowest
/// index). `best_d` receives the squared distance to the winner;
/// `second_d`, when non-null, the squared distance to the runner-up
/// (meaningful only for k >= 2). One pass over the row per block of 8
/// centroids; each centroid's distance is still row_sq − 2·x·c + ||c||²
/// with x·c summed in row order, clamped at 0 — bit for bit what
/// containers::SquaredDistance gives for that centroid. Row ids >= dim are
/// ignored. This is the one scan behind the K-means assignment step,
/// MiniBatchKMeans and the serving classify path; the tile must hold at
/// least one centroid.
int NearestCentroid(const containers::SparseVector& row, double row_sq,
                    const CentroidTile& tile, double* best_d,
                    double* second_d = nullptr);

/// ||c||² per centroid (float coordinates squared and summed in double),
/// computed once for the CentroidTile of a classify loop.
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

namespace kmeans_internal {

/// Worker-local accumulation state: per-cluster dense sums and counts.
/// Allocated once and recycled across iterations when recycling is on.
struct Accumulators {
  // sums[c] has vocabulary dimension; doubles so merge order effects stay
  // far below assignment-decision thresholds. The inertia sum is NOT here:
  // which worker runs which chunk depends on scheduling (steals, measured
  // chunk times), so worker-keyed doubles are not reproducible bit-for-bit
  // across runs — inertia accumulates per *chunk* instead (the chunk grid
  // is a pure function of n and the worker count) and reduces in chunk
  // order, which is what lets the pruning ablation demand bit-identical
  // inertia histories. The integer fields are order-insensitive.
  std::vector<std::vector<double>> sums;
  std::vector<uint64_t> counts;
  uint64_t changed = 0;
  // Pruning telemetry, merged like the other fields: kernels actually
  // computed vs skipped by the bound test this iteration, and the
  // validate_bounds audit's violations.
  uint64_t kernels = 0;
  uint64_t skipped = 0;
  uint64_t violations = 0;

  void Init(int k, uint32_t dim);
  void Reset();
};

/// Absolute slack (in distance units; rows are L2-normalized so distances
/// are O(1)) applied to the skip test and the drift estimates. It absorbs
/// the floating-point rounding of the sparse kernel and the sqrt so a skip
/// is only taken when the assigned centroid is the unique nearest by a
/// margin no rounding can cross — which is what keeps pruned assignments
/// bit-identical to the full scan.
constexpr double kBoundSafety = 1e-7;

/// The argument checks every K-means entry point shares: k positive, at
/// least one row, and no more clusters than rows.
Status CheckArgs(const KMeansOptions& options, size_t n);

/// Picks k well-spread distinct rows as initial centroids,
/// deterministically in (seed, n): one uniformly random row from each of k
/// equal spans.
std::vector<size_t> SeedRows(size_t n, int k, uint64_t seed);

/// The row-source-independent state and steps of one Lloyd/Hamerly run;
/// LloydHamerly below drives it over a row source.
struct LloydState {
  LloydState(ExecContext& ctx, const KMeansOptions& options, size_t n,
             uint32_t dim);

  /// Densifies `row` into centroid `c` (inside the seeding region).
  void SetSeed(int c, const containers::SparseVector& row);
  /// One-time setup regions after seeding: accumulators (when recycling),
  /// bounds (when pruning), the inertia chunk grid.
  void Allocate();
  /// Clears (or, without recycling, reallocates) the accumulators, zeroes
  /// the chunk grid when `clear_inertia`, and starts the assign_ns clock.
  void BeginIteration(int iter, bool clear_inertia);
  /// Bound test, kernel scan and sparse scatter of document i into `acc`;
  /// returns its squared distance to the assigned centroid.
  double Assign(Accumulators& acc, size_t i,
                const containers::SparseVector& row, double row_sq);
  /// validate_bounds audit of document i: how many of its two bounds fail
  /// to bracket the true distances beyond the safety slack.
  uint64_t CountBoundViolations(size_t i, const containers::SparseVector& row,
                                double row_sq) const;
  /// Records assign_ns, merges, finalizes centroids and drifts, and
  /// appends the iteration to `result`. True when the run converged.
  bool EndIteration(KMeansResult* result);
  /// Moves the centroids and assignment into `result`; kernel counters.
  void Finish(KMeansResult* result);
  void Merge();

  ExecContext& ctx;
  const KMeansOptions& options;
  const size_t n;
  const uint32_t dim;
  const int k;
  /// Triangle-inequality pruning of the assignment step (Hamerly 2010):
  /// one upper bound (distance to the assigned centroid) and one lower
  /// bound (distance to the runner-up) per document, loosened by centroid
  /// drift after each finalize. A document whose upper bound stays below
  /// its lower bound skips the k-way kernel scan entirely — it still pays
  /// one kernel (to its assigned centroid, which keeps the inertia sum and
  /// the upper bound exact), so results are bit-identical to the unpruned
  /// scan. O(n) extra memory, never O(n×k). Always on unless
  /// ExecContext::no_prune (the --no-prune ablation) turns it off.
  const bool prune;
  const bool validate;
  int iter = 0;
  double assign_t0 = 0.0;

  std::vector<std::vector<float>> centroids;
  std::vector<double> centroid_sq;
  // The id-major copy of `centroids` the full k-way scan reads; rebuilt
  // after seeding and after every finalize, inside those serial regions.
  CentroidTile tile;
  std::vector<uint32_t> assignment;
  std::unique_ptr<parallel::WorkerLocal<Accumulators>> scratch;

  // Triangle-inequality pruning state (Hamerly 2010): one upper bound
  // (distance to the assigned centroid) and one lower bound (distance to
  // the runner-up) per document, plus the per-centroid drift of the last
  // finalize. All of it is O(n + k) — never n×k (Elkan) or k×vocabulary
  // — and, like the assignment vector, it is persistent iteration state,
  // so it is allocated once even in the naive-allocation ablation. It
  // persists across windows too: a document's bounds loosen by the same
  // drifts whether its row lives in RAM or is re-scored.
  std::vector<double> upper, lower, drift;
  double max_drift = 0.0, second_drift = 0.0;
  int argmax_drift = -1;

  // The assignment grain is pinned to the executor's automatic choice so
  // the chunk grid is a pure function of (n, workers) — each chunk owns
  // one slot of `chunk_inertia`, making the inertia reduction (chunk
  // order, in finalize) independent of which worker actually runs the
  // chunk, and of how windows cut the corpus.
  size_t assign_grain = 1;
  std::vector<double> chunk_inertia;
};

inline double LloydState::Assign(Accumulators& acc, size_t i,
                                 const containers::SparseVector& row,
                                 double row_sq) {
  // With pruning on, a document whose loosened bounds prove the assigned
  // centroid is still the unique nearest pays one kernel (to that centroid,
  // which keeps the inertia sum and the upper bound exact — hence the
  // bit-identical guarantee) instead of k.
  uint32_t a = assignment[i];
  double d = 0.0;
  bool skip = false;
  if (prune && iter > 0) {
    const double loosen_other =
        static_cast<int>(a) == argmax_drift ? second_drift : max_drift;
    const double u = upper[i] + drift[a];
    const double l = lower[i] - loosen_other;
    if (u + kBoundSafety < l) {
      d = containers::SquaredDistance(row, row_sq, centroids[a],
                                      centroid_sq[a]);
      upper[i] = std::sqrt(std::max(0.0, d));
      lower[i] = l;
      acc.kernels += 1;
      acc.skipped += static_cast<uint64_t>(k - 1);
      skip = true;
    }
  }
  if (!skip) {
    double second_d = 0.0;
    a = static_cast<uint32_t>(
        NearestCentroid(row, row_sq, tile, &d, prune ? &second_d : nullptr));
    acc.kernels += static_cast<uint64_t>(k);
    if (prune) {
      upper[i] = std::sqrt(std::max(0.0, d));
      lower[i] = std::sqrt(std::max(0.0, second_d));
    }
    if (assignment[i] != a) {
      assignment[i] = a;
      ++acc.changed;
    }
  }
  acc.counts[a] += 1;
  // Sparse scatter into the worker's dense sum.
  auto& sum = acc.sums[a];
  for (size_t t = 0; t < row.nnz(); ++t) sum[row.id_at(t)] += row.value_at(t);
  return d;
}

/// One Lloyd/Hamerly run over `source`, the single K-means loop behind
/// SparseKMeans and StreamingSparseKMeans; call it inside the "kmeans"
/// phase. A row source provides `kWindowed`, `size()`, `dim()`,
/// `SeedRow(i)`, `ForEachWindow(fn(begin, end, bytes))` and
/// `Row(worker, i, &row_sq)` (null: the document failed to read); an
/// unwindowed one adds `PlusPlusSeeds(k, seed)` (k-means++ needs
/// full-corpus distance passes), a windowed one `FirstError(begin, end)`.
///
/// An unwindowed source is one corpus-wide window, assigned in one region
/// at the inertia grain, each chunk summing its own inertia slot. A
/// windowed source runs each window's region at the executor's automatic
/// grain (all workers busy whatever the window size); every document
/// parks its distance in a window-sized buffer, and a serial fold adds
/// those, in document order, into the same global chunk grid — so each
/// chunk's sum sees the unwindowed addition sequence however windows cut
/// it. With validate_bounds, an audit region per window re-reads its rows.
template <typename Source>
Status LloydHamerly(ExecContext& ctx, Source& source,
                    const KMeansOptions& options, KMeansResult* result) {
  LloydState state(ctx, options, source.size(), source.dim());
  Status status;
  ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-init"}, [&] {
    std::vector<size_t> seeds;
    if constexpr (!Source::kWindowed) {
      if (options.init == KMeansInit::kPlusPlus) {
        seeds = source.PlusPlusSeeds(options.k, options.seed);
      }
    }
    if (seeds.empty()) seeds = SeedRows(state.n, options.k, options.seed);
    for (int c = 0; c < options.k && status.ok(); ++c) {
      StatusOr<const containers::SparseVector*> row =
          source.SeedRow(seeds[static_cast<size_t>(c)]);
      if (row.ok()) {
        state.SetSeed(c, **row);
      } else {
        status = row.status();
      }
    }
    if (status.ok()) state.tile.Assign(state.centroids, state.centroid_sq);
  });
  HPA_RETURN_IF_ERROR(status);
  state.Allocate();

  std::vector<double> doc_dist;  // grows to the largest window, then reused
  auto assign_window = [&](size_t begin, size_t end,
                           uint64_t bytes) -> Status {
    parallel::WorkHint hint;
    hint.label = "kmeans-assign";
    hint.bytes_touched = bytes + static_cast<uint64_t>(state.k) * state.dim *
                                     sizeof(float);
    const size_t grain = Source::kWindowed ? 0 : state.assign_grain;
    doc_dist.resize(Source::kWindowed ? end - begin : 0);
    ctx.executor->ParallelFor(
        begin, end, grain, hint, [&](int worker, size_t b, size_t e) {
          Accumulators& acc = state.scratch->Get(worker);
          double chunk_inertia = 0.0;
          for (size_t i = b; i < e; ++i) {
            double row_sq = 0.0;
            const containers::SparseVector* row =
                source.Row(worker, i, &row_sq);
            const double d =
                row == nullptr ? 0.0 : state.Assign(acc, i, *row, row_sq);
            if constexpr (Source::kWindowed) {
              doc_dist[i - begin] = d;
            } else {
              chunk_inertia += d;
            }
          }
          if constexpr (!Source::kWindowed) {
            state.chunk_inertia[b / grain] = chunk_inertia;
          }
        });
    if constexpr (Source::kWindowed) {
      HPA_RETURN_IF_ERROR(source.FirstError(begin, end));
      ctx.executor->RunSerial(
          parallel::WorkHint{0, "kmeans-inertia-fold"}, [&] {
            for (size_t i = begin; i < end; ++i) {
              state.chunk_inertia[i / state.assign_grain] +=
                  doc_dist[i - begin];
            }
          });
    }
    if (state.validate) {
      ctx.executor->ParallelFor(
          begin, end, 0, parallel::WorkHint{0, "kmeans-validate"},
          [&](int worker, size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) {
              double row_sq = 0.0;
              const containers::SparseVector* row =
                  source.Row(worker, i, &row_sq);
              if (row == nullptr) continue;
              state.scratch->Get(worker).violations +=
                  state.CountBoundViolations(i, *row, row_sq);
            }
          });
    }
    return Status::OK();
  };
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    state.BeginIteration(iter, Source::kWindowed);
    HPA_RETURN_IF_ERROR(source.ForEachWindow(assign_window));
    if (state.EndIteration(result)) break;
  }
  state.Finish(result);
  return Status::OK();
}

}  // namespace kmeans_internal

}  // namespace hpa::ops

#endif  // HPA_OPS_KMEANS_H_
