#include "ops/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/random.h"
#include "common/string_util.h"
#include "io/csv.h"
#include "parallel/parallel_ops.h"

namespace hpa::ops {

namespace {

/// k-means++ seeding: the first row uniformly at random, each further row
/// sampled with probability proportional to its squared distance to the
/// nearest already-chosen seed. Deterministic in (seed, data).
std::vector<size_t> SeedRowsPlusPlus(const containers::SparseMatrix& matrix,
                                     const std::vector<double>& row_sq,
                                     int k, uint64_t seed) {
  const size_t n = matrix.num_rows();
  Rng rng(seed);
  std::vector<size_t> rows;
  rows.reserve(static_cast<size_t>(k));
  rows.push_back(rng.NextBounded(n));

  // dist2[i] = squared distance of row i to the nearest chosen seed.
  std::vector<double> dist2(n);
  for (size_t i = 0; i < n; ++i) {
    dist2[i] = row_sq[i] - 2.0 * Dot(matrix.rows[i], matrix.rows[rows[0]]) +
               row_sq[rows[0]];
    if (dist2[i] < 0) dist2[i] = 0;
  }

  for (int c = 1; c < k; ++c) {
    double total = 0.0;
    for (double d : dist2) total += d;
    size_t pick = 0;
    if (total <= 0.0) {
      pick = rng.NextBounded(n);  // all points coincide with seeds
    } else {
      double target = rng.NextDouble() * total;
      double cum = 0.0;
      pick = n - 1;
      for (size_t i = 0; i < n; ++i) {
        cum += dist2[i];
        if (cum >= target) {
          pick = i;
          break;
        }
      }
    }
    rows.push_back(pick);
    for (size_t i = 0; i < n; ++i) {
      double d = row_sq[i] - 2.0 * Dot(matrix.rows[i], matrix.rows[pick]) +
                 row_sq[pick];
      if (d < 0) d = 0;
      if (d < dist2[i]) dist2[i] = d;
    }
  }
  return rows;
}

/// The in-memory row source: the matrix rows with their precomputed
/// squared norms, served as one corpus-wide window.
class MatrixRows {
 public:
  static constexpr bool kWindowed = false;

  /// Precomputes the row norms (recycled across iterations; also feeds
  /// k-means++ seeding).
  MatrixRows(ExecContext& ctx, const containers::SparseMatrix& matrix)
      : matrix_(matrix),
        row_sq_(matrix.num_rows()),
        bytes_(matrix.ApproxMemoryBytes()) {
    ctx.executor->ParallelFor(0, matrix.num_rows(), 0, parallel::WorkHint{},
                              [&](int, size_t b, size_t e) {
                                for (size_t i = b; i < e; ++i) {
                                  row_sq_[i] = matrix.rows[i].SquaredL2Norm();
                                }
                              });
  }

  size_t size() const { return matrix_.num_rows(); }
  uint32_t dim() const { return matrix_.num_cols; }

  std::vector<size_t> PlusPlusSeeds(int k, uint64_t seed) const {
    return SeedRowsPlusPlus(matrix_, row_sq_, k, seed);
  }

  StatusOr<const containers::SparseVector*> SeedRow(size_t i) const {
    return &matrix_.rows[i];
  }

  template <typename Fn>
  Status ForEachWindow(Fn&& fn) const {
    return fn(0, matrix_.num_rows(), bytes_);
  }

  const containers::SparseVector* Row(int, size_t i, double* row_sq) const {
    *row_sq = row_sq_[i];
    return &matrix_.rows[i];
  }

 private:
  const containers::SparseMatrix& matrix_;
  std::vector<double> row_sq_;
  const uint64_t bytes_;
};

/// Centroids per pass of NearestCentroid over a row: the 8 float
/// coordinates of one id are 32 bytes of one cache line, and the 8 double
/// sums fit in registers.
constexpr int kTileBlock = 8;

}  // namespace

void CentroidTile::Assign(const std::vector<std::vector<float>>& centroids,
                          const std::vector<double>& centroid_sq) {
  k_ = static_cast<int>(centroids.size());
  dim_ = centroids.empty() ? 0 : static_cast<uint32_t>(centroids[0].size());
  data_.resize(static_cast<size_t>(dim_) * centroids.size());
  sq_.assign(centroid_sq.begin(), centroid_sq.end());
  float* dst = data_.data();
  for (uint32_t id = 0; id < dim_; ++id) {
    for (const std::vector<float>& centroid : centroids) *dst++ = centroid[id];
  }
}

int NearestCentroid(const containers::SparseVector& row, double row_sq,
                    const CentroidTile& tile, double* best_d,
                    double* second_d) {
  const uint32_t* ids = row.ids().data();
  const float* values = row.values().data();
  // Ids ascend, so the in-range entries are a prefix of the row.
  size_t nnz = row.nnz();
  if (nnz > 0 && ids[nnz - 1] >= tile.dim()) {
    nnz = static_cast<size_t>(std::lower_bound(ids, ids + nnz, tile.dim()) -
                              ids);
  }
  const int k = tile.k();
  const size_t stride = static_cast<size_t>(k);
  int best = 0;
  double bd = std::numeric_limits<double>::infinity();
  double sd = std::numeric_limits<double>::infinity();
  for (int c0 = 0; c0 < k; c0 += kTileBlock) {
    // Dots of centroids c0 .. c0 + width - 1, each summed in row order as
    // double(value) * centroid[id] — the addition sequence of
    // containers::Dot, so every distance keeps its bits.
    const int width = std::min(kTileBlock, k - c0);
    const float* block = tile.data() + c0;
    double dot[kTileBlock] = {};
    if (width == kTileBlock) {
      // Fully unrolled, the eight sums stay in registers (an array the
      // loop indexes would live in memory); each still adds its own
      // products in row order.
      double acc[kTileBlock] = {};
      for (size_t t = 0; t < nnz; ++t) {
        const float* line = block + ids[t] * stride;
        const double v = values[t];
#pragma GCC unroll 8
        for (int j = 0; j < kTileBlock; ++j) acc[j] += v * line[j];
      }
      std::copy(acc, acc + kTileBlock, dot);
    } else {
      for (size_t t = 0; t < nnz; ++t) {
        const float* line = block + ids[t] * stride;
        const double v = values[t];
        for (int j = 0; j < width; ++j) dot[j] += v * line[j];
      }
    }
    for (int j = 0; j < width; ++j) {
      const int c = c0 + j;
      double d = row_sq - 2.0 * dot[j] + tile.sq(c);
      if (d < 0.0) d = 0.0;
      // Centroid 0 wins unconditionally (even a NaN distance), as the
      // first kernel of a per-centroid scan would.
      if (c == 0 || d < bd) {
        sd = bd;
        bd = d;
        best = c;
      } else if (d < sd) {
        sd = d;
      }
    }
  }
  *best_d = bd;
  if (second_d != nullptr) *second_d = sd;
  return best;
}

std::vector<double> CentroidSquaredNorms(
    const std::vector<std::vector<float>>& centroids) {
  std::vector<double> norms;
  norms.reserve(centroids.size());
  for (const auto& c : centroids) {
    double sq = 0.0;
    for (float x : c) sq += static_cast<double>(x) * x;
    norms.push_back(sq);
  }
  return norms;
}

StatusOr<KMeansResult> SparseKMeans(ExecContext& ctx,
                                    const containers::SparseMatrix& matrix,
                                    const KMeansOptions& options) {
  HPA_RETURN_IF_ERROR(kmeans_internal::CheckArgs(options, matrix.num_rows()));

  KMeansResult result;
  Status status;
  ctx.TimePhase("kmeans", [&] {
    MatrixRows rows(ctx, matrix);
    status = kmeans_internal::LloydHamerly(ctx, rows, options, &result);
  });
  if (!status.ok()) return status;
  return result;
}

StatusOr<KMeansResult> MiniBatchKMeans(ExecContext& ctx,
                                       const containers::SparseMatrix& matrix,
                                       const KMeansOptions& options,
                                       size_t batch_size) {
  HPA_RETURN_IF_ERROR(kmeans_internal::CheckArgs(options, matrix.num_rows()));
  if (batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }

  const size_t n = matrix.num_rows();
  const uint32_t dim = matrix.num_cols;
  const int k = options.k;
  if (batch_size > n) batch_size = n;

  KMeansResult result;

  ctx.TimePhase("kmeans-minibatch", [&] {
    std::vector<std::vector<float>> centroids;
    std::vector<double> centroid_sq(static_cast<size_t>(k), 0.0);
    CentroidTile tile;  // rebuilt after seeding and after every batch
    std::vector<uint64_t> counts(static_cast<size_t>(k), 0);
    Rng rng(options.seed);

    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-init"}, [&] {
      centroids.assign(static_cast<size_t>(k),
                       std::vector<float>(dim, 0.0f));
      const std::vector<size_t> seeds =
          kmeans_internal::SeedRows(n, k, options.seed);
      for (int c = 0; c < k; ++c) {
        const containers::SparseVector& row =
            matrix.rows[seeds[static_cast<size_t>(c)]];
        containers::AddScaled(row, 1.0f, centroids[static_cast<size_t>(c)]);
        centroid_sq[static_cast<size_t>(c)] = row.SquaredL2Norm();
      }
      tile.Assign(centroids, centroid_sq);
    });

    std::vector<size_t> batch(batch_size);
    std::vector<uint32_t> batch_best(batch_size);
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      ++result.iterations;

      // Sample + per-centroid gradient step: one serial region (the batch
      // is small by design; parallelizing it would be pure overhead).
      ctx.executor->RunSerial(parallel::WorkHint{0, "minibatch-step"}, [&] {
        for (size_t b = 0; b < batch_size; ++b) {
          batch[b] = rng.NextBounded(n);
        }
        for (size_t b = 0; b < batch_size; ++b) {
          const containers::SparseVector& row = matrix.rows[batch[b]];
          double best_d = 0.0;
          int best = NearestCentroid(row, row.SquaredL2Norm(), tile, &best_d);
          batch_best[b] = static_cast<uint32_t>(best);
        }
        for (size_t b = 0; b < batch_size; ++b) {
          size_t c = batch_best[b];
          counts[c] += 1;
          float eta = 1.0f / static_cast<float>(counts[c]);
          auto& centroid = centroids[c];
          // centroid <- (1 - eta) * centroid + eta * x  (sparse x).
          for (float& v : centroid) v *= (1.0f - eta);
          containers::AddScaled(matrix.rows[batch[b]], eta, centroid);
          double sq = 0.0;
          for (float v : centroid) sq += static_cast<double>(v) * v;
          centroid_sq[c] = sq;
        }
        tile.Assign(centroids, centroid_sq);
      });
    }

    // Final full assignment pass: parallel over all documents.
    result.assignment.assign(n, 0);
    parallel::WorkerLocal<double> partial_inertia(*ctx.executor);
    parallel::WorkHint hint;
    hint.label = "minibatch-assign";
    hint.bytes_touched = matrix.ApproxMemoryBytes();
    ctx.executor->ParallelFor(
        0, n, 0, hint, [&](int worker, size_t b, size_t e) {
          double& acc = partial_inertia.Get(worker);
          for (size_t i = b; i < e; ++i) {
            const containers::SparseVector& row = matrix.rows[i];
            double best_d = 0.0;
            int best =
                NearestCentroid(row, row.SquaredL2Norm(), tile, &best_d);
            result.assignment[i] = static_cast<uint32_t>(best);
            acc += best_d;
          }
        });
    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-finalize"}, [&] {
      partial_inertia.ForEach([&](double& v) { result.inertia += v; });
      result.inertia_history.push_back(result.inertia);
      result.centroids = std::move(centroids);
    });
  });

  return result;
}

Status WriteAssignmentsCsv(ExecContext& ctx,
                           const std::vector<std::string>& doc_names,
                           const std::vector<uint32_t>& assignment,
                           const std::string& csv_path) {
  Status status;
  ctx.TimePhase("output", [&] {
    ctx.executor->RunSerial(parallel::WorkHint{0, "output"}, [&] {
      status = [&]() -> Status {
        HPA_ASSIGN_OR_RETURN(auto writer,
                             ctx.scratch_disk->OpenWriter(csv_path));
        std::string chunk = "document,cluster\n";
        for (size_t i = 0; i < assignment.size(); ++i) {
          if (i < doc_names.size()) {
            chunk += io::CsvEscape(doc_names[i]);
          } else {
            chunk += "row_" + std::to_string(i);
          }
          chunk += ',';
          chunk += std::to_string(assignment[i]);
          chunk += '\n';
          if (chunk.size() >= (1 << 16)) {
            HPA_RETURN_IF_ERROR(writer->Append(chunk));
            chunk.clear();
          }
        }
        HPA_RETURN_IF_ERROR(writer->Append(chunk));
        return writer->Close();
      }();
    });
  });
  return status;
}

namespace kmeans_internal {

void Accumulators::Init(int k, uint32_t dim) {
  sums.assign(static_cast<size_t>(k), std::vector<double>(dim, 0.0));
  counts.assign(static_cast<size_t>(k), 0);
  changed = kernels = skipped = violations = 0;
}

void Accumulators::Reset() {
  for (auto& s : sums) std::fill(s.begin(), s.end(), 0.0);
  std::fill(counts.begin(), counts.end(), 0);
  changed = kernels = skipped = violations = 0;
}

Status CheckArgs(const KMeansOptions& options, size_t n) {
  if (options.k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(options.k));
  }
  if (n == 0) return Status::InvalidArgument("cannot cluster an empty matrix");
  if (static_cast<size_t>(options.k) > n) {
    return Status::InvalidArgument(
        StrFormat("k=%d exceeds number of rows (%zu)", options.k, n));
  }
  return Status::OK();
}

std::vector<size_t> SeedRows(size_t n, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> rows;
  rows.reserve(static_cast<size_t>(k));
  for (int c = 0; c < k; ++c) {
    size_t lo = n * static_cast<size_t>(c) / static_cast<size_t>(k);
    size_t hi = n * static_cast<size_t>(c + 1) / static_cast<size_t>(k);
    if (hi <= lo) hi = lo + 1;
    rows.push_back(lo + rng.NextBounded(hi - lo));
  }
  return rows;
}

LloydState::LloydState(ExecContext& ctx, const KMeansOptions& options,
                       size_t n, uint32_t dim)
    : ctx(ctx),
      options(options),
      n(n),
      dim(dim),
      k(options.k),
      prune(!ctx.no_prune),
      validate(prune && options.validate_bounds),
      centroids(static_cast<size_t>(options.k),
                 std::vector<float>(dim, 0.0f)),
      centroid_sq(static_cast<size_t>(options.k), 0.0) {}

void LloydState::SetSeed(int c, const containers::SparseVector& row) {
  containers::AddScaled(row, 1.0f, centroids[static_cast<size_t>(c)]);
  centroid_sq[static_cast<size_t>(c)] = row.SquaredL2Norm();
}

void LloydState::Allocate() {
  assignment.assign(n, 0xFFFFFFFFu);
  using Scratch = parallel::WorkerLocal<Accumulators>;
  if (options.recycle_buffers) {
    // Worker-local accumulators, allocated once up front.
    ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
      scratch = std::make_unique<Scratch>(*ctx.executor);
      scratch->ForEach([&](Accumulators& a) { a.Init(k, dim); });
    });
  }
  if (prune) {
    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-init"}, [&] {
      upper.assign(n, 0.0);
      lower.assign(n, 0.0);
      drift.assign(static_cast<size_t>(k), 0.0);
    });
  }
  assign_grain = ctx.executor->AutoGrain(n);
  ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
    chunk_inertia.assign((n + assign_grain - 1) / assign_grain, 0.0);
  });
}

void LloydState::BeginIteration(int iteration, bool clear_inertia) {
  iter = iteration;
  if (options.recycle_buffers) {
    // Each worker clears its own accumulators in parallel — recycling
    // means no allocation, just a streaming zero-fill.
    ctx.executor->ParallelFor(
        0, scratch->size(), 1, parallel::WorkHint{},
        [&](int, size_t b, size_t e) {
          for (size_t w = b; w < e; ++w) {
            scratch->Get(static_cast<int>(w)).Reset();
          }
        });
  } else {
    // Naive mode: brand-new accumulator objects every iteration,
    // allocated serially (as naive code would) and charged.
    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-alloc"}, [&] {
      scratch =
          std::make_unique<parallel::WorkerLocal<Accumulators>>(*ctx.executor);
      scratch->ForEach([&](Accumulators& a) { a.Init(k, dim); });
    });
  }
  if (clear_inertia) {
    ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
      std::fill(chunk_inertia.begin(), chunk_inertia.end(), 0.0);
    });
  }
  assign_t0 = ctx.executor->Now();
}

uint64_t LloydState::CountBoundViolations(size_t i,
                                          const containers::SparseVector& row,
                                          double row_sq) const {
  // The upper bound must dominate the true distance to the assigned
  // centroid and the lower bound must stay below the true runner-up.
  double min_other = std::numeric_limits<double>::infinity();
  double d_assigned = 0.0;
  for (int c = 0; c < k; ++c) {
    double d = containers::SquaredDistance(row, row_sq,
                                           centroids[static_cast<size_t>(c)],
                                           centroid_sq[static_cast<size_t>(c)]);
    if (static_cast<uint32_t>(c) == assignment[i]) {
      d_assigned = d;
    } else if (d < min_other) {
      min_other = d;
    }
  }
  uint64_t bad = 0;
  if (upper[i] < std::sqrt(std::max(0.0, d_assigned)) - kBoundSafety) ++bad;
  if (lower[i] > std::sqrt(std::max(0.0, min_other)) + kBoundSafety) ++bad;
  return bad;
}

void LloydState::Merge() {
  // Merge of the worker accumulators — the k x vocabulary critical path
  // (not the document loop) that caps Figure 1's scalability and grows
  // with the vocabulary (hence Mix saturating far below NSF). The parallel
  // path is a pairwise tree (the merge schedule of a Cilk reducer
  // hyperobject) whose pair combines are further sliced over clusters x
  // fixed shards of the centroid dimension, so even the final root
  // combine — serial in a plain pairwise tree — spreads across all
  // workers. Slicing is fixed (independent of the worker count), so the
  // additions inside one slice always run in the same order.
  const size_t dim_shards =
      dim == 0 ? 1 : std::min<size_t>(8, static_cast<size_t>(dim));
  auto combine = [&](Accumulators& into, Accumulators& from, size_t part,
                     size_t) {
    const size_t c = part / dim_shards;
    const size_t ds = part % dim_shards;
    if (part == 0) {
      into.changed += from.changed;
      into.kernels += from.kernels;
      into.skipped += from.skipped;
      into.violations += from.violations;
    }
    if (ds == 0) into.counts[c] += from.counts[c];
    const uint32_t lo =
        static_cast<uint32_t>(static_cast<size_t>(dim) * ds / dim_shards);
    const uint32_t hi = static_cast<uint32_t>(static_cast<size_t>(dim) *
                                              (ds + 1) / dim_shards);
    auto& t = into.sums[c];
    const auto& s = from.sums[c];
    for (uint32_t d = lo; d < hi; ++d) t[d] += s[d];
  };
  const size_t parts = static_cast<size_t>(k) * dim_shards;
  if (ctx.serial_merge) {
    // Ablation path: fold every worker accumulator serially, one whole
    // accumulator at a time.
    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-merge"}, [&] {
      for (size_t w = 1; w < scratch->size(); ++w) {
        for (size_t part = 0; part < parts; ++part) {
          combine(scratch->Get(0), scratch->Get(static_cast<int>(w)), part,
                  parts);
        }
      }
    });
    return;
  }
  parallel::WorkHint merge_hint;
  merge_hint.label = "kmeans-merge";
  merge_hint.bytes_touched =
      static_cast<uint64_t>(k) * dim * 2 * sizeof(double);
  // Nested spawn tree by default: a pair combine starts the moment its two
  // inputs are ready. --flat-parallelism keeps the barrier-per-stride
  // schedule; both run the same combines in the same per-slot order, so
  // the centroids are bit-identical.
  if (ctx.flat_parallelism) {
    parallel::ParallelTreeReduceFlat(*ctx.executor, *scratch, parts,
                                     merge_hint, combine);
  } else {
    parallel::ParallelTreeReduce(*ctx.executor, *scratch, parts,
                                 merge_hint, combine);
  }
}

bool LloydState::EndIteration(KMeansResult* result) {
  if (ctx.phases != nullptr) {
    // Recorded as a counter (integer nanoseconds) rather than a phase of
    // its own so the Figure-3/4 stacked breakdowns, which sum all phases,
    // do not double-count the time already inside "kmeans". This is the
    // loop pruning accelerates; merge and finalize are identical in both
    // modes.
    ctx.phases->AddCount(
        "kmeans", "assign_ns",
        static_cast<uint64_t>(
            std::max(0.0, ctx.executor->Now() - assign_t0) * 1e9 + 0.5));
  }
  Merge();

  // Serial centroid finalize from the fully merged accumulator. The drift
  // of each centroid — the L2 norm of its dense float-space delta, the
  // loosening the next iteration's bound tests need — comes out of this
  // same pass by reading each coordinate before it is overwritten: no
  // extra k×vocabulary buffer exists at any point.
  const Accumulators& total = scratch->Get(0);
  double inertia = 0.0;
  ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-finalize"}, [&] {
    // Chunk-order inertia reduction: deterministic for a given
    // (n, workers) no matter where the scheduler placed each chunk.
    for (double v : chunk_inertia) inertia += v;
    for (int c = 0; c < k; ++c) {
      auto& centroid = centroids[static_cast<size_t>(c)];
      uint64_t count = total.counts[static_cast<size_t>(c)];
      if (count == 0) {
        // Empty cluster keeps its centroid — zero drift.
        if (prune) drift[static_cast<size_t>(c)] = 0.0;
        continue;
      }
      const auto& t = total.sums[static_cast<size_t>(c)];
      double inv = 1.0 / static_cast<double>(count);
      double sq = 0.0;
      double drift_sq = 0.0;
      for (uint32_t d = 0; d < dim; ++d) {
        double v = t[d] * inv;
        float fnew = static_cast<float>(v);
        double delta =
            static_cast<double>(fnew) - static_cast<double>(centroid[d]);
        drift_sq += delta * delta;
        centroid[d] = fnew;
        sq += v * v;
      }
      centroid_sq[static_cast<size_t>(c)] = sq;
      if (prune) {
        // Slight inflation keeps the drift a true upper bound on the real
        // movement despite the rounding of the sum above.
        drift[static_cast<size_t>(c)] =
            std::sqrt(drift_sq) * (1.0 + 1e-9) + kBoundSafety * 1e-3;
      }
    }
    if (prune) {
      // Max and runner-up drift over all centroids: the lower bound of a
      // document assigned to the argmax centroid only needs to yield to
      // the second-largest drift.
      max_drift = 0.0;
      second_drift = 0.0;
      argmax_drift = -1;
      for (int c = 0; c < k; ++c) {
        double dr = drift[static_cast<size_t>(c)];
        if (dr > max_drift) {
          second_drift = max_drift;
          max_drift = dr;
          argmax_drift = c;
        } else if (dr > second_drift) {
          second_drift = dr;
        }
      }
    }
    tile.Assign(centroids, centroid_sq);
  });

  ++result->iterations;
  result->inertia = inertia;
  result->inertia_history.push_back(inertia);
  result->distance_kernels_evaluated += total.kernels;
  result->distance_kernels_skipped += total.skipped;
  result->bound_violations += total.violations;
  const double iter_total = static_cast<double>(total.kernels + total.skipped);
  result->skip_rate_history.push_back(
      iter_total > 0 ? static_cast<double>(total.skipped) / iter_total : 0.0);
  if (options.stop_on_convergence && total.changed == 0) {
    result->converged = true;
    return true;
  }
  return false;
}

void LloydState::Finish(KMeansResult* result) {
  if (ctx.phases != nullptr) {
    ctx.phases->AddCount("kmeans", "distance_kernels_evaluated",
                          result->distance_kernels_evaluated);
    ctx.phases->AddCount("kmeans", "distance_kernels_skipped",
                          result->distance_kernels_skipped);
  }
  result->assignment = std::move(assignment);
  result->centroids = std::move(centroids);
}

}  // namespace kmeans_internal

}  // namespace hpa::ops
