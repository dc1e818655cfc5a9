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
  // computed vs skipped by the bound test this iteration.
  uint64_t kernels = 0;
  uint64_t skipped = 0;

  void Init(int k, uint32_t dim) {
    sums.assign(static_cast<size_t>(k), std::vector<double>(dim, 0.0));
    counts.assign(static_cast<size_t>(k), 0);
    changed = 0;
    kernels = 0;
    skipped = 0;
  }

  void Reset() {
    for (auto& s : sums) std::fill(s.begin(), s.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    changed = 0;
    kernels = 0;
    skipped = 0;
  }
};

/// Absolute slack (in distance units; rows are L2-normalized so distances
/// are O(1)) applied to the skip test and the drift estimates. It absorbs
/// the floating-point rounding of the sparse kernel and the sqrt so a skip
/// is only taken when the assigned centroid is the unique nearest by a
/// margin no rounding can cross — which is what keeps pruned assignments
/// bit-identical to the full scan.
constexpr double kBoundSafety = 1e-7;

/// Picks k well-spread distinct rows as initial centroids,
/// deterministically in (seed, n).
std::vector<size_t> SeedRows(size_t n, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> rows;
  rows.reserve(static_cast<size_t>(k));
  // Stratified picks: one uniformly random row from each of k equal spans,
  // which is deterministic, well-spread, and avoids duplicate picks.
  for (int c = 0; c < k; ++c) {
    size_t lo = n * static_cast<size_t>(c) / static_cast<size_t>(k);
    size_t hi = n * static_cast<size_t>(c + 1) / static_cast<size_t>(k);
    if (hi <= lo) hi = lo + 1;
    rows.push_back(lo + rng.NextBounded(hi - lo));
  }
  return rows;
}

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

}  // namespace

int NearestCentroid(const containers::SparseVector& row, double row_sq,
                    const std::vector<std::vector<float>>& centroids,
                    const std::vector<double>& centroid_sq, double* best_d,
                    double* second_d) {
  int best = 0;
  double bd = containers::SquaredDistance(row, row_sq, centroids[0],
                                          centroid_sq[0]);
  double sd = std::numeric_limits<double>::infinity();
  for (size_t c = 1; c < centroids.size(); ++c) {
    double d =
        containers::SquaredDistance(row, row_sq, centroids[c], centroid_sq[c]);
    if (d < bd) {
      sd = bd;
      bd = d;
      best = static_cast<int>(c);
    } else if (d < sd) {
      sd = d;
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
  if (options.k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(options.k));
  }
  if (matrix.num_rows() == 0) {
    return Status::InvalidArgument("cannot cluster an empty matrix");
  }
  if (static_cast<size_t>(options.k) > matrix.num_rows()) {
    return Status::InvalidArgument(
        StrFormat("k=%d exceeds number of rows (%zu)", options.k,
                  matrix.num_rows()));
  }

  const size_t n = matrix.num_rows();
  const uint32_t dim = matrix.num_cols;
  const int k = options.k;

  KMeansResult result;

  ctx.TimePhase("kmeans", [&] {
    // Precompute row norms once (recycled across iterations; also feeds
    // k-means++ seeding).
    std::vector<double> row_sq(n);
    ctx.executor->ParallelFor(0, n, 0, parallel::WorkHint{},
                              [&](int, size_t b, size_t e) {
                                for (size_t i = b; i < e; ++i) {
                                  row_sq[i] = matrix.rows[i].SquaredL2Norm();
                                }
                              });

    // --- one-time setup (serial region, charged) -------------------------
    std::vector<std::vector<float>> centroids;
    std::vector<double> centroid_sq(static_cast<size_t>(k), 0.0);
    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-init"}, [&] {
      centroids.assign(static_cast<size_t>(k),
                       std::vector<float>(dim, 0.0f));
      const std::vector<size_t> seeds =
          options.init == KMeansInit::kPlusPlus
              ? SeedRowsPlusPlus(matrix, row_sq, k, options.seed)
              : SeedRows(n, k, options.seed);
      for (int c = 0; c < k; ++c) {
        // Densify the seed rows.
        const containers::SparseVector& row =
            matrix.rows[seeds[static_cast<size_t>(c)]];
        containers::AddScaled(row, 1.0f, centroids[static_cast<size_t>(c)]);
        centroid_sq[static_cast<size_t>(c)] = row.SquaredL2Norm();
      }
    });

    result.assignment.assign(n, 0xFFFFFFFFu);

    // Worker-local accumulators, allocated once up front when recycling.
    using Scratch = parallel::WorkerLocal<Accumulators>;
    std::unique_ptr<Scratch> scratch;
    if (options.recycle_buffers) {
      ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
        scratch = std::make_unique<Scratch>(*ctx.executor);
        scratch->ForEach([&](Accumulators& a) { a.Init(k, dim); });
      });
    }

    // Triangle-inequality pruning state (Hamerly 2010): one upper bound
    // (distance to the assigned centroid) and one lower bound (distance to
    // the runner-up) per document, plus the per-centroid drift of the last
    // finalize. All of it is O(n + k) — never n×k (Elkan) or k×vocabulary
    // — and, like the assignment vector, it is persistent iteration state,
    // so it is allocated once even in the naive-allocation ablation.
    const bool prune = options.prune && !ctx.no_prune;
    std::vector<double> upper, lower, drift;
    double max_drift = 0.0, second_drift = 0.0;
    int argmax_drift = -1;
    if (prune) {
      ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-init"}, [&] {
        upper.assign(n, 0.0);
        lower.assign(n, 0.0);
        drift.assign(static_cast<size_t>(k), 0.0);
      });
    }
    std::unique_ptr<parallel::WorkerLocal<uint64_t>> violations;
    if (prune && options.validate_bounds) {
      ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
        violations =
            std::make_unique<parallel::WorkerLocal<uint64_t>>(*ctx.executor);
        violations->ForEach([](uint64_t& v) { v = 0; });
      });
    }

    parallel::WorkHint assign_hint;
    assign_hint.label = "kmeans-assign";
    assign_hint.bytes_touched =
        matrix.ApproxMemoryBytes() +
        static_cast<uint64_t>(k) * dim * sizeof(float);

    // The assignment grain is pinned to the executor's automatic choice so
    // the chunk grid is a pure function of (n, workers) — each chunk owns
    // one slot of `chunk_inertia`, making the inertia reduction (chunk
    // order, below in finalize) independent of which worker actually runs
    // the chunk. Allocated once: persistent iteration state, like the
    // assignment vector.
    const size_t assign_grain = ctx.executor->AutoGrain(n);
    const size_t assign_chunks = (n + assign_grain - 1) / assign_grain;
    std::vector<double> chunk_inertia;
    ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
      chunk_inertia.assign(assign_chunks, 0.0);
    });

    // --- Lloyd iterations --------------------------------------------------
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      ++result.iterations;

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
          scratch = std::make_unique<Scratch>(*ctx.executor);
          scratch->ForEach([&](Accumulators& a) { a.Init(k, dim); });
        });
      }

      // Parallel assignment + accumulation over documents. With pruning
      // on, a document whose loosened bounds prove the assigned centroid
      // is still the unique nearest pays one kernel (to that centroid,
      // which keeps the inertia sum and the upper bound exact — hence the
      // bit-identical guarantee) instead of k. Timed separately (the
      // "assign_ns" counter on the kmeans phase): this loop is what
      // pruning accelerates, while merge and finalize are identical in
      // both modes.
      const double assign_t0 = ctx.executor->Now();
      ctx.executor->ParallelFor(
          0, n, assign_grain, assign_hint,
          [&](int worker, size_t b, size_t e) {
            Accumulators& acc = scratch->Get(worker);
            double local_inertia = 0.0;
            for (size_t i = b; i < e; ++i) {
              const containers::SparseVector& row = matrix.rows[i];
              if (prune && iter > 0) {
                const uint32_t a = result.assignment[i];
                const double loosen_other =
                    static_cast<int>(a) == argmax_drift ? second_drift
                                                        : max_drift;
                const double u = upper[i] + drift[a];
                const double l = lower[i] - loosen_other;
                if (u + kBoundSafety < l) {
                  double d = containers::SquaredDistance(
                      row, row_sq[i], centroids[a], centroid_sq[a]);
                  upper[i] = std::sqrt(std::max(0.0, d));
                  lower[i] = l;
                  acc.kernels += 1;
                  acc.skipped += static_cast<uint64_t>(k - 1);
                  local_inertia += d;
                  acc.counts[a] += 1;
                  auto& sum = acc.sums[a];
                  for (size_t t = 0; t < row.nnz(); ++t) {
                    sum[row.id_at(t)] += row.value_at(t);
                  }
                  continue;
                }
              }
              double best_d = 0.0;
              double second_d = 0.0;
              int best =
                  NearestCentroid(row, row_sq[i], centroids, centroid_sq,
                                  &best_d, prune ? &second_d : nullptr);
              acc.kernels += static_cast<uint64_t>(k);
              if (prune) {
                upper[i] = std::sqrt(std::max(0.0, best_d));
                lower[i] = std::sqrt(std::max(0.0, second_d));
              }
              if (result.assignment[i] != static_cast<uint32_t>(best)) {
                result.assignment[i] = static_cast<uint32_t>(best);
                ++acc.changed;
              }
              local_inertia += best_d;
              acc.counts[static_cast<size_t>(best)] += 1;
              // Sparse scatter into the worker's dense sum.
              auto& sum = acc.sums[static_cast<size_t>(best)];
              for (size_t t = 0; t < row.nnz(); ++t) {
                sum[row.id_at(t)] += row.value_at(t);
              }
            }
            chunk_inertia[b / assign_grain] = local_inertia;
          });
      if (ctx.phases != nullptr) {
        // Recorded as a counter (integer nanoseconds) rather than a phase
        // of its own so the Figure-3/4 stacked breakdowns, which sum all
        // phases, do not double-count the time already inside "kmeans".
        ctx.phases->AddCount(
            "kmeans", "assign_ns",
            static_cast<uint64_t>(
                std::max(0.0, ctx.executor->Now() - assign_t0) * 1e9 + 0.5));
      }

      // Bound-invariant audit (test hook): every document's upper bound
      // must dominate its true distance and its lower bound must stay
      // below the true runner-up distance, up to the safety slack.
      if (prune && options.validate_bounds) {
        ctx.executor->ParallelFor(
            0, n, 0, parallel::WorkHint{0, "kmeans-validate"},
            [&](int worker, size_t b, size_t e) {
              uint64_t bad = 0;
              for (size_t i = b; i < e; ++i) {
                const containers::SparseVector& row = matrix.rows[i];
                const uint32_t a = result.assignment[i];
                double min_other = std::numeric_limits<double>::infinity();
                double d_assigned = 0.0;
                for (int c = 0; c < k; ++c) {
                  double d = containers::SquaredDistance(
                      row, row_sq[i], centroids[static_cast<size_t>(c)],
                      centroid_sq[static_cast<size_t>(c)]);
                  if (static_cast<uint32_t>(c) == a) {
                    d_assigned = d;
                  } else if (d < min_other) {
                    min_other = d;
                  }
                }
                double true_u = std::sqrt(std::max(0.0, d_assigned));
                double true_l = std::sqrt(std::max(0.0, min_other));
                if (upper[i] < true_u - kBoundSafety) ++bad;
                if (lower[i] > true_l + kBoundSafety) ++bad;
              }
              violations->Get(worker) += bad;
            });
      }

      // Merge of the worker accumulators — the k x vocabulary critical
      // path (not the document loop) that caps Figure 1's scalability and
      // grows with the vocabulary (hence Mix saturating far below NSF).
      // The parallel path is a pairwise tree (the merge schedule of a Cilk
      // reducer hyperobject) whose pair combines are further sliced over
      // clusters x fixed shards of the centroid dimension, so even the
      // final root combine — serial in a plain pairwise tree — spreads
      // across all workers. Slicing is fixed (independent of the worker
      // count), so the additions inside one slice always run in the same
      // order.
      if (ctx.serial_merge) {
        // Ablation path: fold every worker accumulator serially.
        ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-merge"}, [&] {
          Accumulators& total = scratch->Get(0);
          for (size_t w = 1; w < scratch->size(); ++w) {
            Accumulators& from = scratch->Get(static_cast<int>(w));
            total.changed += from.changed;
            total.kernels += from.kernels;
            total.skipped += from.skipped;
            for (int c = 0; c < k; ++c) {
              total.counts[static_cast<size_t>(c)] +=
                  from.counts[static_cast<size_t>(c)];
              auto& t = total.sums[static_cast<size_t>(c)];
              const auto& s = from.sums[static_cast<size_t>(c)];
              for (uint32_t d = 0; d < dim; ++d) t[d] += s[d];
            }
          }
        });
      } else {
        // Fixed sub-cluster slicing of the dimension range keeps per-task
        // work contiguous and the FP addition order worker-count-free
        // within a slice.
        const size_t dim_shards =
            dim == 0 ? 1 : std::min<size_t>(8, static_cast<size_t>(dim));
        const size_t parts = static_cast<size_t>(k) * dim_shards;
        parallel::WorkHint merge_hint;
        merge_hint.label = "kmeans-merge";
        merge_hint.bytes_touched =
            static_cast<uint64_t>(k) * dim * 2 * sizeof(double);
        auto combine = [&](Accumulators& into, Accumulators& from,
                           size_t part, size_t nparts) {
          (void)nparts;
          const size_t c = part / dim_shards;
          const size_t ds = part % dim_shards;
          if (part == 0) {
            into.changed += from.changed;
            into.kernels += from.kernels;
            into.skipped += from.skipped;
          }
          if (ds == 0) into.counts[c] += from.counts[c];
          const uint32_t lo = static_cast<uint32_t>(
              static_cast<size_t>(dim) * ds / dim_shards);
          const uint32_t hi = static_cast<uint32_t>(
              static_cast<size_t>(dim) * (ds + 1) / dim_shards);
          auto& t = into.sums[c];
          const auto& s = from.sums[c];
          for (uint32_t d = lo; d < hi; ++d) t[d] += s[d];
        };
        // Nested spawn tree by default: a pair combine starts the moment
        // its two inputs are ready. --flat-parallelism keeps the
        // barrier-per-stride schedule; both run the same combines in the
        // same per-slot order, so the centroids are bit-identical.
        if (ctx.flat_parallelism) {
          parallel::ParallelTreeReduceFlat(*ctx.executor, *scratch, parts,
                                           merge_hint, combine);
        } else {
          parallel::ParallelTreeReduce(*ctx.executor, *scratch, parts,
                                       merge_hint, combine);
        }
      }

      // Serial centroid finalize from the fully merged accumulator. The
      // drift of each centroid — the L2 norm of its dense float-space
      // delta, the loosening the next iteration's bound tests need — comes
      // out of this same pass by reading each coordinate before it is
      // overwritten: no extra k×vocabulary buffer exists at any point.
      uint64_t changed = 0;
      double inertia = 0.0;
      uint64_t iter_kernels = 0;
      uint64_t iter_skipped = 0;
      ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-finalize"}, [&] {
        Accumulators& total = scratch->Get(0);
        changed = total.changed;
        iter_kernels = total.kernels;
        iter_skipped = total.skipped;
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
            double delta = static_cast<double>(fnew) -
                           static_cast<double>(centroid[d]);
            drift_sq += delta * delta;
            centroid[d] = fnew;
            sq += v * v;
          }
          centroid_sq[static_cast<size_t>(c)] = sq;
          if (prune) {
            // Slight inflation keeps the drift a true upper bound on the
            // real movement despite the rounding of the sum above.
            drift[static_cast<size_t>(c)] =
                std::sqrt(drift_sq) * (1.0 + 1e-9) + kBoundSafety * 1e-3;
          }
        }
        if (prune) {
          // Max and runner-up drift over all centroids: the lower bound of
          // a document assigned to the argmax centroid only needs to yield
          // to the second-largest drift.
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
      });

      result.inertia = inertia;
      result.inertia_history.push_back(inertia);
      result.distance_kernels_evaluated += iter_kernels;
      result.distance_kernels_skipped += iter_skipped;
      const double iter_total =
          static_cast<double>(iter_kernels + iter_skipped);
      result.skip_rate_history.push_back(
          iter_total > 0 ? static_cast<double>(iter_skipped) / iter_total
                         : 0.0);
      if (options.stop_on_convergence && changed == 0) {
        result.converged = true;
        break;
      }
    }

    if (violations != nullptr) {
      ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
        violations->ForEach(
            [&](uint64_t& v) { result.bound_violations += v; });
      });
    }
    if (ctx.phases != nullptr) {
      ctx.phases->AddCount("kmeans", "distance_kernels_evaluated",
                           result.distance_kernels_evaluated);
      ctx.phases->AddCount("kmeans", "distance_kernels_skipped",
                           result.distance_kernels_skipped);
    }

    result.centroids = std::move(centroids);
  });

  return result;
}

StatusOr<KMeansResult> MiniBatchKMeans(ExecContext& ctx,
                                       const containers::SparseMatrix& matrix,
                                       const KMeansOptions& options,
                                       size_t batch_size) {
  if (options.k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(options.k));
  }
  if (matrix.num_rows() == 0) {
    return Status::InvalidArgument("cannot cluster an empty matrix");
  }
  if (static_cast<size_t>(options.k) > matrix.num_rows()) {
    return Status::InvalidArgument(
        StrFormat("k=%d exceeds number of rows (%zu)", options.k,
                  matrix.num_rows()));
  }
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
    std::vector<uint64_t> counts(static_cast<size_t>(k), 0);
    Rng rng(options.seed);

    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-init"}, [&] {
      centroids.assign(static_cast<size_t>(k),
                       std::vector<float>(dim, 0.0f));
      const std::vector<size_t> seeds = SeedRows(n, k, options.seed);
      for (int c = 0; c < k; ++c) {
        const containers::SparseVector& row =
            matrix.rows[seeds[static_cast<size_t>(c)]];
        containers::AddScaled(row, 1.0f, centroids[static_cast<size_t>(c)]);
        centroid_sq[static_cast<size_t>(c)] = row.SquaredL2Norm();
      }
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
          int best = NearestCentroid(row, row.SquaredL2Norm(), centroids,
                                     centroid_sq, &best_d);
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
            int best = NearestCentroid(row, row.SquaredL2Norm(), centroids,
                                       centroid_sq, &best_d);
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

}  // namespace hpa::ops
