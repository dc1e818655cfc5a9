// Tests for the triangle-inequality-pruned K-means assignment step (on
// unless ExecContext::no_prune): the pruned run must be bit-identical to the
// full k-way scan — assignments, centroids, inertia history, iteration
// count — across worker counts and seeds, the Hamerly bounds must bracket
// the true distances every iteration, and the telemetry must account for
// every kernel; the tiled NearestCentroid scan must match the per-centroid
// scan it replaced bit for bit. Labelled "prune" (ctest -L prune) with TSan
// and ASan twins.

#include "ops/kmeans.h"

#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "parallel/simulated_executor.h"
#include "parallel/thread_pool.h"

namespace hpa::ops {
namespace {

using containers::SparseMatrix;
using containers::SparseVector;

// The per-centroid scan the tiled NearestCentroid replaced: k separate
// SquaredDistance kernels, ties to the lowest index.
int ReferenceNearest(const SparseVector& row, double row_sq,
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
  *second_d = sd;
  return best;
}

// Random sparse L2-normalized rows — loose clusters, so assignments keep
// churning for several iterations and the bound tests see both skips and
// exact fallbacks.
SparseMatrix RandomMatrix(size_t n, uint32_t dim, uint64_t seed) {
  SparseMatrix m;
  m.num_cols = dim;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    SparseVector v;
    uint32_t id = 0;
    for (int t = 0; t < 24; ++t) {
      id += 1 + static_cast<uint32_t>(rng.NextBounded(dim / 16 + 1));
      if (id >= dim) break;
      v.PushBack(id, 0.1f + 0.9f * static_cast<float>(rng.NextDouble()));
    }
    if (v.empty()) v.PushBack(0, 1.0f);
    v.NormalizeL2();
    m.rows.push_back(std::move(v));
  }
  return m;
}

ExecContext Ctx(parallel::Executor* exec) {
  ExecContext ctx;
  ctx.executor = exec;
  return ctx;
}

StatusOr<KMeansResult> RunKMeans(parallel::Executor* exec, const SparseMatrix& m,
                           KMeansOptions opts, bool prune) {
  ExecContext ctx = Ctx(exec);
  ctx.no_prune = !prune;
  return SparseKMeans(ctx, m, opts);
}

// The contract the ablation bench enforces at scale, as a property test:
// for every worker count and data seed, pruning changes no observable
// output bit.
TEST(KMeansPruneTest, BitIdenticalAcrossWorkersAndSeeds) {
  for (uint64_t seed : {7u, 19u, 101u}) {
    SparseMatrix m = RandomMatrix(400, 256, seed);
    KMeansOptions opts;
    opts.k = 6;
    opts.max_iterations = 8;
    opts.stop_on_convergence = false;
    for (int workers : {1, 2, 4, 8}) {
      parallel::ThreadPoolExecutor exec(workers);
      auto pruned = RunKMeans(&exec, m, opts, true);
      auto full = RunKMeans(&exec, m, opts, false);
      ASSERT_TRUE(pruned.ok() && full.ok());
      EXPECT_EQ(pruned->assignment, full->assignment)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(pruned->centroids, full->centroids)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(pruned->inertia_history, full->inertia_history)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(pruned->iterations, full->iterations);
      EXPECT_EQ(pruned->converged, full->converged);
      // Pruning must actually fire on this data, and every kernel must be
      // accounted for: evaluated + skipped == n * k * iterations.
      EXPECT_GT(pruned->distance_kernels_skipped, 0u);
      EXPECT_EQ(pruned->distance_kernels_evaluated +
                    pruned->distance_kernels_skipped,
                m.rows.size() * static_cast<uint64_t>(opts.k) *
                    static_cast<uint64_t>(pruned->iterations));
      EXPECT_EQ(full->distance_kernels_skipped, 0u);
      EXPECT_EQ(full->distance_kernels_evaluated,
                m.rows.size() * static_cast<uint64_t>(opts.k) *
                    static_cast<uint64_t>(full->iterations));
    }
  }
}

// Early convergence must trip at the same iteration in both modes (the
// changed-counts are part of the bit-identity contract).
TEST(KMeansPruneTest, ConvergenceIterationMatches) {
  SparseMatrix m = RandomMatrix(300, 128, 3);
  KMeansOptions opts;
  opts.k = 4;
  opts.max_iterations = 50;
  opts.stop_on_convergence = true;
  parallel::ThreadPoolExecutor exec(4);
  auto pruned = RunKMeans(&exec, m, opts, true);
  auto full = RunKMeans(&exec, m, opts, false);
  ASSERT_TRUE(pruned.ok() && full.ok());
  EXPECT_EQ(pruned->iterations, full->iterations);
  EXPECT_EQ(pruned->converged, full->converged);
  EXPECT_EQ(pruned->assignment, full->assignment);
  EXPECT_EQ(pruned->inertia_history, full->inertia_history);
}

// Bound invariant, checked by the operator itself (validate_bounds): after
// every assignment step each document's upper bound dominates its true
// distance and its lower bound stays below the true runner-up distance.
TEST(KMeansPruneTest, BoundsBracketTrueDistances) {
  for (uint64_t seed : {5u, 23u}) {
    SparseMatrix m = RandomMatrix(350, 192, seed);
    KMeansOptions opts;
    opts.k = 5;
    opts.max_iterations = 10;
    opts.stop_on_convergence = false;
    opts.validate_bounds = true;
    for (int workers : {1, 4}) {
      parallel::ThreadPoolExecutor exec(workers);
      ExecContext ctx = Ctx(&exec);
      auto result = SparseKMeans(ctx, m, opts);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->bound_violations, 0u)
          << "seed " << seed << " workers " << workers;
    }
  }
}

// Degenerate shapes: k > n is rejected; k == n (every point its own
// cluster, duplicates forcing empty clusters) must not crash or diverge
// from the unpruned path.
TEST(KMeansPruneTest, DegenerateShapes) {
  SparseMatrix m;
  m.num_cols = 4;
  for (int i = 0; i < 6; ++i) {
    // Three distinct points, each duplicated — some of the six clusters
    // must come up empty and keep their centroid (zero drift).
    SparseVector v = SparseVector::FromPairs(
        {{static_cast<uint32_t>(i / 2), 1.0f}});
    m.rows.push_back(std::move(v));
  }
  parallel::ThreadPoolExecutor exec(2);

  KMeansOptions opts;
  opts.k = 7;  // k > n
  EXPECT_EQ(RunKMeans(&exec, m, opts, true).status().code(),
            StatusCode::kInvalidArgument);

  opts.k = 6;  // k == n with duplicate rows -> empty clusters
  opts.max_iterations = 6;
  opts.stop_on_convergence = false;
  opts.validate_bounds = true;
  auto pruned = RunKMeans(&exec, m, opts, true);
  auto full = RunKMeans(&exec, m, opts, false);
  ASSERT_TRUE(pruned.ok() && full.ok());
  EXPECT_EQ(pruned->assignment, full->assignment);
  EXPECT_EQ(pruned->centroids, full->centroids);
  EXPECT_EQ(pruned->inertia_history, full->inertia_history);
  EXPECT_EQ(pruned->bound_violations, 0u);
}

// ExecContext::no_prune overrides the operator option (the --no-prune
// ablation path): no kernels may be skipped, and the per-iteration history
// must be all zeros.
TEST(KMeansPruneTest, NoPruneOverrideDisablesSkips) {
  SparseMatrix m = RandomMatrix(200, 128, 11);
  KMeansOptions opts;
  opts.k = 4;
  opts.max_iterations = 6;
  opts.stop_on_convergence = false;
  parallel::ThreadPoolExecutor exec(4);
  ExecContext ctx = Ctx(&exec);
  ctx.no_prune = true;
  auto result = SparseKMeans(ctx, m, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distance_kernels_skipped, 0u);
  ASSERT_EQ(result->skip_rate_history.size(),
            static_cast<size_t>(result->iterations));
  for (double r : result->skip_rate_history) EXPECT_EQ(r, 0.0);
}

// Iteration 0 has no bounds yet, so the first entry of the skip history is
// always zero even when later iterations skip heavily; under the simulated
// executor the same holds and results still match the unpruned scan.
TEST(KMeansPruneTest, SkipHistoryShapeAndSimulatedExecutor) {
  SparseMatrix m = RandomMatrix(300, 160, 29);
  KMeansOptions opts;
  opts.k = 5;
  opts.max_iterations = 8;
  opts.stop_on_convergence = false;
  parallel::SimulatedExecutor exec(8, parallel::MachineModel::Default());
  auto pruned = RunKMeans(&exec, m, opts, true);
  auto full = RunKMeans(&exec, m, opts, false);
  ASSERT_TRUE(pruned.ok() && full.ok());
  ASSERT_EQ(pruned->skip_rate_history.size(),
            static_cast<size_t>(pruned->iterations));
  EXPECT_EQ(pruned->skip_rate_history[0], 0.0);
  EXPECT_EQ(pruned->assignment, full->assignment);
  EXPECT_EQ(pruned->centroids, full->centroids);
  EXPECT_EQ(pruned->inertia_history, full->inertia_history);
}

// The tiled scan against the per-centroid reference, bit for bit: k on
// both sides of the 8-centroid block (remainder blocks of 1, 2, 7 and 1),
// duplicated centroids forcing exact ties, rows reaching past the tile's
// dimension, and the empty row.
TEST(NearestCentroidTileTest, MatchesPerCentroidScanBitForBit) {
  constexpr uint32_t kDim = 300;
  for (int k : {1, 2, 7, 8, 9, 17}) {
    Rng rng(1000 + static_cast<uint64_t>(k));
    std::vector<std::vector<float>> centroids(static_cast<size_t>(k));
    for (auto& c : centroids) {
      c.resize(kDim);
      for (float& x : c) {
        // A third of the coordinates zero, the rest of either sign.
        x = rng.NextBounded(3) == 0
                ? 0.0f
                : static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
      }
    }
    // Exact ties: the last centroid duplicates the first, and for k >= 9
    // centroid 8 (the first of the second block) duplicates centroid 3.
    if (k >= 2) centroids[static_cast<size_t>(k - 1)] = centroids[0];
    if (k >= 9) centroids[8] = centroids[3];
    const std::vector<double> sq = CentroidSquaredNorms(centroids);
    const CentroidTile tile(centroids, sq);
    ASSERT_EQ(tile.k(), k);
    ASSERT_EQ(tile.dim(), kDim);

    std::vector<SparseVector> rows;
    rows.emplace_back();  // the empty row
    for (int r = 0; r < 200; ++r) {
      SparseVector v;
      uint32_t id = static_cast<uint32_t>(rng.NextBounded(8));
      // Ids step past kDim on some rows: those entries must be ignored.
      const uint32_t limit = r % 4 == 0 ? kDim + 50 : kDim;
      while (id < limit) {
        v.PushBack(id, static_cast<float>(rng.NextDouble() * 2.0 - 0.5));
        id += 1 + static_cast<uint32_t>(rng.NextBounded(r % 2 == 0 ? 4 : 40));
      }
      rows.push_back(std::move(v));
    }
    // A row equal to centroid 0 ties it with its duplicate at distance 0.
    SparseVector on_centroid;
    for (uint32_t d = 0; d < kDim; ++d) {
      if (centroids[0][d] != 0.0f) on_centroid.PushBack(d, centroids[0][d]);
    }
    rows.push_back(std::move(on_centroid));

    for (size_t r = 0; r < rows.size(); ++r) {
      const SparseVector& row = rows[r];
      const double row_sq = row.SquaredL2Norm();
      double want_d = 0.0, want_second = 0.0, got_d = 0.0, got_second = 0.0;
      const int want =
          ReferenceNearest(row, row_sq, centroids, sq, &want_d, &want_second);
      const int got = NearestCentroid(row, row_sq, tile, &got_d, &got_second);
      EXPECT_EQ(got, want) << "k " << k << " row " << r;
      EXPECT_EQ(std::bit_cast<uint64_t>(got_d),
                std::bit_cast<uint64_t>(want_d))
          << "k " << k << " row " << r;
      EXPECT_EQ(std::bit_cast<uint64_t>(got_second),
                std::bit_cast<uint64_t>(want_second))
          << "k " << k << " row " << r;
    }
  }
}

}  // namespace
}  // namespace hpa::ops
