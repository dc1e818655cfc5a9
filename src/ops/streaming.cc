#include "ops/streaming.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/random.h"
#include "common/string_util.h"
#include "parallel/parallel_ops.h"

namespace hpa::ops {

namespace streaming_internal {

void AddPrefetchCounters(PhaseTimer* phases, const std::string& phase,
                         const io::PrefetchStats& stats) {
  if (phases == nullptr) return;
  phases->AddCount(phase, "windows_fetched", stats.windows_fetched);
  phases->AddCount(phase, "windows_prefetched", stats.windows_prefetched);
  phases->AddCount(phase, "bytes_read_ahead", stats.bytes_read_ahead);
  phases->AddCount(
      phase, "stall_ns",
      static_cast<uint64_t>(std::max(0.0, stats.stall_seconds) * 1e9 + 0.5));
  phases->AddCount(
      phase, "overlap_permille",
      static_cast<uint64_t>(stats.OverlapRatio() * 1000.0 + 0.5));
  phases->AddCount(phase, "high_water_bytes", stats.high_water_bytes);
}

}  // namespace streaming_internal

namespace {

/// Folds one pass's window stats into the caller-provided accumulator.
void AccumulateStats(io::PrefetchStats* into, const io::PrefetchStats& from) {
  if (into == nullptr) return;
  into->windows_fetched += from.windows_fetched;
  into->windows_prefetched += from.windows_prefetched;
  into->bytes_read += from.bytes_read;
  into->bytes_read_ahead += from.bytes_read_ahead;
  into->stall_seconds += from.stall_seconds;
  into->lane_busy_seconds += from.lane_busy_seconds;
  into->crc_reread_docs += from.crc_reread_docs;
  into->high_water_bytes =
      std::max(into->high_water_bytes, from.high_water_bytes);
}

// --- K-means internals mirrored from ops/kmeans.cc -------------------------
// The streaming assignment step must stay BIT-IDENTICAL to SparseKMeans, so
// these definitions (accumulator layout, safety margin, seeding) must not
// drift from their kmeans.cc counterparts; the multi-op float kernels
// themselves (SquaredDistance, NearestCentroid) are shared functions.

struct Accumulators {
  std::vector<std::vector<double>> sums;
  std::vector<uint64_t> counts;
  uint64_t changed = 0;
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

constexpr double kBoundSafety = 1e-7;

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

/// Per-worker recycled scoring state for pass-2 row re-derivation.
struct ScoreScratch {
  TfidfVectorizer::Scratch scratch;
  containers::SparseVector row;
};

/// Global df-table footprint a streaming fit reports: the per-document
/// path's sharded table (its per-document tables never all live at once),
/// or the interned path's vocabularies.
template <containers::DictBackend B>
uint64_t FitDictBytes(const WordCountResult<B>& wc) {
  return wc.doc_freq.ApproxMemoryBytes();
}
uint64_t FitDictBytes(const InternedWordCount& wc) { return wc.dict_bytes; }

/// Pass 1 over either counting representation (wc_internal::
/// PerDocumentCounts or InternedCounts, built without per-document state).
template <typename Counts>
StatusOr<StreamingTfidfModel> StreamingTfidfFitT(
    ExecContext& ctx, const io::PackedCorpusReader& corpus,
    const TfidfOptions& options, const StreamingOptions& sopts,
    io::PrefetchStats* stats, Counts counts) {
  StreamingTfidfModel model;
  const size_t n = corpus.size();
  model.num_docs = n;
  model.corpus_path = corpus.rel_path();
  model.window_bytes = sopts.window_bytes;
  model.prefetch = sopts.prefetch;

  // Persistent across windows: df increments are order-insensitive
  // integers, so accumulating them window-by-window into the same
  // per-worker partials yields exactly the table one whole-corpus pass
  // builds, regardless of which window (or worker) saw each document.
  wc_internal::DocOutcomes out(*ctx.executor, n);
  io::WindowPrefetcher windows(&corpus, sopts.window_bytes, sopts.prefetch);

  Status stream_status;
  ctx.TimePhase("input+wc", [&] {
    for (size_t w = 0; w < windows.num_windows(); ++w) {
      if (sopts.fail_after_windows >= 0 &&
          w >= static_cast<size_t>(sopts.fail_after_windows)) {
        stream_status = Status::Internal(
            StrFormat("injected stream failure after %d window(s)",
                      sopts.fail_after_windows));
        return;
      }
      const io::WindowData& data = windows.Acquire(ctx.executor, w);
      wc_internal::CountBodies(
          ctx, wc_internal::WindowBodies{corpus, data, windows.window(w).bytes},
          counts, out);
      // Fail fast between windows: the region above cancelled its own
      // remaining chunks; no point fetching further windows either.
      stream_status = out.FirstError(data.begin_doc, data.end_doc,
                                     "streaming word count");
      if (!stream_status.ok()) return;
    }
  });
  streaming_internal::AddPrefetchCounters(ctx.phases, "input+wc",
                                          windows.stats());
  AccumulateStats(stats, windows.stats());
  if (!stream_status.ok()) return stream_status;

  model.doc_failed = std::move(out.failed);
  auto wc = counts.Finish(ctx, out);
  model.total_tokens = wc.total_tokens;
  model.doc_names = std::move(wc.doc_names);
  model.quarantine = std::move(wc.quarantine);

  // Same sorted global term-id assignment as the in-memory transform, so
  // terms/ids/dfs are identical no matter how documents were windowed. The
  // counts are dropped right after: the model keeps only the sorted
  // vocabulary, frozen into the scorer pass 2 re-derives rows with.
  ctx.TimePhase("transform", [&] {
    std::vector<uint32_t> dfs;
    std::vector<std::string> terms =
        tfidf_internal::AssignTermIds(ctx, wc, options, &dfs);
    model.scorer =
        TfidfVectorizer(std::move(terms), std::move(dfs), n, options);
  });
  model.dict_bytes = FitDictBytes(wc);
  return model;
}

}  // namespace

StatusOr<StreamingTfidfModel> StreamingTfidfFit(
    ExecContext& ctx, const io::PackedCorpusReader& corpus,
    const TfidfOptions& options, const StreamingOptions& sopts,
    io::PrefetchStats* stats) {
  const size_t n = corpus.size();
  if (ctx.dict_backend == containers::DictBackend::kInterned) {
    return StreamingTfidfFitT(
        ctx, corpus, options, sopts, stats,
        wc_internal::InternedCounts(ctx, n, /*keep_runs=*/false));
  }
  return containers::DispatchDictBackend(ctx.dict_backend, [&](auto tag) {
    return StreamingTfidfFitT(
        ctx, corpus, options, sopts, stats,
        wc_internal::PerDocumentCounts<tag()>(ctx, n, /*keep_tables=*/false));
  });
}

StatusOr<KMeansResult> StreamingSparseKMeans(
    ExecContext& ctx, const StreamingTfidfModel& model,
    const io::PackedCorpusReader& corpus, const KMeansOptions& options,
    const StreamingOptions& sopts, io::PrefetchStats* stats) {
  if (options.k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(options.k));
  }
  const size_t n = model.num_docs;
  if (n == 0) {
    return Status::InvalidArgument("cannot cluster an empty matrix");
  }
  if (static_cast<size_t>(options.k) > n) {
    return Status::InvalidArgument(
        StrFormat("k=%d exceeds number of rows (%zu)", options.k, n));
  }
  if (options.init == KMeansInit::kPlusPlus) {
    return Status::InvalidArgument(
        "k-means++ seeding needs full-corpus distance passes; streaming "
        "k-means supports stratified seeding only");
  }
  if (corpus.size() != n) {
    return Status::InvalidArgument(
        StrFormat("corpus has %zu documents but the model was fitted on %zu",
                  corpus.size(), n));
  }

  const uint32_t dim = static_cast<uint32_t>(model.scorer.vocabulary_size());
  const int k = options.k;
  const bool skip_mode = ctx.fault_policy == FaultPolicy::kRetryThenSkip;

  KMeansResult result;
  Status stream_status;
  io::WindowPrefetcher windows(&corpus, sopts.window_bytes, sopts.prefetch);
  size_t windows_seen = 0;

  ctx.TimePhase("kmeans", [&] {
    using Scoring = parallel::WorkerLocal<ScoreScratch>;
    std::unique_ptr<Scoring> score_scratch;
    ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
      score_scratch = std::make_unique<Scoring>(*ctx.executor);
    });

    // Seeding reads the k stratified seed documents individually (k
    // ranged reads, charged normally) and densifies their re-scored rows
    // — the same rows the in-memory path densifies out of its matrix.
    std::vector<std::vector<float>> centroids;
    std::vector<double> centroid_sq(static_cast<size_t>(k), 0.0);
    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-init"}, [&] {
      centroids.assign(static_cast<size_t>(k),
                       std::vector<float>(dim, 0.0f));
      const std::vector<size_t> seeds = SeedRows(n, k, options.seed);
      ScoreScratch ss;
      for (int c = 0; c < k; ++c) {
        const size_t i = seeds[static_cast<size_t>(c)];
        ss.row.Clear();
        if (!model.doc_failed[i]) {
          auto body = corpus.ReadBody(i);
          if (body.ok()) {
            model.scorer.Score(*body, ctx.tokenizer, ctx.stem_tokens,
                               ss.scratch, ss.row);
          } else if (!skip_mode) {
            stream_status =
                body.status().WithContext("streaming k-means seeding");
            return;
          }
          // skip mode: a seed document lost to faults keeps an all-zero
          // centroid, matching the empty row it would occupy in the
          // materialized matrix.
        }
        containers::AddScaled(ss.row, 1.0f,
                              centroids[static_cast<size_t>(c)]);
        centroid_sq[static_cast<size_t>(c)] = ss.row.SquaredL2Norm();
      }
    });
    if (!stream_status.ok()) return;

    result.assignment.assign(n, 0xFFFFFFFFu);

    using Scratch = parallel::WorkerLocal<Accumulators>;
    std::unique_ptr<Scratch> scratch;
    ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
      scratch = std::make_unique<Scratch>(*ctx.executor);
      scratch->ForEach([&](Accumulators& a) { a.Init(k, dim); });
    });

    // Hamerly bound state persists across windows AND iterations — this is
    // what makes pruning survive windowing: a document's bounds loosen by
    // the same drifts whether its row lives in RAM or is re-scored.
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

    // The inertia chunk grid is GLOBAL — a pure function of (n, workers),
    // exactly the grid the in-memory assignment uses — while windows are an
    // I/O artifact. The assignment region itself runs over documents at the
    // executor's automatic grain, so every worker gets tasks however the
    // window boundaries fall; each document parks its distance in
    // `doc_dist`, and a serial in-order fold adds the window's distances
    // into `chunk_inertia[i / assign_grain]`. Every chunk thus sees the same
    // left-to-right FP addition sequence as the in-memory loop.
    const size_t assign_grain = ctx.executor->AutoGrain(n);
    const size_t assign_chunks = (n + assign_grain - 1) / assign_grain;
    std::vector<double> chunk_inertia;
    std::vector<double> doc_dist;  // grows to the largest window, then reused
    ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
      chunk_inertia.assign(assign_chunks, 0.0);
    });

    std::vector<Status> doc_errors(n);

    for (int iter = 0; iter < options.max_iterations; ++iter) {
      ++result.iterations;

      ctx.executor->ParallelFor(
          0, scratch->size(), 1, parallel::WorkHint{},
          [&](int, size_t b, size_t e) {
            for (size_t w = b; w < e; ++w) {
              scratch->Get(static_cast<int>(w)).Reset();
            }
          });
      ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
        std::fill(chunk_inertia.begin(), chunk_inertia.end(), 0.0);
      });

      const double assign_t0 = ctx.executor->Now();
      windows.Reset();
      for (size_t w = 0; w < windows.num_windows(); ++w) {
        if (sopts.fail_after_windows >= 0 &&
            windows_seen >= static_cast<size_t>(sopts.fail_after_windows)) {
          stream_status = Status::Internal(
              StrFormat("injected stream failure after %d window(s)",
                        sopts.fail_after_windows));
          return;
        }
        const io::WindowData& data = windows.Acquire(ctx.executor, w);
        ++windows_seen;

        parallel::WorkHint assign_hint;
        assign_hint.label = "kmeans-assign";
        assign_hint.bytes_touched =
            windows.window(w).bytes +
            static_cast<uint64_t>(k) * dim * sizeof(float);

        doc_dist.resize(data.end_doc - data.begin_doc);
        ctx.executor->ParallelFor(
            data.begin_doc, data.end_doc, 0, assign_hint,
            [&](int worker, size_t b, size_t e) {
              Accumulators& acc = scratch->Get(worker);
              ScoreScratch& ss = score_scratch->Get(worker);
              for (size_t i = b; i < e; ++i) {
                const size_t local = i - data.begin_doc;
                doc_dist[local] = 0.0;
                ss.row.Clear();
                if (model.doc_failed[i] == 0) {
                  if (data.statuses[local].ok()) {
                    model.scorer.Score(data.bodies[local], ctx.tokenizer,
                                       ctx.stem_tokens, ss.scratch, ss.row);
                  } else if (!skip_mode) {
                    doc_errors[i] = data.statuses[local];
                    ctx.executor->RequestStop();
                    continue;
                  }
                  // skip mode: a document lost to faults mid-stream
                  // clusters as an empty row, like a quarantined one.
                }
                const containers::SparseVector& row = ss.row;
                const double rsq = row.SquaredL2Norm();
                if (prune && iter > 0) {
                  const uint32_t a = result.assignment[i];
                  const double loosen_other =
                      static_cast<int>(a) == argmax_drift ? second_drift
                                                          : max_drift;
                  const double u = upper[i] + drift[a];
                  const double l = lower[i] - loosen_other;
                  if (u + kBoundSafety < l) {
                    double d = containers::SquaredDistance(
                        row, rsq, centroids[a], centroid_sq[a]);
                    upper[i] = std::sqrt(std::max(0.0, d));
                    lower[i] = l;
                    acc.kernels += 1;
                    acc.skipped += static_cast<uint64_t>(k - 1);
                    doc_dist[local] = d;
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
                    NearestCentroid(row, rsq, centroids, centroid_sq,
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
                doc_dist[local] = best_d;
                acc.counts[static_cast<size_t>(best)] += 1;
                auto& sum = acc.sums[static_cast<size_t>(best)];
                for (size_t t = 0; t < row.nnz(); ++t) {
                  sum[row.id_at(t)] += row.value_at(t);
                }
              }
            });
        for (size_t i = data.begin_doc; i < data.end_doc; ++i) {
          if (!doc_errors[i].ok()) {
            stream_status =
                doc_errors[i].WithContext("streaming k-means input");
            return;
          }
        }
        ctx.executor->RunSerial(
            parallel::WorkHint{0, "kmeans-inertia-fold"}, [&] {
              for (size_t i = data.begin_doc; i < data.end_doc; ++i) {
                chunk_inertia[i / assign_grain] +=
                    doc_dist[i - data.begin_doc];
              }
            });
      }
      if (ctx.phases != nullptr) {
        ctx.phases->AddCount(
            "kmeans", "assign_ns",
            static_cast<uint64_t>(
                std::max(0.0, ctx.executor->Now() - assign_t0) * 1e9 + 0.5));
      }

      // Merge + finalize are the in-memory code paths verbatim: one merge
      // per iteration over the same fixed k x dim_shards slicing, then the
      // serial finalize with the drift scan.
      if (ctx.serial_merge) {
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
        if (ctx.flat_parallelism) {
          parallel::ParallelTreeReduceFlat(*ctx.executor, *scratch, parts,
                                           merge_hint, combine);
        } else {
          parallel::ParallelTreeReduce(*ctx.executor, *scratch, parts,
                                       merge_hint, combine);
        }
      }

      uint64_t changed = 0;
      double inertia = 0.0;
      uint64_t iter_kernels = 0;
      uint64_t iter_skipped = 0;
      ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-finalize"}, [&] {
        Accumulators& total = scratch->Get(0);
        changed = total.changed;
        iter_kernels = total.kernels;
        iter_skipped = total.skipped;
        for (double v : chunk_inertia) inertia += v;
        for (int c = 0; c < k; ++c) {
          auto& centroid = centroids[static_cast<size_t>(c)];
          uint64_t count = total.counts[static_cast<size_t>(c)];
          if (count == 0) {
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
            drift[static_cast<size_t>(c)] =
                std::sqrt(drift_sq) * (1.0 + 1e-9) + kBoundSafety * 1e-3;
          }
        }
        if (prune) {
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

    if (ctx.phases != nullptr) {
      ctx.phases->AddCount("kmeans", "distance_kernels_evaluated",
                           result.distance_kernels_evaluated);
      ctx.phases->AddCount("kmeans", "distance_kernels_skipped",
                           result.distance_kernels_skipped);
    }

    result.centroids = std::move(centroids);
  });

  streaming_internal::AddPrefetchCounters(ctx.phases, "kmeans",
                                          windows.stats());
  AccumulateStats(stats, windows.stats());
  if (!stream_status.ok()) return stream_status;
  return result;
}

}  // namespace hpa::ops
