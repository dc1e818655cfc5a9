#include "ops/streaming.h"

#include <algorithm>
#include <memory>
#include <utility>

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
  if (stats != nullptr) stats->Add(windows.stats());
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

/// The streamed row source: each window's documents re-scored with the
/// model's scorer into per-worker scratch rows, so the K-means engine sees
/// exactly the rows the materialized matrix would hold.
class WindowRows {
 public:
  static constexpr bool kWindowed = true;

  WindowRows(ExecContext& ctx, const StreamingTfidfModel& model,
             const io::PackedCorpusReader& corpus,
             const StreamingOptions& sopts)
      : ctx_(ctx),
        model_(model),
        corpus_(corpus),
        fail_after_windows_(sopts.fail_after_windows),
        skip_mode_(ctx.fault_policy == FaultPolicy::kRetryThenSkip),
        windows_(&corpus, sopts.window_bytes, sopts.prefetch),
        doc_errors_(model.num_docs) {
    ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
      scratch_ =
          std::make_unique<parallel::WorkerLocal<ScoreScratch>>(*ctx.executor);
    });
  }

  size_t size() const { return model_.num_docs; }
  uint32_t dim() const {
    return static_cast<uint32_t>(model_.scorer.vocabulary_size());
  }
  const io::PrefetchStats& stats() const { return windows_.stats(); }

  /// Seeding reads the k stratified seed documents individually (k ranged
  /// reads, charged normally) and re-scores them.
  StatusOr<const containers::SparseVector*> SeedRow(size_t i) {
    seed_.row.Clear();
    if (!model_.doc_failed[i]) {
      auto body = corpus_.ReadBody(i);
      if (body.ok()) {
        Score(*body, seed_);
      } else if (!skip_mode_) {
        return body.status().WithContext("streaming k-means seeding");
      }
      // skip mode: a seed document lost to faults keeps an all-zero
      // centroid, matching the empty row it would occupy in the
      // materialized matrix.
    }
    return &seed_.row;
  }

  /// One pass: acquires every window in order (the prefetcher overlaps the
  /// next read with this window's compute) and hands it to `fn`. Windows
  /// count cumulatively across passes for the fail_after_windows hook.
  template <typename Fn>
  Status ForEachWindow(Fn&& fn) {
    windows_.Reset();
    for (size_t w = 0; w < windows_.num_windows(); ++w) {
      if (fail_after_windows_ >= 0 &&
          windows_seen_ >= static_cast<size_t>(fail_after_windows_)) {
        return Status::Internal(
            StrFormat("injected stream failure after %d window(s)",
                      fail_after_windows_));
      }
      data_ = &windows_.Acquire(ctx_.executor, w);
      ++windows_seen_;
      HPA_RETURN_IF_ERROR(
          fn(data_->begin_doc, data_->end_doc, windows_.window(w).bytes));
    }
    return Status::OK();
  }

  /// Document i's re-scored row in worker scratch; null (and the region
  /// asked to stop) when its read failed outside skip mode.
  const containers::SparseVector* Row(int worker, size_t i, double* row_sq) {
    ScoreScratch& ss = scratch_->Get(worker);
    const size_t local = i - data_->begin_doc;
    ss.row.Clear();
    if (model_.doc_failed[i] == 0) {
      if (data_->statuses[local].ok()) {
        Score(data_->bodies[local], ss);
      } else if (!skip_mode_) {
        doc_errors_[i] = data_->statuses[local];
        ctx_.executor->RequestStop();
        return nullptr;
      }
      // skip mode: a document lost to faults mid-stream clusters as an
      // empty row, like a quarantined one.
    }
    *row_sq = ss.row.SquaredL2Norm();
    return &ss.row;
  }

  /// The first read error among documents [begin, end), in document order.
  Status FirstError(size_t begin, size_t end) const {
    for (size_t i = begin; i < end; ++i) {
      if (!doc_errors_[i].ok()) {
        return doc_errors_[i].WithContext("streaming k-means input");
      }
    }
    return Status::OK();
  }

 private:
  void Score(std::string_view body, ScoreScratch& ss) const {
    model_.scorer.Score(body, ctx_.tokenizer, ctx_.stem_tokens, ss.scratch,
                        ss.row);
  }

  ExecContext& ctx_;
  const StreamingTfidfModel& model_;
  const io::PackedCorpusReader& corpus_;
  const int fail_after_windows_;
  const bool skip_mode_;
  io::WindowPrefetcher windows_;
  std::unique_ptr<parallel::WorkerLocal<ScoreScratch>> scratch_;
  ScoreScratch seed_;
  const io::WindowData* data_ = nullptr;
  size_t windows_seen_ = 0;
  std::vector<Status> doc_errors_;
};

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
  const size_t n = model.num_docs;
  HPA_RETURN_IF_ERROR(kmeans_internal::CheckArgs(options, n));
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

  KMeansResult result;
  Status status;
  io::PrefetchStats window_stats;
  ctx.TimePhase("kmeans", [&] {
    WindowRows rows(ctx, model, corpus, sopts);
    status = kmeans_internal::LloydHamerly(ctx, rows, options, &result);
    window_stats = rows.stats();
  });
  streaming_internal::AddPrefetchCounters(ctx.phases, "kmeans", window_stats);
  if (stats != nullptr) stats->Add(window_stats);
  if (!status.ok()) return status;
  return result;
}

}  // namespace hpa::ops
