#ifndef HPA_OPS_STREAMING_H_
#define HPA_OPS_STREAMING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/corpus_window.h"
#include "io/packed_corpus.h"
#include "ops/exec_context.h"
#include "ops/kmeans.h"
#include "ops/tfidf.h"
#include "ops/tfidf_vectorizer.h"

/// \file
/// Semi-external TF/IDF → K-means: the corpus streams through bounded
/// windows (io/corpus_window.h) and the full SparseMatrix never exists.
///
/// Pass structure:
///  * StreamingTfidfFit — one windowed pass of the word-count loop
///    accumulating document frequencies in the ctx.dict_backend
///    representation (interned ids, or the per-document ShardedDict merge;
///    per-worker state persists across windows, df increments are
///    order-insensitive integers), then the standard sorted term-id
///    assignment. The result is a compact model: sorted vocabulary +
///    per-term df — O(vocabulary), not O(corpus).
///  * StreamingSparseKMeans — Lloyd iterations that re-score each window's
///    documents on the fly with the model's TfidfVectorizer, the same scorer
///    serving uses. Scoring is deterministic (same bytes → same floats), so
///    re-derived rows are bit-identical to the materialized matrix's rows,
///    and the assignment step reuses the in-memory kernel verbatim: Hamerly
///    bounds persist per document across windows and iterations, and
///    accumulator merges run once per iteration over the same fixed
///    slicing. Each window's assignment region runs over its documents at
///    the executor's automatic grain (all workers busy whatever the window
///    size); every document writes its distance into a window-sized
///    buffer, and a serial fold adds those distances, in document order,
///    into the global inertia chunk grid (chunk = i / AutoGrain(n), the
///    in-memory grid). Each chunk's sum therefore sees the in-memory
///    addition sequence, however windows cut it.
///
/// The bit-identity bar: assignments, centroids, and inertia_history match
/// ops::SparseKMeans over ops::TfidfInMemory exactly, at every worker
/// count and window size (exit-enforced in bench/ablation_outofcore).

namespace hpa::ops {

/// Knobs for the streaming operators.
struct StreamingOptions {
  /// Window payload budget in bytes; resident corpus bytes stay below
  /// 2x this (current window + one prefetched). 0 = one corpus-wide window.
  uint64_t window_bytes = 1 << 20;

  /// Issue window w+1's read while window w computes (the async lane).
  bool prefetch = true;

  /// Test hook: fail with kInternal after this many windows have been
  /// acquired (simulates a crash mid-stream, deterministically). -1 = off.
  int fail_after_windows = -1;
};

/// The fitted TF/IDF model a streaming pass leaves behind instead of a
/// matrix: everything pass 2 needs to re-score any document, plus the
/// provenance downstream operators need to re-open the corpus.
struct StreamingTfidfModel {
  /// The frozen scorer: sorted kept vocabulary (index = term id), df per
  /// term id, N, and the fit's scoring options.
  TfidfVectorizer scorer;

  /// Document names, index = corpus document index.
  std::vector<std::string> doc_names;

  /// 1 for documents quarantined during the fit pass (their rows are
  /// empty); pass 2 treats them as empty without re-reading.
  std::vector<uint8_t> doc_failed;

  /// Documents skipped under FaultPolicy::kRetryThenSkip.
  QuarantineList quarantine;

  uint64_t total_tokens = 0;

  /// Heap footprint of the global df table before it was dropped (the
  /// per-document tables never all live at once in streaming mode).
  uint64_t dict_bytes = 0;

  size_t num_docs = 0;

  /// Corpus file (relative to the corpus disk) the model was fitted on;
  /// downstream streaming consumers re-open it from here.
  std::string corpus_path;

  /// Window/prefetch configuration carried to downstream passes.
  uint64_t window_bytes = 0;
  bool prefetch = true;
};

/// Fits the TF/IDF model in one windowed pass over `corpus` without
/// materializing any matrix. Phases: "input+wc", "df-merge", "transform"
/// (term-id assignment), with prefetch counters on "input+wc".
/// Dispatches on ctx.dict_backend. `stats`, when non-null, receives the
/// accumulated window/prefetch statistics.
StatusOr<StreamingTfidfModel> StreamingTfidfFit(
    ExecContext& ctx, const io::PackedCorpusReader& corpus,
    const TfidfOptions& options = {}, const StreamingOptions& sopts = {},
    io::PrefetchStats* stats = nullptr);

/// Lloyd K-means over windowed re-scored rows; bit-identical to
/// SparseKMeans over the materialized matrix (see file comment).
/// Restrictions: KMeansInit::kPlusPlus is rejected (it needs full-corpus
/// distance passes before iteration 0), and validate_bounds is ignored.
/// Phases: "kmeans", with prefetch counters attached.
StatusOr<KMeansResult> StreamingSparseKMeans(
    ExecContext& ctx, const StreamingTfidfModel& model,
    const io::PackedCorpusReader& corpus, const KMeansOptions& options = {},
    const StreamingOptions& sopts = {}, io::PrefetchStats* stats = nullptr);

namespace streaming_internal {

/// Adds the window/prefetch counters to `phase` on `phases` (no-op when
/// null): windows_fetched / windows_prefetched / bytes_read_ahead /
/// stall_ns / overlap_permille / high_water_bytes.
void AddPrefetchCounters(PhaseTimer* phases, const std::string& phase,
                         const io::PrefetchStats& stats);

}  // namespace streaming_internal

}  // namespace hpa::ops

#endif  // HPA_OPS_STREAMING_H_
