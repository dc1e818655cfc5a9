#ifndef HPA_OPS_STREAMING_H_
#define HPA_OPS_STREAMING_H_

#include <cstdint>
#include <string>
#include <string_view>
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
///  * StreamingSparseKMeans — the K-means engine of ops/kmeans.h
///    (kmeans_internal::LloydHamerly) run over a windowed row source. Pass
///    0 (the first assignment pass) scores each window's documents with the
///    model's TfidfVectorizer, the same scorer serving uses, and — when
///    ctx.scratch_disk is set — appends the window's rows to one transient
///    spill file there as a CRC-32-framed segment (EncodeRowSegment). Every
///    later pass, and its validate_bounds audit, reads segment w back
///    through the same window lane and bulk-copies the decoded rows into
///    worker scratch: no corpus bytes, no tokenizer. A window whose segment
///    is missing or fails validation is re-scored from its corpus window,
///    and without a scratch disk every pass re-scores — the spill is a
///    cache of rows that can always be re-derived. Scoring is deterministic
///    (same bytes → same floats) and the spill stores the scored floats, so
///    either way the rows are bit-identical to the materialized matrix's,
///    and everything else — seeding, Hamerly bounds (persistent per
///    document across windows and iterations), accumulators, the
///    once-per-iteration merge, the finalize — is the in-memory engine
///    itself. What the windowed source changes is the region structure:
///    each window's assignment region runs over its documents at the
///    executor's automatic grain, and a serial fold adds the window's
///    per-document distances, in document order, into the global inertia
///    chunk grid (chunk = i / AutoGrain(n), the in-memory grid), so each
///    chunk's sum sees the in-memory addition sequence however windows cut
///    it. Resident state stays window-bounded: pass 0 holds one window of
///    rows plus its encoded segment, later passes at most two segments.
///
/// The bit-identity bar: assignments, centroids, inertia_history and the
/// pruning telemetry match ops::SparseKMeans over ops::TfidfInMemory
/// exactly, at every worker count and window size (tests/outofcore_test;
/// the clustering itself is also exit-enforced in
/// bench/ablation_outofcore).

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
/// matrix: everything K-means needs to score any document, plus the
/// provenance downstream operators need to re-open the corpus.
struct StreamingTfidfModel {
  /// The frozen scorer: sorted kept vocabulary (index = term id), df per
  /// term id, N, and the fit's scoring options.
  TfidfVectorizer scorer;

  /// Document names, index = corpus document index.
  std::vector<std::string> doc_names;

  /// 1 for documents quarantined during the fit pass (their rows are
  /// empty); K-means treats them as empty without re-reading.
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

/// Lloyd K-means over windowed rows, scored once and spilled to
/// ctx.scratch_disk when there is one (see file comment); bit-identical to
/// SparseKMeans over the materialized matrix (see file comment), under
/// every merge schedule and ablation setting. KMeansInit::kPlusPlus is
/// rejected (it needs full-corpus distance passes before iteration 0).
/// Phases: "kmeans", with prefetch counters attached.
StatusOr<KMeansResult> StreamingSparseKMeans(
    ExecContext& ctx, const StreamingTfidfModel& model,
    const io::PackedCorpusReader& corpus, const KMeansOptions& options = {},
    const StreamingOptions& sopts = {}, io::PrefetchStats* stats = nullptr);

namespace streaming_internal {

/// Adds the window/prefetch counters to `phase` on `phases` (no-op when
/// null): windows_fetched / windows_prefetched / bytes_read_ahead /
/// stall_ns / overlap_permille / high_water_bytes / spill_bytes_written /
/// spill_bytes_read / spill_rescored_windows.
void AddPrefetchCounters(PhaseTimer* phases, const std::string& phase,
                         const io::PrefetchStats& stats);

/// Serializes the rows of documents [begin_doc, begin_doc + docs) into
/// `out` as one spill segment: a header (magic, docs, begin_doc, total
/// nnz, CRC block count), a CRC-32 per 64 KiB block of the records, then
/// the records — per document nnz, the ids and the float values,
/// native-endian. The spill lives only as long as the run that wrote it,
/// on the host that wrote it. Copies rows and computes CRCs in parallel
/// regions on `executor`.
void EncodeRowSegment(parallel::Executor& executor, size_t begin_doc,
                      const containers::SparseVector* rows, size_t docs,
                      std::string* out);

/// Validates `segment` as the row segment of documents [begin_doc,
/// begin_doc + docs) over a vocabulary of `dim` terms and sets
/// (*offsets)[d] to the byte offset of document d's record. Checks the
/// header, that the length matches the header's nnz sum, every block
/// CRC, and that every row's ids strictly increase and stay below `dim`
/// (the last two in a parallel region on `executor`); any failure is
/// kCorruption, never a crash.
Status DecodeRowSegment(parallel::Executor& executor,
                        std::string_view segment, size_t begin_doc,
                        size_t docs, uint32_t dim,
                        std::vector<size_t>* offsets);

/// Copies the row whose record starts at `offset` of a segment
/// DecodeRowSegment accepted into `row`.
void ReadSegmentRow(std::string_view segment, size_t offset,
                    containers::SparseVector* row);

}  // namespace streaming_internal

}  // namespace hpa::ops

#endif  // HPA_OPS_STREAMING_H_
