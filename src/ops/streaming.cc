#include "ops/streaming.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "common/checksum.h"
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
  phases->AddCount(phase, "spill_bytes_written", stats.spill_bytes_written);
  phases->AddCount(phase, "spill_bytes_read", stats.spill_bytes_read);
  phases->AddCount(phase, "spill_rescored_windows",
                   stats.spill_rescored_windows);
}

namespace {

// Header layout: magic u32 @0, docs u32 @4, begin_doc u64 @8, total nnz
// u64 @16, CRC block count u32 @24; then one CRC-32 per kCrcBlockBytes
// block of the records, which follow that table.
constexpr uint32_t kRowSegmentMagic = 0x52535048;  // "HPSR"
constexpr size_t kRowSegmentHeaderBytes = 28;
constexpr size_t kCrcBlockBytes = 64 << 10;

template <typename T>
T Load(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
char* Store(char* p, T v) {
  std::memcpy(p, &v, sizeof(T));
  return p + sizeof(T);
}

/// CRC blocks covering `records` bytes of row records.
uint64_t CrcBlocks(uint64_t records) {
  return (records + kCrcBlockBytes - 1) / kCrcBlockBytes;
}

/// CRC-32 of records block `b` of a segment whose records start at `at`.
uint32_t BlockCrc(std::string_view segment, size_t at, uint64_t b) {
  return Crc32(segment.substr(at + b * kCrcBlockBytes, kCrcBlockBytes));
}

}  // namespace

void EncodeRowSegment(parallel::Executor& executor, size_t begin_doc,
                      const containers::SparseVector* rows, size_t docs,
                      std::string* out) {
  // Record offsets first, so documents can be copied in parallel.
  std::vector<size_t> offsets(docs + 1);
  uint64_t total_nnz = 0;
  for (size_t d = 0; d < docs; ++d) {
    offsets[d + 1] = offsets[d] + sizeof(uint32_t) + rows[d].nnz() * 8;
    total_nnz += rows[d].nnz();
  }
  const uint64_t blocks = CrcBlocks(offsets[docs]);
  const size_t at = kRowSegmentHeaderBytes + blocks * sizeof(uint32_t);
  ResizeBuffer(*out, at + offsets[docs]);
  char* base = out->data();
  char* p = Store(base, kRowSegmentMagic);
  p = Store(p, static_cast<uint32_t>(docs));
  p = Store(p, static_cast<uint64_t>(begin_doc));
  p = Store(p, total_nnz);
  Store(p, static_cast<uint32_t>(blocks));

  executor.ParallelFor(
      0, docs, 0, parallel::WorkHint{offsets[docs], "kmeans-spill-encode"},
      [&](int, size_t b, size_t e) {
        for (size_t d = b; d < e; ++d) {
          const containers::SparseVector& row = rows[d];
          const size_t nnz = row.nnz();
          char* r = Store(base + at + offsets[d], static_cast<uint32_t>(nnz));
          if (nnz == 0) continue;
          std::memcpy(r, row.ids().data(), nnz * sizeof(uint32_t));
          std::memcpy(r + nnz * sizeof(uint32_t), row.values().data(),
                      nnz * sizeof(float));
        }
      });
  const std::string_view segment(*out);
  executor.ParallelFor(
      0, blocks, 1, parallel::WorkHint{offsets[docs], "kmeans-spill-crc"},
      [&](int, size_t b, size_t e) {
        for (size_t blk = b; blk < e; ++blk) {
          Store(base + kRowSegmentHeaderBytes + blk * sizeof(uint32_t),
                BlockCrc(segment, at, blk));
        }
      });
}

Status DecodeRowSegment(parallel::Executor& executor,
                        std::string_view segment, size_t begin_doc,
                        size_t docs, uint32_t dim,
                        std::vector<size_t>* offsets) {
  const size_t size = segment.size();
  const char* base = segment.data();
  if (size < kRowSegmentHeaderBytes) {
    return Status::Corruption(
        StrFormat("row segment of %zu bytes is shorter than its header",
                  size));
  }
  if (Load<uint32_t>(base) != kRowSegmentMagic ||
      Load<uint32_t>(base + 4) != docs ||
      Load<uint64_t>(base + 8) != begin_doc) {
    return Status::Corruption(StrFormat(
        "row segment header does not name documents [%zu, %zu)", begin_doc,
        begin_doc + docs));
  }
  // The length must be exactly the header's nnz sum plus one nnz field per
  // document and one CRC per block (total_nnz is bounded first so the
  // arithmetic cannot overflow).
  const uint64_t total_nnz = Load<uint64_t>(base + 16);
  const uint64_t blocks = Load<uint32_t>(base + 24);
  const uint64_t fixed = kRowSegmentHeaderBytes + docs * sizeof(uint32_t);
  const uint64_t records = docs * sizeof(uint32_t) + total_nnz * 8;
  if (size < fixed || total_nnz > (size - fixed) / 8 ||
      blocks != CrcBlocks(records) ||
      size != kRowSegmentHeaderBytes + blocks * sizeof(uint32_t) + records) {
    return Status::Corruption(StrFormat(
        "row segment of %zu bytes does not match its %llu nonzeros", size,
        static_cast<unsigned long long>(total_nnz)));
  }
  // Record offsets: a walk over the nnz fields, bounds-checked.
  const size_t at = kRowSegmentHeaderBytes + blocks * sizeof(uint32_t);
  offsets->resize(docs);
  size_t pos = at;
  for (size_t d = 0; d < docs; ++d) {
    if (size - pos < sizeof(uint32_t)) {
      return Status::Corruption("row segment ends inside its records");
    }
    (*offsets)[d] = pos;
    const uint64_t nnz = Load<uint32_t>(base + pos);
    pos += sizeof(uint32_t);
    if (nnz > (size - pos) / 8) {
      return Status::Corruption(StrFormat("row %zu overruns its segment", d));
    }
    pos += nnz * 8;
  }
  if (pos != size) {
    return Status::Corruption("row nonzeros do not sum to the header's");
  }
  // Per block, in parallel: its CRC, and the ids of the rows starting in
  // it strictly increase below `dim`.
  std::vector<uint8_t> bad(blocks, 0);
  executor.ParallelFor(
      0, blocks, 1, parallel::WorkHint{size, "kmeans-spill-check"},
      [&](int, size_t b, size_t e) {
        for (size_t blk = b; blk < e; ++blk) {
          const uint32_t want = Load<uint32_t>(
              base + kRowSegmentHeaderBytes + blk * sizeof(uint32_t));
          if (BlockCrc(segment, at, blk) != want) {
            bad[blk] = 1;
            continue;
          }
          const size_t lo = at + blk * kCrcBlockBytes;
          auto d = std::lower_bound(offsets->begin(), offsets->end(), lo);
          for (; d != offsets->end() && *d < lo + kCrcBlockBytes; ++d) {
            const char* ids = base + *d + sizeof(uint32_t);
            const uint32_t nnz = Load<uint32_t>(base + *d);
            uint32_t prev = 0;
            for (uint32_t t = 0; t < nnz; ++t) {
              const uint32_t id = Load<uint32_t>(ids + 4 * t);
              if (id >= dim || (t > 0 && id <= prev)) bad[blk] = 1;
              prev = id;
            }
          }
        }
      });
  for (uint64_t blk = 0; blk < blocks; ++blk) {
    if (bad[blk] != 0) {
      return Status::Corruption(StrFormat(
          "row segment block %llu fails its CRC or holds term ids not "
          "strictly increasing below %u",
          static_cast<unsigned long long>(blk), dim));
    }
  }
  return Status::OK();
}

void ReadSegmentRow(std::string_view segment, size_t offset,
                    containers::SparseVector* row) {
  const char* p = segment.data() + offset;
  const uint32_t nnz = Load<uint32_t>(p);
  p += sizeof(uint32_t);
  row->AssignRaw(p, p + nnz * sizeof(uint32_t), nnz);
}

}  // namespace streaming_internal

namespace {

/// Per-worker recycled scoring state for K-means row scoring.
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
  // vocabulary, frozen into the scorer K-means derives rows with.
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

/// Spill file for the rows of a K-means run over `model`'s corpus, on the
/// scratch disk: one per corpus, so one streamed K-means per corpus may run
/// against a scratch disk at a time.
std::string SpillPath(const StreamingTfidfModel& model) {
  std::string name = model.corpus_path;
  std::replace(name.begin(), name.end(), '/', '_');
  return name + ".kmeans-rows.spill";
}

/// The streamed row source. Pass 0 scores each window's documents with the
/// model's scorer; with a scratch disk it also keeps them in a window row
/// buffer and spills them as the window's segment after its region. Later
/// passes copy rows out of the segments. A window without a usable segment (or
/// every window, without a scratch disk) is scored again into per-worker
/// scratch rows, so the K-means engine always sees exactly the rows the
/// materialized matrix would hold.
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
    // A spill that cannot be created is no error: every pass re-scores.
    filling_ = ctx.scratch_disk != nullptr &&
               windows_.AttachSpill(ctx.scratch_disk, SpillPath(model)).ok();
  }

  size_t size() const { return model_.num_docs; }
  uint32_t dim() const {
    return static_cast<uint32_t>(model_.scorer.vocabulary_size());
  }
  const io::PrefetchStats& stats() const { return windows_.stats(); }

  /// Seeding reads the k stratified seed documents individually (k ranged
  /// reads, charged normally) and scores them.
  StatusOr<const containers::SparseVector*> SeedRow(size_t i) {
    seed_.row.Clear();
    if (!model_.doc_failed[i]) {
      auto body = corpus_.ReadBody(i);
      if (body.ok()) {
        Score(*body, seed_.scratch, seed_.row);
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
  /// next read with this window's compute) and hands it to `fn`; pass 0
  /// then spills the window's rows. Windows count cumulatively across
  /// passes for the fail_after_windows hook.
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
      const size_t docs = data_->end_doc - data_->begin_doc;
      if (data_->spilled &&
          !streaming_internal::DecodeRowSegment(*ctx_.executor, data_->bulk,
                                                data_->begin_doc, docs, dim(),
                                                &row_offsets_)
               .ok()) {
        data_ = &windows_.AcquireCorpus(ctx_.executor, w);
      }
      if (filling_ && pending_.size() < docs) pending_.resize(docs);
      HPA_RETURN_IF_ERROR(fn(data_->begin_doc, data_->end_doc,
                             data_->spilled ? data_->bulk.size()
                                            : windows_.window(w).bytes));
      if (filling_) Spill(w, docs);
    }
    if (filling_) {
      filling_ = false;
      pending_ = {};
      segment_ = {};
    }
    return Status::OK();
  }

  /// Document i's row in worker scratch: copied from the window's segment,
  /// or scored (and, in pass 0, kept for the spill); null (and the region
  /// asked to stop) when its read failed outside skip mode.
  const containers::SparseVector* Row(int worker, size_t i, double* row_sq) {
    ScoreScratch& ss = scratch_->Get(worker);
    const size_t local = i - data_->begin_doc;
    if (data_->spilled) {
      streaming_internal::ReadSegmentRow(data_->bulk, row_offsets_[local],
                                         &ss.row);
      *row_sq = ss.row.SquaredL2Norm();
      return &ss.row;
    }
    ss.row.Clear();
    if (model_.doc_failed[i] == 0) {
      if (data_->statuses[local].ok()) {
        Score(data_->bodies[local], ss.scratch, ss.row);
      } else if (!skip_mode_) {
        doc_errors_[i] = data_->statuses[local];
        ctx_.executor->RequestStop();
        return nullptr;
      }
      // skip mode: a document lost to faults mid-stream clusters as an
      // empty row, like a quarantined one.
    }
    // Kept at its exact size: scoring grows rows geometrically.
    if (filling_) {
      pending_[local].AssignRaw(ss.row.ids().data(), ss.row.values().data(),
                                ss.row.nnz());
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
  void Score(std::string_view body, TfidfVectorizer::Scratch& scratch,
             containers::SparseVector& row) const {
    model_.scorer.Score(body, ctx_.tokenizer, ctx_.stem_tokens, scratch, row);
  }

  /// Encodes the window's pass-0 rows and appends them to the spill.
  void Spill(size_t w, size_t docs) {
    streaming_internal::EncodeRowSegment(*ctx_.executor, data_->begin_doc,
                                         pending_.data(), docs, &segment_);
    windows_.AppendSpill(ctx_.executor, w, segment_);
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
  bool filling_ = false;  ///< pass 0 with a spill: keep rows, spill them
  std::vector<containers::SparseVector> pending_;  ///< pass-0 window rows
  std::string segment_;                            ///< pass-0 encode buffer
  std::vector<size_t> row_offsets_;  ///< record offsets in a decoded segment
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
