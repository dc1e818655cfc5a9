#ifndef HPA_OPS_WORD_COUNT_H_
#define HPA_OPS_WORD_COUNT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "containers/dictionary.h"
#include "containers/term_table.h"
#include "io/corpus_window.h"
#include "io/packed_corpus.h"
#include "parallel/parallel_ops.h"
#include "ops/exec_context.h"
#include "text/document.h"
#include "text/stemmer.h"
#include "text/tokenizer.h"

/// \file
/// Phase 1 of TF/IDF — the paper's "input+wc" phase: read every document
/// (in parallel, §3.2), tokenize it, and count term frequencies per
/// document and document frequencies per term.
///
/// One counting loop (wc_internal::CountBodies) runs over a *body source*
/// — documents read from a packed corpus inside the loop, an in-memory
/// corpus, or one window of a streamed corpus — and owns the fault,
/// quarantine and cancellation handling. Two term representations plug
/// into it:
///
///   * Per-document dictionaries (RunWordCount<B>): every document keeps
///     its own word -> tf table of backend B, and a per-worker sharded
///     word -> df table. This is the structure the paper studies (§3.4);
///     the df partials merge as a parallel hash-partitioned merge (its own
///     "df-merge" phase), or serially with `ctx.serial_merge`.
///   * Interned ids (RunInternedWordCount, DictBackend::kInterned): each
///     worker interns a token to a worker-local id in its TermTable, keyed
///     by the hash the tokenizer computed while scanning the token; a
///     document's tf is an (id, count) run and df is an id-indexed
///     counter. The "df-merge" phase unions the workers' tables by their
///     stored hashes into the global sorted vocabulary and leaves a local
///     -> global remap table per worker, so the transform never hashes a
///     string again.
///
/// Both produce the same vocabulary, dfs and token totals.

namespace hpa::ops {

/// Per-term statistics in the global dictionary. `df` accumulates during
/// word count; `id` is assigned later by the TF/IDF transform (term ids are
/// the sorted-word order, so ARFF attributes are deterministic).
struct TermStat {
  uint32_t df = 0;
  uint32_t id = 0;
};

/// One term of one document: its id and its count in the document.
struct TermCount {
  uint32_t id = 0;
  uint32_t tf = 0;
};

/// Counts the term ids of one document into a recycled id-indexed slot
/// array plus the run of ids it touched. `pos[id]` is 0 for an id not yet
/// seen in the current document, else 1 + its index in `run`; `pos` must
/// cover every id passed to Add and is all zeros between documents.
struct TermCounter {
  std::vector<uint32_t> pos;
  std::vector<TermCount> run;  ///< the document's (id, tf), first-seen order

  void Add(uint32_t id) {
    uint32_t& slot = pos[id];
    if (slot == 0) {
      run.push_back(TermCount{id, 0});
      slot = static_cast<uint32_t>(run.size());
    }
    ++run[slot - 1].tf;
  }

  /// Zeroes the slots of the current run; `run` stays readable until the
  /// caller clears it for the next document.
  void EndDocument() {
    for (const TermCount& t : run) pos[t.id] = 0;
  }
};

/// Output of the word-count phase, parameterized by dictionary backend.
template <containers::DictBackend B>
struct WordCountResult {
  using TfDict = typename containers::DictFor<B, uint32_t>::type;

  /// Global table: hash-partitioned shards of backend B, so the df merge
  /// and every later vocabulary sweep can be parallelized shard-by-shard.
  using DfDict = containers::ShardedDictFor<B, TermStat>;

  /// One term-frequency table per document (kept as live dictionaries
  /// until the transform phase, as in the paper — this is what makes the
  /// backend choice a memory decision, §3.4).
  std::vector<TfDict> doc_tfs;

  /// Document names, same order as doc_tfs.
  std::vector<std::string> doc_names;

  /// Global word -> {document frequency, term id} table.
  DfDict doc_freq;

  /// Documents skipped under FaultPolicy::kRetryThenSkip (empty under
  /// kFailFast). A quarantined document keeps its slot in doc_tfs /
  /// doc_names with an empty term table, so ids and row numbering are
  /// unaffected.
  QuarantineList quarantine;

  uint64_t total_tokens = 0;

  /// Approximate heap footprint of all dictionaries (the paper's 420 MB vs
  /// 12.8 GB comparison).
  uint64_t ApproxDictBytes() const {
    uint64_t bytes = doc_freq.ApproxMemoryBytes();
    for (const TfDict& d : doc_tfs) bytes += d.ApproxMemoryBytes();
    return bytes;
  }

  size_t num_documents() const { return doc_tfs.size(); }
};

/// Where one document's (local id, tf) run lives in an InternedWordCount.
struct DocRun {
  uint32_t worker = 0;  ///< whose vocabulary the local ids belong to
  uint32_t size = 0;    ///< run length (0: empty or quarantined document)
  uint64_t offset = 0;  ///< first pair in that worker's run arena
};

/// Output of the interned word count (DictBackend::kInterned).
struct InternedWordCount {
  /// Every term seen, sorted; index = vocabulary id.
  std::vector<std::string> terms;

  /// Document frequency per vocabulary id.
  std::vector<uint32_t> dfs;

  /// Per worker: local id -> vocabulary id.
  std::vector<std::vector<uint32_t>> remap;

  /// Per worker: local id -> kept term id (or the pruned sentinel);
  /// written by the transform's term-id assignment (tfidf_internal).
  std::vector<std::vector<uint32_t>> term_ids;

  /// Per worker: the (local id, tf) runs of the documents it counted,
  /// back to back. Empty when the count did not keep runs (streaming).
  std::vector<std::vector<TermCount>> runs;

  /// Per document: which run is its own. Empty when the count did not
  /// keep runs.
  std::vector<DocRun> docs;

  /// Document names, index = document.
  std::vector<std::string> doc_names;

  /// Documents skipped under FaultPolicy::kRetryThenSkip; their runs are
  /// empty.
  QuarantineList quarantine;

  uint64_t total_tokens = 0;

  /// Documents counted, quarantined ones included.
  size_t num_docs = 0;

  /// Heap footprint of the worker vocabularies, df counters and runs,
  /// taken before the worker tables were dropped by the merge.
  uint64_t dict_bytes = 0;

  uint64_t ApproxDictBytes() const { return dict_bytes; }

  size_t num_documents() const { return num_docs; }
};

namespace wc_internal {

/// Retry attempts a document read spent before it failed for good: the
/// disk's budget when the error is retryable there, else one.
inline int AttemptsSpent(const io::SimDisk* disk, const Status& status) {
  if (disk == nullptr || !disk->retry_policy().IsRetryable(status)) return 1;
  const int max_attempts = disk->retry_policy().max_attempts;
  return max_attempts < 1 ? 1 : max_attempts;
}

// --- Body sources ----------------------------------------------------------
// Each source covers documents [begin(), end()) of one corpus numbering and
// provides Body(i, buf, body): on OK, `body` views document i (possibly
// through `buf`, which the loop recycles per chunk).

/// Documents read from storage inside the parallel loop (parallel input).
struct StoredBodies {
  const io::PackedCorpusReader& corpus;

  size_t begin() const { return 0; }
  size_t end() const { return corpus.size(); }
  uint64_t bytes() const { return corpus.total_body_bytes(); }
  const std::string& Name(size_t i) const { return corpus.name(i); }
  const io::SimDisk* disk() const { return corpus.disk(); }
  Status Body(size_t i, std::string& buf, std::string_view& body) const {
    HPA_RETURN_IF_ERROR(corpus.ReadBody(i, &buf));
    body = buf;
    return Status::OK();
  }
};

/// An already-loaded corpus: no reads, no failures.
struct MemoryBodies {
  const text::Corpus& corpus;

  size_t begin() const { return 0; }
  size_t end() const { return corpus.size(); }
  uint64_t bytes() const { return corpus.TotalBytes(); }
  const std::string& Name(size_t i) const { return corpus.docs[i].name; }
  const io::SimDisk* disk() const { return nullptr; }
  Status Body(size_t i, std::string&, std::string_view& body) const {
    body = corpus.docs[i].body;
    return Status::OK();
  }
};

/// One acquired window of a streamed corpus; read failures were recorded
/// per document by the window reader.
struct WindowBodies {
  const io::PackedCorpusReader& corpus;
  const io::WindowData& data;
  uint64_t window_bytes;

  size_t begin() const { return data.begin_doc; }
  size_t end() const { return data.end_doc; }
  uint64_t bytes() const { return window_bytes; }
  const std::string& Name(size_t i) const { return corpus.name(i); }
  const io::SimDisk* disk() const { return corpus.disk(); }
  Status Body(size_t i, std::string&, std::string_view& body) const {
    const size_t local = i - data.begin_doc;
    if (!data.statuses[local].ok()) return data.statuses[local];
    body = data.bodies[local];
    return Status::OK();
  }
};

/// Per-document outcomes of a counting pass, one slot per corpus document
/// (each document writes only its own slot), plus per-worker token and
/// quarantine tallies. Persists across the windows of a streamed pass.
struct DocOutcomes {
  DocOutcomes(const parallel::Executor& exec, size_t n)
      : names(n), failed(n, 0), errors(n), tokens(exec), quarantine(exec) {}

  std::vector<std::string> names;
  std::vector<uint8_t> failed;  ///< 1 = quarantined
  std::vector<Status> errors;   ///< fail-fast read errors
  parallel::WorkerLocal<uint64_t> tokens;
  parallel::WorkerLocal<QuarantineList> quarantine;

  /// The first recorded error among documents [begin, end), if any.
  Status FirstError(size_t begin, size_t end, const char* what) const {
    for (size_t i = begin; i < end; ++i) {
      if (!errors[i].ok()) return errors[i].WithContext(what);
    }
    return Status::OK();
  }

  /// Worker quarantine lists merged in slot order, sorted by id so the
  /// report order is independent of which worker owned each document.
  QuarantineList TakeQuarantine() {
    QuarantineList merged;
    for (size_t w = 0; w < quarantine.size(); ++w) {
      merged.MergeFrom(std::move(quarantine.Get(static_cast<int>(w))));
    }
    merged.SortById();
    return merged;
  }
};

/// The counting loop: one parallel loop over the source's documents.
/// `counts.Counter(worker)` yields a chunk-local counter with
/// BeginDocument(i), Count(token, hash) and EndDocument(i); `hash` is
/// text::TokenHash(token), also for a stemmed token. A read that stays
/// failed quarantines the document under kRetryThenSkip (its slot keeps
/// the corpus numbering with no terms) or records the error and cancels
/// the remaining chunks under kFailFast. Callers bracket the phase.
template <typename Source, typename Counts>
void CountBodies(ExecContext& ctx, const Source& src, Counts& counts,
                 DocOutcomes& out) {
  const bool skip_mode = ctx.fault_policy == FaultPolicy::kRetryThenSkip;
  const bool stem = ctx.stem_tokens;
  parallel::WorkHint hint;
  hint.bytes_touched = src.bytes();
  hint.label = "input+wc";
  ctx.executor->ParallelFor(
      src.begin(), src.end(), 0, hint,
      [&](int worker, size_t begin, size_t end) {
        auto counter = counts.Counter(worker);
        uint64_t tokens = 0;
        std::string buf;       // recycled read buffer
        std::string stem_buf;  // recycled across tokens/documents
        std::string_view body;
        for (size_t i = begin; i < end; ++i) {
          if (ctx.executor->stop_requested()) break;
          Status read = src.Body(i, buf, body);
          if (!read.ok()) {
            if (skip_mode) {
              const int attempts = AttemptsSpent(src.disk(), read);
              QuarantineList& q = out.quarantine.Get(worker);
              q.retries += static_cast<uint64_t>(attempts - 1);
              q.Add(src.Name(i), std::move(read), attempts);
              out.names[i] = src.Name(i);
              out.failed[i] = 1;
            } else {
              out.errors[i] = std::move(read);
              // Fail fast: no point paying for documents whose result
              // this run will discard.
              ctx.executor->RequestStop();
            }
            continue;
          }
          out.names[i] = src.Name(i);
          counter.BeginDocument(i);
          text::ForEachToken(
              body, ctx.tokenizer, [&](std::string_view token, uint64_t hash) {
                if (stem) {
                  // The scanner hashed the surface form.
                  stem_buf.assign(token);
                  token = text::PorterStem(stem_buf);
                  hash = text::TokenHash(token);
                }
                counter.Count(token, hash);
                ++tokens;
              });
          counter.EndDocument(i);
        }
        out.tokens.Get(worker) += tokens;
      });
}

// --- Per-document representation -----------------------------------------

/// Merges the per-worker sharded df tables and token counters into
/// `result` under its own "df-merge" phase: a parallel sharded merge by
/// default, or one serial region when `ctx.serial_merge` is set. Both
/// paths visit (shard-major, worker-slot order) — byte-identical output.
template <containers::DictBackend B>
void MergeDocFrequencies(
    ExecContext& ctx,
    parallel::WorkerLocal<typename WordCountResult<B>::DfDict>& worker_df,
    parallel::WorkerLocal<uint64_t>& worker_tokens,
    WordCountResult<B>& result) {
  auto merge_entry = [](auto& dst, const std::string& word,
                        const TermStat& stat) {
    dst.FindOrInsert(std::string_view(word)).df += stat.df;
  };
  ctx.TimePhase("df-merge", [&] {
    // Rough traffic estimate: every partial entry is read once and folded
    // into the global table (key bytes + node overhead, ~64 B/entry). A
    // precise ApproxMemoryBytes() walk would cost as much as the merge.
    uint64_t entries = 0;
    worker_df.ForEach([&](auto& df) { entries += df.size(); });
    parallel::WorkHint hint;
    hint.label = "df-merge";
    hint.bytes_touched = entries * 64;
    if (ctx.serial_merge) {
      // Ablation path: the paper-era serial fold, one RunSerial region so
      // the executor clock charges it against all workers.
      ctx.executor->RunSerial(hint, [&] {
        parallel::MergeShardRange(worker_df, result.doc_freq, 0,
                                  result.doc_freq.num_shards(), merge_entry);
      });
    } else {
      parallel::ParallelShardedMerge(*ctx.executor, worker_df,
                                     result.doc_freq, hint, merge_entry);
    }
    ctx.executor->RunSerial(parallel::WorkHint{0, "token-merge"}, [&] {
      worker_tokens.ForEach(
          [&](uint64_t& tokens) { result.total_tokens += tokens; });
    });
  });
}

/// Counting state of the per-document representation. With `keep_tables`
/// every document keeps its tf table (the paper's structure); without,
/// each chunk recycles one table and only the df partials survive (the
/// streaming fit).
template <containers::DictBackend B>
class PerDocumentCounts {
 public:
  using Result = WordCountResult<B>;
  using TfDict = typename Result::TfDict;
  using DfDict = typename Result::DfDict;

  PerDocumentCounts(ExecContext& ctx, size_t n, bool keep_tables)
      : presize_(ctx.per_doc_dict_presize),
        keep_tables_(keep_tables),
        worker_df_(*ctx.executor) {
    result_.doc_tfs.resize(n);
  }

  class DocCounter {
   public:
    DocCounter(PerDocumentCounts& counts, int worker)
        : counts_(counts), df_(counts.worker_df_.Get(worker)) {}

    void BeginDocument(size_t i) {
      if (counts_.keep_tables_) {
        tf_ = &counts_.result_.doc_tfs[i];
      } else {
        recycled_.Clear();
        tf_ = &recycled_;
      }
      if (counts_.presize_ > 0) tf_->Reserve(counts_.presize_);
    }
    void Count(std::string_view token, uint64_t) {
      tf_->FindOrInsert(token) += 1;
    }
    void EndDocument(size_t) {
      // One df tick per distinct word in this document.
      tf_->ForEach([&](const std::string& word, uint32_t) {
        df_.FindOrInsert(std::string_view(word)).df += 1;
      });
    }

   private:
    PerDocumentCounts& counts_;
    DfDict& df_;
    TfDict recycled_;
    TfDict* tf_ = nullptr;
  };

  DocCounter Counter(int worker) { return DocCounter(*this, worker); }

  /// Merges the df partials ("df-merge") and takes the names, tokens and
  /// quarantine from `out`.
  Result Finish(ExecContext& ctx, DocOutcomes& out) {
    MergeDocFrequencies<B>(ctx, worker_df_, out.tokens, result_);
    result_.doc_names = std::move(out.names);
    result_.quarantine = out.TakeQuarantine();
    return std::move(result_);
  }

 private:
  size_t presize_;
  bool keep_tables_;
  Result result_;
  parallel::WorkerLocal<DfDict> worker_df_;
};

// --- Interned representation ----------------------------------------------

/// One worker's interned vocabulary and the runs it counted. Cache-line
/// aligned: neighbouring workers' hot vector ends must not share a line.
struct alignas(64) InternedWorker {
  containers::TermTable vocab;   ///< token -> local id
  std::vector<uint32_t> df;      ///< by local id
  TermCounter doc;               ///< current document
  std::vector<TermCount> runs;   ///< kept runs
};

/// Merges the workers' vocabularies into `wc` in one serial region: a
/// union of the worker tables, keyed by their stored hashes, sums each
/// word's df over the workers that saw it (integers: order-insensitive),
/// one sort of the union gives the global sorted vocabulary (keyed on
/// each word's first 8 bytes, full compare on ties), and every worker
/// gets its local -> vocabulary-id remap table.
void MergeInternedVocabularies(ExecContext& ctx,
                               const std::vector<InternedWorker>& workers,
                               InternedWordCount& wc);

/// Counting state of the interned representation. With `keep_runs`
/// every document's (local id, tf) run is appended to its worker's arena;
/// without, only the df counters survive (the streaming fit).
class InternedCounts {
 public:
  using Result = InternedWordCount;

  InternedCounts(ExecContext& ctx, size_t n, bool keep_runs)
      : keep_runs_(keep_runs),
        workers_(static_cast<size_t>(ctx.executor->num_workers())) {
    if (keep_runs_) docs_.resize(n);
  }

  class DocCounter {
   public:
    DocCounter(InternedCounts& counts, int worker)
        : counts_(counts),
          worker_(static_cast<uint32_t>(worker)),
          w_(counts.workers_[static_cast<size_t>(worker)]) {}

    void BeginDocument(size_t) { w_.doc.run.clear(); }
    void Count(std::string_view token, uint64_t hash) {
      const uint32_t id = w_.vocab.Intern(token, hash);
      if (id == w_.df.size()) {  // new to this worker
        w_.df.push_back(0);
        w_.doc.pos.push_back(0);
      }
      w_.doc.Add(id);
    }
    void EndDocument(size_t i) {
      w_.doc.EndDocument();
      for (const TermCount& t : w_.doc.run) ++w_.df[t.id];
      if (counts_.keep_runs_) {
        counts_.docs_[i] = DocRun{worker_,
                                  static_cast<uint32_t>(w_.doc.run.size()),
                                  w_.runs.size()};
        w_.runs.insert(w_.runs.end(), w_.doc.run.begin(), w_.doc.run.end());
      }
    }

   private:
    InternedCounts& counts_;
    uint32_t worker_;
    InternedWorker& w_;
  };

  DocCounter Counter(int worker) { return DocCounter(*this, worker); }

  /// Merges the vocabularies ("df-merge") and takes the names, tokens and
  /// quarantine from `out`. Drops the worker tables.
  Result Finish(ExecContext& ctx, DocOutcomes& out) {
    Result result;
    result.docs = std::move(docs_);
    for (const InternedWorker& w : workers_) {
      result.dict_bytes += w.vocab.ApproxMemoryBytes() +
                           (w.df.capacity() + w.doc.pos.capacity()) *
                               sizeof(uint32_t) +
                           w.runs.capacity() * sizeof(TermCount);
    }
    result.dict_bytes += result.docs.capacity() * sizeof(DocRun);
    ctx.TimePhase("df-merge", [&] {
      MergeInternedVocabularies(ctx, workers_, result);
      ctx.executor->RunSerial(parallel::WorkHint{0, "token-merge"}, [&] {
        out.tokens.ForEach(
            [&](uint64_t& tokens) { result.total_tokens += tokens; });
      });
    });
    result.runs.reserve(workers_.size());
    for (InternedWorker& w : workers_) result.runs.push_back(std::move(w.runs));
    workers_.clear();
    result.num_docs = out.names.size();
    result.doc_names = std::move(out.names);
    result.quarantine = out.TakeQuarantine();
    return result;
  }

 private:
  bool keep_runs_;
  std::vector<InternedWorker> workers_;
  std::vector<DocRun> docs_;
};

/// Counts a whole body source: the "input+wc" phase, the fail-fast check
/// (before paying for the merge), then the representation's merge.
template <typename Counts, typename Source>
StatusOr<typename Counts::Result> CountCorpus(ExecContext& ctx,
                                              const Source& src,
                                              Counts counts) {
  DocOutcomes out(*ctx.executor, src.end());
  ctx.TimePhase("input+wc", [&] { CountBodies(ctx, src, counts, out); });
  HPA_RETURN_IF_ERROR(out.FirstError(src.begin(), src.end(), "word count"));
  return counts.Finish(ctx, out);
}

}  // namespace wc_internal

/// Runs word count over a packed corpus on storage. Document reads are
/// issued from inside the parallel loop (parallel input). Accrues the
/// "input+wc" and "df-merge" phases on ctx.phases.
template <containers::DictBackend B>
StatusOr<WordCountResult<B>> RunWordCount(
    ExecContext& ctx, const io::PackedCorpusReader& corpus) {
  return wc_internal::CountCorpus(
      ctx, wc_internal::StoredBodies{corpus},
      wc_internal::PerDocumentCounts<B>(ctx, corpus.size(), true));
}

/// In-memory overload: word count over an already-loaded corpus (no
/// storage reads; used by fused pipelines that already hold the text).
template <containers::DictBackend B>
WordCountResult<B> RunWordCountInMemory(ExecContext& ctx,
                                        const text::Corpus& corpus) {
  return std::move(wc_internal::CountCorpus(
                       ctx, wc_internal::MemoryBodies{corpus},
                       wc_internal::PerDocumentCounts<B>(ctx, corpus.size(),
                                                         true))
                       .value());
}

/// Interned word count over a packed corpus (DictBackend::kInterned).
/// Phases: "input+wc", "df-merge".
StatusOr<InternedWordCount> RunInternedWordCount(
    ExecContext& ctx, const io::PackedCorpusReader& corpus);

/// Interned word count over an already-loaded corpus.
InternedWordCount RunInternedWordCountInMemory(ExecContext& ctx,
                                               const text::Corpus& corpus);

}  // namespace hpa::ops

#endif  // HPA_OPS_WORD_COUNT_H_
