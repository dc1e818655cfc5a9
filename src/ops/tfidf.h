#ifndef HPA_OPS_TFIDF_H_
#define HPA_OPS_TFIDF_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "containers/sparse_matrix.h"
#include "io/arff.h"
#include "io/packed_corpus.h"
#include "io/sharded_arff.h"
#include "ops/exec_context.h"
#include "ops/word_count.h"

/// \file
/// The TF/IDF operator (§3.2): phase 1 is the parallel word count
/// (word_count.h); phase 2 scores every document with
///     tfidf(w, d) = tf(w, d) * ln(N / df(w))
/// and L2-normalizes the per-document vectors, sorted by term id. Every
/// row, from either word-count representation and in every form below,
/// is built by the one weight formula, tfidf_internal::BuildTfidfRow.
///
/// Two forms, mirroring the paper's Figure 3:
///  * `TfidfToArff`   — the *discrete* operator: phase 2 is a single serial
///    pass that computes scores and writes them straight to a sparse ARFF
///    file ("the ARFF format does not facilitate parallel output").
///    Phases: input+wc, df-merge, tfidf-output.
///  * `TfidfInMemory` — the *fused* form: phase 2 is a parallel in-memory
///    transform producing a SparseMatrix. Phases: input+wc, df-merge,
///    transform.

namespace hpa::ops {

/// TF/IDF scoring options. Defaults reproduce the paper's plain
/// tf * ln(N/df) with L2 normalization and no vocabulary pruning.
struct TfidfOptions {
  /// Drop terms occurring in fewer than `min_df` documents (noise cut).
  uint32_t min_df = 1;

  /// Drop terms occurring in more than `max_df_ratio * N` documents
  /// (stop-word cut; 1.0 keeps everything).
  double max_df_ratio = 1.0;

  /// Use 1 + ln(tf) instead of raw tf (dampens very frequent terms).
  bool sublinear_tf = false;

  /// L2-normalize each document's score vector (the paper clusters
  /// "normalized TF/IDF scores").
  bool normalize = true;
};

/// In-memory TF/IDF output.
struct TfidfResult {
  /// One normalized score row per document; columns are term ids.
  containers::SparseMatrix matrix;

  /// Term strings, index = term id (lexicographically sorted).
  std::vector<std::string> terms;

  /// Document frequency per term id (parallel to `terms`); together with
  /// num_documents() this is the fitted model new documents can be scored
  /// against (ops/tfidf_vectorizer.h).
  std::vector<uint32_t> term_dfs;

  /// Document names, index = row.
  std::vector<std::string> doc_names;

  /// Documents skipped during word count under FaultPolicy::kRetryThenSkip
  /// (their rows are present but empty). Empty under kFailFast.
  QuarantineList quarantine;

  size_t num_documents() const { return matrix.num_rows(); }

  /// Dictionary heap footprint observed before the tables were dropped.
  uint64_t dict_bytes = 0;

  uint64_t total_tokens = 0;
};

namespace tfidf_internal {

/// Sentinel id for terms pruned by min_df/max_df_ratio.
inline constexpr uint32_t kPrunedTermId = 0xFFFFFFFFu;

/// Recursive pairwise merge of per-shard *sorted* kept-term lists into
/// `lists[lo]`, as a nested fork/join spawn tree: the two halves merge as
/// sibling tasks, then their roots merge pairwise. Hash shards hold
/// disjoint keys, so the result is exactly the sorted global vocabulary the
/// serial concat+sort produces. Replaces the O(V log V) serial sort on the
/// term-id critical path with O(V) merges of depth log(shards).
inline void MergeSortedTermLists(parallel::Executor& exec,
                                 std::vector<std::vector<std::string>>& lists,
                                 size_t lo, size_t n) {
  if (n <= 1) return;
  size_t split = 1;
  while (split * 2 < n) split *= 2;
  if (split > 1 || n - split > 1) {
    parallel::WorkHint hint;
    hint.label = "term-ids-merge";
    exec.ParallelFor(0, 2, 1, hint, [&](int, size_t b, size_t e) {
      for (size_t side = b; side < e; ++side) {
        if (side == 0) {
          MergeSortedTermLists(exec, lists, lo, split);
        } else {
          MergeSortedTermLists(exec, lists, lo + split, n - split);
        }
      }
    });
  }
  std::vector<std::string>& left = lists[lo];
  std::vector<std::string>& right = lists[lo + split];
  std::vector<std::string> merged;
  merged.reserve(left.size() + right.size());
  std::merge(std::make_move_iterator(left.begin()),
             std::make_move_iterator(left.end()),
             std::make_move_iterator(right.begin()),
             std::make_move_iterator(right.end()), std::back_inserter(merged));
  left = std::move(merged);
  right.clear();
  right.shrink_to_fit();
}

/// Assigns term ids in sorted-word order inside `wc.doc_freq` and returns
/// the sorted list of *kept* terms; pruned terms get kPrunedTermId. If
/// `dfs` is non-null it receives the document frequency per term id.
///
/// Runs the sharded-parallel vocabulary sweep by default: kept terms are
/// collected and sorted shard-by-shard in parallel, the sorted per-shard
/// lists are combined by a nested pairwise-merge spawn tree (work-stealing
/// executors overlap merges across subtrees), and ids are written back per
/// shard in a second parallel loop — each shard's task binary-searches the
/// sorted vocabulary for its own keys, so no two tasks touch the same
/// shard. `ctx.flat_parallelism` replaces the merge tree with the serial
/// concat+sort between the two shard loops; `ctx.serial_merge` selects the
/// paper-era single serial pass. All paths produce identical ids (global
/// lexicographic order).
template <containers::DictBackend B>
std::vector<std::string> AssignTermIds(ExecContext& ctx,
                                       WordCountResult<B>& wc,
                                       const TfidfOptions& options,
                                       std::vector<uint32_t>* dfs = nullptr) {
  const uint32_t max_df = static_cast<uint32_t>(
      options.max_df_ratio * static_cast<double>(wc.num_documents()));
  auto keep = [&](const TermStat& stat) {
    return stat.df >= options.min_df && stat.df <= max_df;
  };

  std::vector<std::string> terms;

  if (ctx.serial_merge) {
    // Ablation path: one serial region doing collect + sort + write-back.
    ctx.executor->RunSerial(parallel::WorkHint{0, "term-ids"}, [&] {
      terms.reserve(wc.doc_freq.size());
      wc.doc_freq.ForEach([&](const std::string& word, const TermStat& stat) {
        if (keep(stat)) terms.push_back(word);
      });
      std::sort(terms.begin(), terms.end());
      wc.doc_freq.ForEach([&](const std::string& word, const TermStat& stat) {
        if (!keep(stat)) {
          // ForEach hands out const refs; fix up through the mutable handle.
          wc.doc_freq.FindOrInsert(std::string_view(word)).id = kPrunedTermId;
        }
      });
      if (dfs != nullptr) dfs->resize(terms.size());
      for (uint32_t id = 0; id < terms.size(); ++id) {
        TermStat& stat =
            wc.doc_freq.FindOrInsert(std::string_view(terms[id]));
        stat.id = id;
        if (dfs != nullptr) (*dfs)[id] = stat.df;
      }
    });
    return terms;
  }

  const size_t num_shards = wc.doc_freq.num_shards();
  const bool nested = !ctx.flat_parallelism;

  // Pass 1 (parallel over shards): collect each shard's kept terms. On the
  // nested path each shard also sorts its own list inside the task, feeding
  // the merge tree below.
  std::vector<std::vector<std::string>> shard_terms(num_shards);
  parallel::WorkHint collect_hint;
  collect_hint.label = "term-ids-collect";
  ctx.executor->ParallelFor(
      0, num_shards, 0, collect_hint, [&](int, size_t b, size_t e) {
        for (size_t s = b; s < e; ++s) {
          wc.doc_freq.shard(s).ForEach(
              [&](const std::string& word, const TermStat& stat) {
                if (keep(stat)) shard_terms[s].push_back(word);
              });
          if (nested) std::sort(shard_terms[s].begin(), shard_terms[s].end());
        }
      });

  if (nested) {
    // Ordering step, work-stealing form: pairwise sorted-merge spawn tree
    // over the per-shard lists. Shards hold disjoint keys, so this yields
    // exactly the global lexicographic order of the serial sort — but the
    // O(V log V) serial comparison sort is gone from the critical path.
    tfidf_internal::MergeSortedTermLists(*ctx.executor, shard_terms, 0,
                                         num_shards);
    terms = std::move(shard_terms[0]);
  } else {
    // Flat ablation path (--flat-parallelism): serial ordering step —
    // concatenate and sort the global vocabulary between the two shard
    // loops, the shape the flat executor contract forced. O(V log V) over
    // V strings on the calling thread.
    ctx.executor->RunSerial(parallel::WorkHint{0, "term-ids-sort"}, [&] {
      size_t total = 0;
      for (const auto& st : shard_terms) total += st.size();
      terms.reserve(total);
      for (auto& st : shard_terms) {
        for (auto& word : st) terms.push_back(std::move(word));
        st.clear();
      }
      std::sort(terms.begin(), terms.end());
    });
  }

  // Pass 2 (parallel over shards): write ids back. Each task mutates only
  // its own shards, and each kept term's global id comes from a binary
  // search of the sorted vocabulary — race-free, deterministic.
  if (dfs != nullptr) dfs->resize(terms.size());
  parallel::WorkHint assign_hint;
  assign_hint.label = "term-ids-assign";
  ctx.executor->ParallelFor(
      0, num_shards, 0, assign_hint, [&](int, size_t b, size_t e) {
        for (size_t s = b; s < e; ++s) {
          auto& shard = wc.doc_freq.shard(s);
          shard.ForEach([&](const std::string& word, const TermStat& stat) {
            // ForEach hands out const refs; values are fixed up through the
            // mutable handle (key exists, so no structural change).
            TermStat& mstat = shard.FindOrInsert(std::string_view(word));
            if (!keep(stat)) {
              mstat.id = kPrunedTermId;
              return;
            }
            auto it = std::lower_bound(terms.begin(), terms.end(), word);
            const uint32_t id =
                static_cast<uint32_t>(it - terms.begin());
            mstat.id = id;
            if (dfs != nullptr) (*dfs)[id] = stat.df;
          });
        }
      });
  return terms;
}

/// Assigns term ids over an interned count: kept terms (min_df / max_df
/// over the merged dfs) get dense ids in sorted order, and
/// `wc.term_ids` maps every worker's local ids to them (or to
/// kPrunedTermId). Returns the kept vocabulary; `dfs`, when non-null,
/// receives the df per kept id. Same ids as the per-document overload.
std::vector<std::string> AssignTermIds(ExecContext& ctx, InternedWordCount& wc,
                                       const TfidfOptions& options,
                                       std::vector<uint32_t>* dfs = nullptr);

/// ln(N / df) per term id.
std::vector<double> IdfTable(const std::vector<uint32_t>& dfs, size_t n_docs);

/// The one TF/IDF weight formula. Sorts `run` — one document's
/// (term id, tf) pairs, ids distinct — by id and builds `row` from it:
/// weight(tf) · idf[id] in double — weight is tf, or 1 + ln(tf) when
/// sublinear — rounded to float once, then an id-ordered L2 normalize
/// when asked. Every scorer (transform, both ARFF writers,
/// TfidfVectorizer) builds its rows here, so equal runs give equal bits.
void BuildTfidfRow(std::vector<TermCount>& run, const std::vector<double>& idf,
                   const TfidfOptions& options, containers::SparseVector& row);

/// The (term id, tf) pairs of document `doc` of a per-document count, in
/// dictionary order; pruned terms are skipped.
template <containers::DictBackend B>
void AppendDocumentRun(const WordCountResult<B>& wc, size_t doc,
                       std::vector<TermCount>& run) {
  wc.doc_tfs[doc].ForEach([&](const std::string& word, uint32_t tf) {
    const TermStat* stat = wc.doc_freq.Find(std::string_view(word));
    // Every word in a document is in the global table by construction.
    if (stat->id != kPrunedTermId) run.push_back(TermCount{stat->id, tf});
  });
}

/// The same for an interned count: an array remap of the document's
/// local-id run through the `term_ids` AssignTermIds wrote.
inline void AppendDocumentRun(const InternedWordCount& wc, size_t doc,
                              std::vector<TermCount>& run) {
  const DocRun& d = wc.docs[doc];
  const std::vector<uint32_t>& remap = wc.term_ids[d.worker];
  const TermCount* local = wc.runs[d.worker].data() + d.offset;
  for (uint32_t k = 0; k < d.size; ++k) {
    const uint32_t id = remap[local[k].id];
    if (id != kPrunedTermId) run.push_back(TermCount{id, local[k].tf});
  }
}

/// Scores document `doc` of a count (either representation) into `row`:
/// its run through BuildTfidfRow. `run` is recycled.
template <typename Counts>
void ScoreDocument(const Counts& wc, size_t doc,
                   const std::vector<double>& idf, const TfidfOptions& options,
                   std::vector<TermCount>& run, containers::SparseVector& row) {
  run.clear();
  AppendDocumentRun(wc, doc, run);
  BuildTfidfRow(run, idf, options, row);
}

/// The fused-form transform over a count of either representation: term
/// ids, then a parallel scoring loop straight into the matrix rows.
template <typename Counts>
TfidfResult Transform(ExecContext& ctx, Counts& wc,
                      const TfidfOptions& options) {
  TfidfResult result;
  result.total_tokens = wc.total_tokens;
  result.dict_bytes = wc.ApproxDictBytes();
  result.quarantine = std::move(wc.quarantine);

  ctx.TimePhase("transform", [&] {
    // Term-id assignment issues its own executor regions, so the clock
    // charges it either way.
    result.terms = AssignTermIds(ctx, wc, options, &result.term_dfs);
    std::vector<double> idf;
    ctx.executor->RunSerial(parallel::WorkHint{0, "transform-setup"}, [&] {
      result.matrix.num_cols = static_cast<uint32_t>(result.terms.size());
      result.matrix.rows.resize(wc.num_documents());
      idf = IdfTable(result.term_dfs, wc.num_documents());
    });
    result.doc_names = std::move(wc.doc_names);

    parallel::WorkHint hint;
    // The transform's memory traffic is dominated by walking the counts;
    // this is what saturates bandwidth for bloated backends (Figure 4's
    // u-map scaling collapse).
    hint.bytes_touched = result.dict_bytes;
    hint.label = "transform";
    ctx.executor->ParallelFor(
        0, wc.num_documents(), 0, hint,
        [&](int, size_t begin, size_t end) {
          // Chunk-local: per-worker slots would put neighbouring workers'
          // vector ends on one cache line.
          std::vector<TermCount> run;
          for (size_t i = begin; i < end; ++i) {
            ScoreDocument(wc, i, idf, options, run, result.matrix.rows[i]);
          }
        });
  });
  return result;
}

/// The discrete-form output over a count of either representation: phase
/// "tfidf-output" scores documents and writes them as sparse ARFF at
/// `arff_path` on ctx.scratch_disk.
template <typename Counts>
Status WriteArff(ExecContext& ctx, Counts& wc, const std::string& arff_path,
                 const TfidfOptions& options) {
  if (ctx.quarantine != nullptr) {
    // The discrete form's result is the file, so the word-count quarantine
    // would otherwise be dropped on the floor; surface it to the workflow.
    ctx.quarantine->MergeFrom(std::move(wc.quarantine));
  }

  // Device-aware output: the serial single-file pass below exists because
  // "the ARFF format does not facilitate parallel output" — but on a
  // multi-channel scratch device that format choice, not the device, is
  // the bottleneck. There the operator writes the sharded-ARFF v2 layout
  // instead (one shard per channel, parallel transform + parallel shard
  // writes, manifest as commit record); downstream readers dispatch on
  // the manifest's presence, so the switch is transparent.
  if (ctx.scratch_disk != nullptr &&
      ctx.scratch_disk->options().channels > 1) {
    Status status;
    ctx.TimePhase("tfidf-output", [&] {
      std::vector<uint32_t> dfs;
      std::vector<std::string> terms = AssignTermIds(ctx, wc, options, &dfs);
      const std::vector<double> idf = IdfTable(dfs, wc.num_documents());
      // Rows are scored *inside* each shard's write loop (per-worker
      // scratch recycled row to row), so the scoring region streams
      // straight to the device and the full SparseMatrix never exists —
      // peak memory is the counts plus one 64 KiB chunk per shard.
      // Bytes on disk are identical to the score-then-write pass.
      struct RowScratch {
        std::vector<TermCount> run;
        containers::SparseVector row;
      };
      parallel::WorkerLocal<RowScratch> scratch(*ctx.executor);
      parallel::WorkHint hint;
      hint.bytes_touched = wc.ApproxDictBytes();
      hint.label = "tfidf-output-rows";
      status = io::WriteShardedArffRows(
          ctx.scratch_disk, ctx.executor, arff_path, "tfidf", terms,
          wc.num_documents(), ctx.scratch_disk->options().channels,
          [&](int worker, size_t i) -> const containers::SparseVector& {
            RowScratch& s = scratch.Get(worker);
            ScoreDocument(wc, i, idf, options, s.run, s.row);
            return s.row;
          },
          hint);
    });
    return status;
  }

  Status status;
  ctx.TimePhase("tfidf-output", [&] {
    // Term-id assignment runs its own (possibly parallel) regions; the
    // ARFF streaming below stays one serial region, as the format demands.
    std::vector<uint32_t> dfs;
    std::vector<std::string> terms = AssignTermIds(ctx, wc, options, &dfs);
    ctx.executor->RunSerial(parallel::WorkHint{0, "tfidf-output"}, [&] {
      status = [&]() -> Status {
        HPA_ASSIGN_OR_RETURN(auto writer,
                             ctx.scratch_disk->OpenWriter(arff_path));
        const std::vector<double> idf = IdfTable(dfs, wc.num_documents());

        std::string chunk;
        chunk.reserve(1 << 16);
        chunk += "% generated by hpa tfidf\n@relation tfidf\n";
        for (const std::string& term : terms) {
          chunk += "@attribute ";
          chunk += term;
          chunk += " numeric\n";
          if (chunk.size() >= (1 << 16)) {
            HPA_RETURN_IF_ERROR(writer->Append(chunk));
            chunk.clear();
          }
        }
        chunk += "@data\n";

        std::vector<TermCount> run;
        containers::SparseVector row;
        for (size_t i = 0; i < wc.num_documents(); ++i) {
          ScoreDocument(wc, i, idf, options, run, row);
          chunk += '{';
          for (size_t k = 0; k < row.nnz(); ++k) {
            if (k > 0) chunk += ',';
            AppendUint(chunk, row.id_at(k));
            chunk += ' ';
            AppendDouble(chunk, static_cast<double>(row.value_at(k)));
          }
          chunk += "}\n";
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

}  // namespace tfidf_internal

/// Fused-form transform applied to an existing word-count result:
/// the "transform" phase of Figures 3 and 4.
template <containers::DictBackend B>
TfidfResult TfidfTransformT(ExecContext& ctx, WordCountResult<B> wc,
                            const TfidfOptions& options = {}) {
  return tfidf_internal::Transform(ctx, wc, options);
}

/// Fused-form TF/IDF over a packed corpus: parallel input+wc, then a
/// parallel in-memory transform. Statically parameterized on the
/// dictionary backend.
template <containers::DictBackend B>
StatusOr<TfidfResult> TfidfInMemoryT(ExecContext& ctx,
                                     const io::PackedCorpusReader& corpus,
                                     const TfidfOptions& options = {}) {
  HPA_ASSIGN_OR_RETURN(auto wc, RunWordCount<B>(ctx, corpus));
  return tfidf_internal::Transform(ctx, wc, options);
}

/// Discrete-form TF/IDF: parallel input+wc, then one serial pass that
/// scores documents and streams them to sparse ARFF at `arff_path` on
/// ctx.scratch_disk. Phases: "input+wc", "df-merge", "tfidf-output".
template <containers::DictBackend B>
Status TfidfToArffT(ExecContext& ctx, const io::PackedCorpusReader& corpus,
                    const std::string& arff_path,
                    const TfidfOptions& options = {}) {
  HPA_ASSIGN_OR_RETURN(auto wc, RunWordCount<B>(ctx, corpus));
  return tfidf_internal::WriteArff(ctx, wc, arff_path, options);
}

/// Runtime-dispatched forms (backend chosen by ctx.dict_backend;
/// kInterned runs the interned count).
StatusOr<TfidfResult> TfidfInMemory(ExecContext& ctx,
                                    const io::PackedCorpusReader& corpus,
                                    const TfidfOptions& options = {});
Status TfidfToArff(ExecContext& ctx, const io::PackedCorpusReader& corpus,
                   const std::string& arff_path,
                   const TfidfOptions& options = {});

/// Reads a TF/IDF ARFF intermediate back in (the discrete workflow's
/// "kmeans-input" phase; serial by format design).
StatusOr<containers::SparseMatrix> ReadTfidfArff(ExecContext& ctx,
                                                 const std::string& arff_path);

}  // namespace hpa::ops

#endif  // HPA_OPS_TFIDF_H_
