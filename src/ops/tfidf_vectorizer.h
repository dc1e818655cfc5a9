#ifndef HPA_OPS_TFIDF_VECTORIZER_H_
#define HPA_OPS_TFIDF_VECTORIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "containers/term_table.h"
#include "containers/sparse_vector.h"
#include "io/sim_disk.h"
#include "ops/tfidf.h"
#include "text/tokenizer.h"

/// \file
/// Inference on a fitted TF/IDF model: score *new* documents against the
/// vocabulary and document frequencies learned from a training corpus, and
/// assign them to existing K-means clusters. This is what turns the
/// paper's batch workflow into a deployable pipeline: fit once (workflow),
/// persist the model, classify forever.
///
/// The same scorer re-derives corpus rows in the streaming K-means passes
/// (ops/streaming.h), so serving and out-of-core clustering share one
/// scoring formula — tfidf_internal::BuildTfidfRow, which also builds the
/// materialized matrix, bit for bit.

namespace hpa::ops {

/// A frozen TF/IDF model: term -> (id, training df), with the training
/// document count. Unknown words in new documents are ignored (they have
/// no idf evidence); pruned training terms are unknown words.
///
/// A term's id is its index in the sorted vocabulary (the ARFF attribute
/// order), but the term index is laid out for Zipf traffic: it is built
/// hottest-first, in descending training df with ties by id, each term
/// placed under its own id (containers::TermTable::Insert). The frequent
/// terms that make up most tokens of a new document then sit at or next
/// to their home slots, and their bytes share a few arena lines.
class TfidfVectorizer {
 public:
  /// Caller-recycled scoring state, sized to the vocabulary on first use.
  /// `counts.pos` is indexed by term id and is all zeros between calls.
  struct Scratch {
    TermCounter counts;
    std::string stem_buf;
  };

  /// An empty model: every document scores to the empty row.
  TfidfVectorizer() = default;

  /// Freezes the model fitted by TfidfInMemory/TfidfTransform.
  /// `options` must match the fit (sublinear/normalize are applied at
  /// scoring time; pruning already happened during the fit).
  TfidfVectorizer(const TfidfResult& fitted, TfidfOptions options = {});

  /// Freezes a model from its parts: the sorted kept vocabulary, the df
  /// per term id, and the training document count (the N in idf).
  TfidfVectorizer(std::vector<std::string> terms, std::vector<uint32_t> dfs,
                  uint64_t num_docs, TfidfOptions options);

  /// Scores one document body into `row`: tokenize (with `tokenizer`),
  /// look each token up by the hash the scanner computed, count each
  /// known term in `scratch`, weight by tf * ln(N/df), emit in
  /// id order, normalize per options. No allocation once `scratch` and
  /// `row` have warmed up. `stem_tokens` must match the fit: a model
  /// fitted from a stemming workflow has stemmed terms in its vocabulary,
  /// so raw tokens would silently miss.
  void Score(std::string_view body, const text::TokenizerOptions& tokenizer,
             bool stem_tokens, Scratch& scratch,
             containers::SparseVector& row) const;

  /// Convenience form over a thread-local scratch.
  containers::SparseVector Score(std::string_view body,
                                 const text::TokenizerOptions& tokenizer = {},
                                 bool stem_tokens = false) const;

  /// Sorted vocabulary; index = term id.
  const std::vector<std::string>& terms() const { return terms_; }

  /// Training document frequency per term id.
  const std::vector<uint32_t>& dfs() const { return dfs_; }

  /// Number of terms in the vocabulary.
  size_t vocabulary_size() const { return terms_.size(); }

  /// Training document count (the N in idf).
  uint64_t num_training_documents() const { return num_docs_; }

  /// Persists the model as a text file ("hpa-tfidf-model v1").
  Status Save(io::SimDisk* disk, const std::string& rel_path) const;

  /// Loads a model saved by Save(). Corruption on a malformed header or
  /// term line, and on a duplicate or out-of-order term (the vocabulary is
  /// sorted; a term's line index is its id).
  static StatusOr<TfidfVectorizer> Load(io::SimDisk* disk,
                                        const std::string& rel_path,
                                        TfidfOptions options = {});

 private:
  /// Builds the term -> id index (hottest-first) and the per-id idf from
  /// terms_/dfs_. The fitted, part-wise and loaded models all come here.
  void BuildIndex();

  std::vector<std::string> terms_;
  std::vector<uint32_t> dfs_;
  std::vector<double> idf_;  // ln(N / df) per term id
  uint64_t num_docs_ = 0;
  TfidfOptions options_;
  // term -> id, keyed by text::TokenHash, inserted in descending df
  containers::TermTable index_;
};

}  // namespace hpa::ops

#endif  // HPA_OPS_TFIDF_VECTORIZER_H_
