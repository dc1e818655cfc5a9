#include "ops/tfidf_vectorizer.h"

#include <utility>

#include "common/string_util.h"
#include "text/stemmer.h"

namespace hpa::ops {

TfidfVectorizer::TfidfVectorizer(const TfidfResult& fitted,
                                 TfidfOptions options)
    : TfidfVectorizer(fitted.terms, fitted.term_dfs, fitted.num_documents(),
                      options) {}

TfidfVectorizer::TfidfVectorizer(std::vector<std::string> terms,
                                 std::vector<uint32_t> dfs, uint64_t num_docs,
                                 TfidfOptions options)
    : terms_(std::move(terms)),
      dfs_(std::move(dfs)),
      num_docs_(num_docs),
      options_(options) {
  BuildIndex();
}

TfidfVectorizer::TfidfVectorizer(const TfidfVectorizer& other)
    : TfidfVectorizer(other.terms_, other.dfs_, other.num_docs_,
                      other.options_) {}

TfidfVectorizer& TfidfVectorizer::operator=(const TfidfVectorizer& other) {
  if (this != &other) *this = TfidfVectorizer(other);
  return *this;
}

void TfidfVectorizer::BuildIndex() {
  index_.Reserve(terms_.size());
  for (uint32_t id = 0; id < terms_.size(); ++id) {
    index_.FindOrInsert(std::string_view(terms_[id])) = id;
  }
  idf_ = tfidf_internal::IdfTable(dfs_, num_docs_);
}

void TfidfVectorizer::Score(std::string_view body,
                            const text::TokenizerOptions& tokenizer,
                            bool stem_tokens, Scratch& scratch,
                            containers::SparseVector& row) const {
  TermCounter& counts = scratch.counts;
  if (counts.pos.size() < terms_.size()) counts.pos.resize(terms_.size(), 0);
  counts.run.clear();
  text::ForEachToken(body, tokenizer, [&](std::string_view token) {
    if (stem_tokens) {
      scratch.stem_buf.assign(token);
      token = text::PorterStem(scratch.stem_buf);
    }
    const uint32_t* id = index_.Find(token);
    if (id == nullptr) return;  // unknown, or pruned during the fit
    counts.Add(*id);
  });
  counts.EndDocument();
  tfidf_internal::BuildTfidfRow(counts.run, idf_, options_, row);
}

containers::SparseVector TfidfVectorizer::Score(
    std::string_view body, const text::TokenizerOptions& tokenizer,
    bool stem_tokens) const {
  thread_local Scratch scratch;
  containers::SparseVector row;
  Score(body, tokenizer, stem_tokens, scratch, row);
  return row;
}

Status TfidfVectorizer::Save(io::SimDisk* disk,
                             const std::string& rel_path) const {
  std::string out = "hpa-tfidf-model v1\n";
  out += "documents ";
  AppendUint(out, num_docs_);
  out += "\nterms ";
  AppendUint(out, terms_.size());
  out += '\n';
  for (size_t i = 0; i < terms_.size(); ++i) {
    out += terms_[i];
    out += ' ';
    AppendUint(out, dfs_[i]);
    out += '\n';
  }
  return disk->WriteFile(rel_path, out);
}

StatusOr<TfidfVectorizer> TfidfVectorizer::Load(io::SimDisk* disk,
                                                const std::string& rel_path,
                                                TfidfOptions options) {
  HPA_ASSIGN_OR_RETURN(std::string text, disk->ReadFile(rel_path));
  std::vector<std::string_view> lines = Split(text, '\n');
  if (lines.size() < 3 || Trim(lines[0]) != "hpa-tfidf-model v1") {
    return Status::Corruption("bad TF/IDF model header in " + rel_path);
  }
  TfidfVectorizer model;
  model.options_ = options;

  int64_t docs = 0;
  if (!StartsWith(lines[1], "documents ") ||
      !ParseInt64(lines[1].substr(10), &docs) || docs < 1) {
    return Status::Corruption("bad documents line in " + rel_path);
  }
  model.num_docs_ = static_cast<uint64_t>(docs);

  int64_t term_count = 0;
  if (!StartsWith(lines[2], "terms ") ||
      !ParseInt64(lines[2].substr(6), &term_count) || term_count < 0 ||
      lines.size() < 3 + static_cast<size_t>(term_count)) {
    return Status::Corruption("bad terms line in " + rel_path);
  }
  model.terms_.reserve(static_cast<size_t>(term_count));
  model.dfs_.reserve(static_cast<size_t>(term_count));
  for (int64_t i = 0; i < term_count; ++i) {
    std::string_view line = lines[3 + static_cast<size_t>(i)];
    size_t space = line.rfind(' ');
    int64_t df = 0;
    if (space == std::string_view::npos ||
        !ParseInt64(line.substr(space + 1), &df) || df < 1 ||
        df > docs) {
      return Status::Corruption(
          StrFormat("bad term line %lld in %s", static_cast<long long>(i),
                    rel_path.c_str()));
    }
    const std::string_view term = line.substr(0, space);
    // The index is the term id, so the vocabulary must be strictly
    // ascending: a duplicate would shadow its earlier id.
    if (!model.terms_.empty() && term <= model.terms_.back()) {
      return Status::Corruption(StrFormat(
          "term line %lld in %s is %s", static_cast<long long>(i),
          rel_path.c_str(),
          term == model.terms_.back() ? "a duplicate" : "out of order"));
    }
    model.terms_.emplace_back(term);
    model.dfs_.push_back(static_cast<uint32_t>(df));
  }
  model.BuildIndex();
  return model;
}

}  // namespace hpa::ops
