#include "text/vocab_stats.h"

#include "containers/term_table.h"

namespace hpa::text {

CorpusStats ComputeStats(const Corpus& corpus,
                         const TokenizerOptions& options) {
  CorpusStats stats;
  stats.name = corpus.name;
  stats.documents = corpus.size();
  stats.bytes = corpus.TotalBytes();
  containers::TermTable vocab(1 << 16);
  for (const Document& doc : corpus.docs) {
    ForEachToken(doc.body, options,
                 [&](std::string_view token, uint64_t hash) {
                   ++stats.total_tokens;
                   vocab.Intern(token, hash);
                 });
  }
  stats.distinct_words = vocab.size();
  return stats;
}

}  // namespace hpa::text
