#include "ops/word_count.h"

#include <algorithm>

namespace hpa::ops {

namespace wc_internal {

void MergeInternedVocabularies(ExecContext& ctx,
                               const std::vector<InternedWorker>& workers,
                               InternedWordCount& wc) {
  uint64_t entries = 0;
  for (const InternedWorker& w : workers) entries += w.ids.size();
  parallel::WorkHint hint;
  hint.label = "vocab-merge";
  hint.bytes_touched = entries * 64;
  ctx.executor->RunSerial(hint, [&] {
    // Union of the worker vocabularies in first-seen order. The views
    // point into the worker hash maps, which stay untouched until the
    // merge ends.
    containers::OpenHashMap<std::string_view, uint32_t,
                            containers::DefaultHash<std::string>>
        index(entries / workers.size() + 1);
    std::vector<std::string_view> words;
    std::vector<uint32_t> word_df;
    wc.remap.resize(workers.size());
    for (size_t w = 0; w < workers.size(); ++w) {
      std::vector<uint32_t>& to_word = wc.remap[w];
      to_word.resize(workers[w].ids.size());
      workers[w].ids.ForEach([&](const std::string& word, uint32_t local) {
        const size_t before = index.size();
        uint32_t& u = index.FindOrInsert(std::string_view(word));
        if (index.size() != before) {
          u = static_cast<uint32_t>(before);
          words.emplace_back(word);
          word_df.push_back(0);
        }
        word_df[u] += workers[w].df[local];
        to_word[local] = u;
      });
    }
    // Sorted order becomes the vocabulary id; remap union ids to it.
    std::vector<uint32_t> order(words.size());
    for (uint32_t u = 0; u < order.size(); ++u) order[u] = u;
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return words[a] < words[b]; });
    std::vector<uint32_t> rank(words.size());
    wc.terms.reserve(words.size());
    wc.dfs.reserve(words.size());
    for (uint32_t v = 0; v < order.size(); ++v) {
      rank[order[v]] = v;
      wc.terms.emplace_back(words[order[v]]);
      wc.dfs.push_back(word_df[order[v]]);
    }
    for (std::vector<uint32_t>& to_word : wc.remap) {
      for (uint32_t& id : to_word) id = rank[id];
    }
  });
}

}  // namespace wc_internal

StatusOr<InternedWordCount> RunInternedWordCount(
    ExecContext& ctx, const io::PackedCorpusReader& corpus) {
  return wc_internal::CountCorpus(
      ctx, wc_internal::StoredBodies{corpus},
      wc_internal::InternedCounts(ctx, corpus.size(), true));
}

InternedWordCount RunInternedWordCountInMemory(ExecContext& ctx,
                                               const text::Corpus& corpus) {
  return std::move(wc_internal::CountCorpus(
                       ctx, wc_internal::MemoryBodies{corpus},
                       wc_internal::InternedCounts(ctx, corpus.size(), true))
                       .value());
}

}  // namespace hpa::ops
