#include "ops/word_count.h"

#include <algorithm>
#include <cstring>

namespace hpa::ops {

namespace wc_internal {

namespace {

// The first 8 bytes of `word`, zero-padded, read big-endian: comparing
// keys compares the prefixes as unsigned bytes, which is how
// std::string_view orders them. Unequal keys order their words; equal
// keys leave the full compare to decide, so sorting by (key, word) gives
// the plain sorted order at integer-compare cost for most pairs.
uint64_t PrefixKey(std::string_view word) {
  unsigned char bytes[8] = {};
  std::memcpy(bytes, word.data(), std::min<size_t>(word.size(), 8));
  uint64_t key = 0;
  for (unsigned char b : bytes) key = key << 8 | b;
  return key;
}

// A union id with its word's PrefixKey, the merge sort's record.
struct PrefixKeyed {
  uint64_t key;
  uint32_t u;
};

}  // namespace

void MergeInternedVocabularies(ExecContext& ctx,
                               const std::vector<InternedWorker>& workers,
                               InternedWordCount& wc) {
  uint64_t entries = 0;
  for (const InternedWorker& w : workers) entries += w.vocab.size();
  parallel::WorkHint hint;
  hint.label = "vocab-merge";
  hint.bytes_touched = entries * 64;
  ctx.executor->RunSerial(hint, [&] {
    // Union of the worker vocabularies, keyed by the hashes the workers
    // stored: no term is hashed again.
    containers::TermTable index(entries / workers.size() + 1);
    std::vector<uint32_t> word_df;
    wc.remap.resize(workers.size());
    for (size_t w = 0; w < workers.size(); ++w) {
      std::vector<uint32_t>& to_word = wc.remap[w];
      to_word.resize(workers[w].vocab.size());
      workers[w].vocab.ForEach(
          [&](std::string_view word, uint64_t hash, uint32_t local) {
            const uint32_t u = index.Intern(word, hash);
            if (u == word_df.size()) word_df.push_back(0);
            word_df[u] += workers[w].df[local];
            to_word[local] = u;
          });
    }
    std::vector<std::string_view> words(index.size());
    index.ForEach([&](std::string_view word, uint64_t, uint32_t u) {
      words[u] = word;
    });
    // Sorted order becomes the vocabulary id; remap union ids to it.
    std::vector<PrefixKeyed> order(words.size());
    for (uint32_t u = 0; u < order.size(); ++u) {
      order[u] = PrefixKeyed{PrefixKey(words[u]), u};
    }
    std::sort(order.begin(), order.end(),
              [&](const PrefixKeyed& a, const PrefixKeyed& b) {
                if (a.key != b.key) return a.key < b.key;
                return words[a.u] < words[b.u];
              });
    std::vector<uint32_t> rank(words.size());
    wc.terms.reserve(words.size());
    wc.dfs.reserve(words.size());
    for (uint32_t v = 0; v < order.size(); ++v) {
      const uint32_t u = order[v].u;
      rank[u] = v;
      wc.terms.emplace_back(words[u]);
      wc.dfs.push_back(word_df[u]);
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
