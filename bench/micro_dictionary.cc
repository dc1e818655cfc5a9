// Micro-benchmarks (google-benchmark) for the dictionary backends: insert
// and lookup costs per structure. These are the measurements that feed the
// cost-model constants in core/cost_model.cc. The interned count
// (DictBackend::kInterned) has its own row: BM_InternZipfTokens prices a
// token, BM_RemapInternedRuns a document entry of the transform.

#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "containers/dictionary.h"
#include "ops/tfidf.h"
#include "parallel/executor.h"
#include "text/synth_corpus.h"

namespace hpa::containers {
namespace {

// A shared pool of Zipf-distributed tokens, like a real word-count stream.
const std::vector<std::string>& TokenStream() {
  static const std::vector<std::string>* stream = [] {
    text::CorpusProfile profile;
    profile.name = "micro";
    profile.num_documents = 1;
    profile.target_distinct_words = 20000;
    text::SynthCorpusGenerator gen(profile);
    Rng rng(7);
    ZipfSampler zipf(20000, 1.05);
    auto* tokens = new std::vector<std::string>();
    tokens->reserve(200000);
    for (int i = 0; i < 200000; ++i) {
      tokens->push_back(gen.WordForRank(zipf.Sample(rng)));
    }
    return tokens;
  }();
  return *stream;
}

template <DictBackend B>
void BM_InsertZipfTokens(benchmark::State& state) {
  const auto& tokens = TokenStream();
  for (auto _ : state) {
    typename DictFor<B, uint32_t>::type dict;
    for (const std::string& t : tokens) {
      dict.FindOrInsert(std::string_view(t)) += 1;
    }
    benchmark::DoNotOptimize(dict.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tokens.size()));
}

template <DictBackend B>
void BM_LookupBuiltTable(benchmark::State& state) {
  const auto& tokens = TokenStream();
  typename DictFor<B, uint32_t>::type dict;
  for (const std::string& t : tokens) {
    dict.FindOrInsert(std::string_view(t)) += 1;
  }
  for (auto _ : state) {
    uint64_t hits = 0;
    for (const std::string& t : tokens) {
      hits += dict.Find(std::string_view(t)) != nullptr;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tokens.size()));
}

template <DictBackend B>
void BM_SortedIterationOrSort(benchmark::State& state) {
  // The term-id assignment cost: sorted backends walk in order; hash
  // backends collect + sort (the §3.4 asymmetry).
  const auto& tokens = TokenStream();
  using Dict = typename DictFor<B, uint32_t>::type;
  Dict dict;
  for (const std::string& t : tokens) {
    dict.FindOrInsert(std::string_view(t)) += 1;
  }
  for (auto _ : state) {
    std::vector<std::string> terms;
    terms.reserve(dict.size());
    dict.ForEach(
        [&](const std::string& k, uint32_t) { terms.push_back(k); });
    if constexpr (!Dict::kSortedIteration) {
      std::sort(terms.begin(), terms.end());
    }
    benchmark::DoNotOptimize(terms.size());
  }
}

#define HPA_DICT_BENCH(fn)                                      \
  BENCHMARK_TEMPLATE(fn, DictBackend::kStdMap);                 \
  BENCHMARK_TEMPLATE(fn, DictBackend::kStdUnorderedMap);        \
  BENCHMARK_TEMPLATE(fn, DictBackend::kOpenHash)

HPA_DICT_BENCH(BM_InsertZipfTokens);
HPA_DICT_BENCH(BM_LookupBuiltTable);
HPA_DICT_BENCH(BM_SortedIterationOrSort);

// The interned count over the same stream, cut into 100-token documents:
// one worker's real counter (intern, count, per-document df tick and run).
constexpr size_t kTokensPerDoc = 100;

ops::InternedWordCount CountInterned(ops::ExecContext& ctx) {
  const auto& tokens = TokenStream();
  const size_t docs = tokens.size() / kTokensPerDoc;
  ops::wc_internal::InternedCounts counts(ctx, docs, /*keep_runs=*/true);
  auto counter = counts.Counter(0);
  for (size_t d = 0; d < docs; ++d) {
    counter.BeginDocument(d);
    for (size_t t = d * kTokensPerDoc; t < (d + 1) * kTokensPerDoc; ++t) {
      counter.Count(tokens[t]);
    }
    counter.EndDocument(d);
  }
  ops::wc_internal::DocOutcomes out(*ctx.executor, docs);
  return counts.Finish(ctx, out);
}

void BM_InternZipfTokens(benchmark::State& state) {
  parallel::SerialExecutor exec;
  ops::ExecContext ctx;
  ctx.executor = &exec;
  for (auto _ : state) {
    ops::InternedWordCount wc = CountInterned(ctx);
    benchmark::DoNotOptimize(wc.terms.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(TokenStream().size()));
}
BENCHMARK(BM_InternZipfTokens);

// The transform's replacement for a per-entry dictionary lookup: the
// array remap of every document's run to global term ids.
void BM_RemapInternedRuns(benchmark::State& state) {
  parallel::SerialExecutor exec;
  ops::ExecContext ctx;
  ctx.executor = &exec;
  ops::InternedWordCount wc = CountInterned(ctx);
  ops::tfidf_internal::AssignTermIds(ctx, wc, {});
  std::vector<ops::TermCount> run;
  int64_t entries = 0;
  for (auto _ : state) {
    for (size_t d = 0; d < wc.num_documents(); ++d) {
      run.clear();
      ops::tfidf_internal::AppendDocumentRun(wc, d, run);
      entries += static_cast<int64_t>(run.size());
      benchmark::DoNotOptimize(run.data());
    }
  }
  state.SetItemsProcessed(entries);
}
BENCHMARK(BM_RemapInternedRuns);

void BM_PreSizedPerDocTables(benchmark::State& state) {
  // The paper's per-document pattern: many tiny tables, each pre-sized.
  const size_t presize = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    uint64_t total = 0;
    for (int doc = 0; doc < 200; ++doc) {
      StdUnorderedDict<uint32_t> table(presize);
      for (int w = 0; w < 50; ++w) {
        table.FindOrInsert(std::string_view("word" + std::to_string(w))) += 1;
      }
      total += table.ApproxMemoryBytes();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_PreSizedPerDocTables)->Arg(0)->Arg(4096);

}  // namespace
}  // namespace hpa::containers

BENCHMARK_MAIN();
