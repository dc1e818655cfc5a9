// Micro-benchmarks (google-benchmark) for the text substrate: tokenizer
// throughput (the inner loop of the paper's "input+wc" phase), corpus
// generation, and the sparse kernels of the fused job: the nearest-centroid
// scan (the K-means inner loop) and the TF/IDF row build, both reported per
// nonzero so they can feed a cost model.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "containers/sparse_vector.h"
#include "ops/kmeans.h"
#include "ops/tfidf.h"
#include "text/synth_corpus.h"
#include "text/tokenizer.h"

namespace hpa {
namespace {

const text::Corpus& BenchCorpus() {
  static const text::Corpus* corpus = [] {
    text::CorpusProfile profile;
    profile.name = "micro";
    profile.num_documents = 500;
    profile.target_bytes = 1500000;
    profile.target_distinct_words = 5000;
    return new text::Corpus(text::SynthCorpusGenerator(profile).Generate());
  }();
  return *corpus;
}

void BM_TokenizerThroughput(benchmark::State& state) {
  const text::Corpus& corpus = BenchCorpus();
  uint64_t bytes = corpus.TotalBytes();
  for (auto _ : state) {
    uint64_t tokens = 0;
    for (const auto& doc : corpus.docs) {
      text::ForEachToken(doc.body, [&](std::string_view) { ++tokens; });
    }
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TokenizerThroughput);

void BM_TokenizerMinLengthFilter(benchmark::State& state) {
  const text::Corpus& corpus = BenchCorpus();
  text::TokenizerOptions opts;
  opts.min_token_length = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    uint64_t tokens = 0;
    for (const auto& doc : corpus.docs) {
      text::ForEachToken(doc.body, opts,
                         [&](std::string_view) { ++tokens; });
    }
    benchmark::DoNotOptimize(tokens);
  }
}
BENCHMARK(BM_TokenizerMinLengthFilter)->Arg(1)->Arg(4);

void BM_CorpusGeneration(benchmark::State& state) {
  text::CorpusProfile profile;
  profile.name = "gen";
  profile.num_documents = static_cast<uint64_t>(state.range(0));
  profile.target_bytes = profile.num_documents * 2500;
  profile.target_distinct_words = profile.num_documents * 8;
  for (auto _ : state) {
    text::Corpus corpus = text::SynthCorpusGenerator(profile).Generate();
    benchmark::DoNotOptimize(corpus.TotalBytes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CorpusGeneration)->Arg(100)->Arg(1000);

containers::SparseVector RandomSparse(Rng& rng, uint32_t dim, size_t nnz) {
  std::vector<std::pair<uint32_t, float>> entries;
  for (size_t i = 0; i < nnz; ++i) {
    entries.push_back({static_cast<uint32_t>(rng.NextBounded(dim)),
                       static_cast<float>(rng.NextDouble())});
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                entries.end());
  return containers::SparseVector::FromPairs(std::move(entries));
}

// The NSF x0.05 shape of the fused job: a 13.4k-term vocabulary, k = 8,
// rows of ~240 nonzeros (1.2M entries over 5,074 documents).
constexpr uint32_t kVocab = 13395;
constexpr size_t kRowNnz = 240;
constexpr size_t kRows = 256;

// Reports the time per processed nonzero (per_nnz, in seconds: "1.5n" is
// 1.5 ns).
void SetTimePerNonzero(benchmark::State& state, size_t nnz_per_iteration) {
  state.counters["per_nnz"] = benchmark::Counter(
      static_cast<double>(nnz_per_iteration),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_NearestCentroid(benchmark::State& state) {
  // The K-means assignment scan: each row against all k = 8 centroids of
  // the id-major tile, over a rotation of rows so the lines a row touches
  // are not all still cached from the previous iteration.
  Rng rng(7);
  std::vector<std::vector<float>> centroids(8, std::vector<float>(kVocab));
  for (auto& c : centroids) {
    for (auto& v : c) v = static_cast<float>(rng.NextDouble());
  }
  const ops::CentroidTile tile(centroids,
                              ops::CentroidSquaredNorms(centroids));
  std::vector<containers::SparseVector> rows;
  std::vector<double> row_sq;
  size_t nnz = 0;
  for (size_t r = 0; r < kRows; ++r) {
    rows.push_back(RandomSparse(rng, kVocab, kRowNnz));
    row_sq.push_back(rows.back().SquaredL2Norm());
    nnz += rows.back().nnz();
  }
  for (auto _ : state) {
    for (size_t r = 0; r < kRows; ++r) {
      double d = 0.0;
      benchmark::DoNotOptimize(
          ops::NearestCentroid(rows[r], row_sq[r], tile, &d));
      benchmark::DoNotOptimize(d);
    }
  }
  SetTimePerNonzero(state, nnz);
}
BENCHMARK(BM_NearestCentroid);

void BM_BuildTfidfRow(benchmark::State& state) {
  // The transform's per-document step: a first-seen-order (term id, tf)
  // run sorted by id and scored into an L2-normalized row. Each iteration
  // copies the unsorted runs back first (a memcpy, inside the timing).
  Rng rng(9);
  std::vector<double> idf(kVocab);
  for (double& x : idf) x = 0.1 + 5.0 * rng.NextDouble();
  std::vector<std::vector<ops::TermCount>> runs;
  size_t entries = 0;
  for (size_t r = 0; r < kRows; ++r) {
    const containers::SparseVector ids = RandomSparse(rng, kVocab, kRowNnz);
    std::vector<ops::TermCount> run;
    for (uint32_t id : ids.ids()) {
      run.push_back(
          ops::TermCount{id, 1 + static_cast<uint32_t>(rng.NextBounded(5))});
    }
    Shuffle(run, rng);
    entries += run.size();
    runs.push_back(std::move(run));
  }
  const ops::TfidfOptions options;
  std::vector<ops::TermCount> run;
  containers::SparseVector row;
  for (auto _ : state) {
    for (const auto& unsorted : runs) {
      run.assign(unsorted.begin(), unsorted.end());
      ops::tfidf_internal::BuildTfidfRow(run, idf, options, row);
      benchmark::DoNotOptimize(row.values().data());
    }
  }
  SetTimePerNonzero(state, entries);
}
BENCHMARK(BM_BuildTfidfRow);

void BM_SparseSparseDot(benchmark::State& state) {
  Rng rng(11);
  auto a = RandomSparse(rng, 20000, 300);
  auto b = RandomSparse(rng, 20000, 300);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(a, b));
  }
}
BENCHMARK(BM_SparseSparseDot);

void BM_SparseScatterAdd(benchmark::State& state) {
  // The K-means accumulation kernel.
  Rng rng(13);
  const uint32_t dim = 20000;
  auto row = RandomSparse(rng, dim, 200);
  std::vector<float> sum(dim, 0.0f);
  for (auto _ : state) {
    containers::AddScaled(row, 1.0f, sum);
    benchmark::DoNotOptimize(sum.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(row.nnz()));
}
BENCHMARK(BM_SparseScatterAdd);

}  // namespace
}  // namespace hpa

BENCHMARK_MAIN();
