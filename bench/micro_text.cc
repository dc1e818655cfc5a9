// Micro-benchmarks (google-benchmark) for the text substrate: tokenizer
// throughput (the inner loop of the paper's "input+wc" phase), the interned
// word count per token and end to end from a packed corpus, a fitted
// model scoring documents per token, corpus generation, and the sparse
// kernels of the fused job: the nearest-centroid scan (the K-means inner
// loop) and the TF/IDF row build, both reported per nonzero so they can
// feed a cost model. BM_Crc32 prices the storage layer's integrity check.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/random.h"
#include "containers/sparse_vector.h"
#include "io/file_io.h"
#include "io/packed_corpus.h"
#include "ops/kmeans.h"
#include "ops/tfidf.h"
#include "ops/tfidf_vectorizer.h"
#include "ops/word_count.h"
#include "parallel/thread_pool.h"
#include "text/corpus_io.h"
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

// The perfbench corpus: NSF Abstracts x0.05 (5,074 documents, 2.30 M
// tokens, 13.4k terms).
const text::Corpus& NsfCorpus() {
  static const text::Corpus* corpus = new text::Corpus(
      text::SynthCorpusGenerator(
          text::CorpusProfile::NsfAbstracts().Scaled(0.05))
          .Generate());
  return *corpus;
}

// Reports the time per token (per_token, in seconds: "50n" is 50 ns).
void SetTimePerToken(benchmark::State& state, uint64_t tokens) {
  state.counters["per_token"] = benchmark::Counter(
      static_cast<double>(tokens),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_ScanAndIntern(benchmark::State& state) {
  // One worker's whole per-token step of the interned count, serial and
  // from bodies in memory: scan (find, lowercase, hash), intern into the
  // worker's term table, tally the document's run.
  const text::Corpus& corpus = NsfCorpus();
  parallel::SerialExecutor exec;
  ops::ExecContext ctx;
  ctx.executor = &exec;
  uint64_t tokens = 0;
  for (auto _ : state) {
    tokens = 0;
    ops::wc_internal::InternedCounts counts(ctx, corpus.size(), false);
    auto counter = counts.Counter(0);
    for (size_t i = 0; i < corpus.size(); ++i) {
      counter.BeginDocument(i);
      text::ForEachToken(corpus.docs[i].body, ctx.tokenizer,
                         [&](std::string_view token, uint64_t hash) {
                           counter.Count(token, hash);
                           ++tokens;
                         });
      counter.EndDocument(i);
    }
  }
  SetTimePerToken(state, tokens);
}
BENCHMARK(BM_ScanAndIntern)->Unit(benchmark::kMillisecond);

// NsfCorpus() packed into a temporary directory, removed at exit.
struct PackedNsfCorpus {
  PackedNsfCorpus() {
    auto made = io::MakeTempDir("hpa_micro_text_");
    if (!made.ok()) return;
    dir = *made;
    disk = std::make_unique<io::SimDisk>(io::DiskOptions::CorpusStore(), dir,
                                         nullptr);
    ok = text::WriteCorpusPacked(NsfCorpus(), disk.get(), "nsf.pack").ok();
  }
  ~PackedNsfCorpus() {
    if (!dir.empty()) io::RemoveDirRecursive(dir);
  }

  std::string dir;
  std::unique_ptr<io::SimDisk> disk;
  bool ok = false;
};

void BM_InternedWordCount(benchmark::State& state) {
  // RunInternedWordCount from the packed corpus on real threads: per-
  // document reads and CRCs, the count, and the vocabulary merge.
  static const PackedNsfCorpus packed;
  if (!packed.ok) {
    state.SkipWithError("cannot pack the corpus");
    return;
  }
  auto reader = io::PackedCorpusReader::Open(packed.disk.get(), "nsf.pack");
  if (!reader.ok()) {
    state.SkipWithError("cannot open the corpus");
    return;
  }
  parallel::ThreadPoolExecutor exec(static_cast<int>(state.range(0)));
  ops::ExecContext ctx;
  ctx.executor = &exec;
  ctx.corpus_disk = packed.disk.get();
  uint64_t tokens = 0;
  for (auto _ : state) {
    auto wc = ops::RunInternedWordCount(ctx, *reader);
    if (!wc.ok()) {
      state.SkipWithError("word count failed");
      return;
    }
    tokens = wc->total_tokens;
  }
  SetTimePerToken(state, tokens);
}
BENCHMARK(BM_InternedWordCount)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_VectorizerScore(benchmark::State& state) {
  // Serving's and streamed K-means' per-document step: a model fitted on
  // the NSF corpus scores each of its documents into a recycled row —
  // scan, term-index lookup, count, weigh. Serial, bodies in memory.
  const text::Corpus& corpus = NsfCorpus();
  parallel::SerialExecutor exec;
  ops::ExecContext ctx;
  ctx.executor = &exec;
  ops::InternedWordCount wc = ops::RunInternedWordCountInMemory(ctx, corpus);
  const uint64_t tokens = wc.total_tokens;
  const ops::TfidfVectorizer model(
      ops::tfidf_internal::Transform(ctx, wc, ops::TfidfOptions{}));
  ops::TfidfVectorizer::Scratch scratch;
  containers::SparseVector row;
  for (auto _ : state) {
    for (const text::Document& doc : corpus.docs) {
      model.Score(doc.body, ctx.tokenizer, false, scratch, row);
      benchmark::DoNotOptimize(row.values().data());
    }
  }
  SetTimePerToken(state, tokens);
}
BENCHMARK(BM_VectorizerScore)->Unit(benchmark::kMillisecond);

void BM_Crc32(benchmark::State& state) {
  // hpa::Crc32 over one buffer of state.range(0) random bytes: 64 B (the
  // folding kernel's threshold), 3 KiB (a mean NSF body, checked per
  // document on every corpus read), 64 KiB (a spill CRC block) and 1 MiB
  // (a corpus window's order).
  const size_t len = static_cast<size_t>(state.range(0));
  Rng rng(17);
  std::string buf(len, '\0');
  for (char& ch : buf) ch = static_cast<char>(rng.Next() & 0xFFu);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(buf));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(len));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(3 << 10)->Arg(64 << 10)->Arg(1 << 20);

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
