// Fit once, classify forever — turning the paper's batch workflow into a
// deployable pipeline.
//
// Fits TF/IDF + K-means on a training corpus, persists the vectorizer
// model to (simulated) storage, then loads it back and assigns *new*,
// never-seen documents to the trained clusters with
// TfidfVectorizer::Score + NearestCentroid.
//
//   ./fit_and_classify --train_docs=1000 --new_docs=8

#include <cstdio>

#include "common/flags.h"
#include "io/file_io.h"
#include "io/packed_corpus.h"
#include "ops/kmeans.h"
#include "ops/tfidf.h"
#include "ops/tfidf_vectorizer.h"
#include "parallel/simulated_executor.h"
#include "text/corpus_io.h"
#include "text/synth_corpus.h"

using namespace hpa;  // NOLINT — example brevity

int main(int argc, char** argv) {
  FlagSet flags("fit_and_classify",
                "fit TF/IDF+K-means, persist the model, classify new docs");
  flags.DefineInt("train_docs", 1000, "training corpus size");
  flags.DefineInt("new_docs", 8, "fresh documents to classify");
  flags.DefineInt("clusters", 4, "number of clusters");
  if (auto s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }

  auto workdir = io::MakeTempDir("hpa_classify_");
  if (!workdir.ok()) return 1;
  io::SimDisk disk(io::DiskOptions::CorpusStore(), *workdir, nullptr);

  // --- fit --------------------------------------------------------------
  // Generate one corpus and hold out the tail as "new" documents: the
  // held-out docs share the language but were never seen by the fit.
  const size_t new_docs = static_cast<size_t>(flags.GetInt("new_docs"));
  text::CorpusProfile profile;
  profile.name = "train";
  profile.num_documents =
      static_cast<uint64_t>(flags.GetInt("train_docs")) + new_docs;
  profile.target_bytes = profile.num_documents * 2500;
  profile.target_distinct_words = profile.num_documents * 6;
  text::Corpus all = text::SynthCorpusGenerator(profile).Generate();

  text::Corpus fresh;
  fresh.name = "held-out";
  for (size_t i = 0; i < new_docs; ++i) {
    fresh.docs.push_back(std::move(all.docs[all.docs.size() - new_docs + i]));
  }
  all.docs.resize(all.docs.size() - new_docs);
  text::Corpus& train = all;
  if (!text::WriteCorpusPacked(train, &disk, "train.pack").ok()) return 1;

  parallel::SimulatedExecutor exec(8, parallel::MachineModel::Default());
  disk.set_executor(&exec);
  ops::ExecContext ctx;
  ctx.executor = &exec;
  ctx.corpus_disk = &disk;

  auto reader = io::PackedCorpusReader::Open(&disk, "train.pack");
  if (!reader.ok()) return 1;
  auto fitted = ops::TfidfInMemory(ctx, *reader);
  if (!fitted.ok()) {
    std::fprintf(stderr, "%s\n", fitted.status().ToString().c_str());
    return 1;
  }
  ops::KMeansOptions kopts;
  kopts.k = static_cast<int>(flags.GetInt("clusters"));
  kopts.max_iterations = 20;
  auto clusters = ops::SparseKMeans(ctx, fitted->matrix, kopts);
  if (!clusters.ok()) return 1;
  std::printf("fitted: %zu training docs, %zu terms, %d clusters "
              "(%d iterations)\n",
              fitted->num_documents(), fitted->terms.size(), kopts.k,
              clusters->iterations);

  // --- persist + reload the model ---------------------------------------
  ops::TfidfVectorizer vectorizer(*fitted);
  if (!vectorizer.Save(&disk, "model.txt").ok()) return 1;
  auto loaded = ops::TfidfVectorizer::Load(&disk, "model.txt");
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  auto size = disk.FileSize("model.txt");
  std::printf("model persisted (%llu bytes) and reloaded\n\n",
              static_cast<unsigned long long>(size.value_or(0)));

  // --- classify the held-out documents ------------------------------------
  const ops::CentroidTile tile(
      clusters->centroids, ops::CentroidSquaredNorms(clusters->centroids));
  for (const text::Document& doc : fresh.docs) {
    containers::SparseVector v = loaded->Score(doc.body);
    double distance = 0.0;
    int cluster = ops::NearestCentroid(v, v.SquaredL2Norm(), tile, &distance);
    std::printf("  %-10s -> cluster %d  (%zu known terms of ~%zu tokens)\n",
                doc.name.c_str(), cluster, v.nnz(),
                text::CountTokens(doc.body, {}));
  }

  io::RemoveDirRecursive(*workdir);
  return 0;
}
