// Document clustering with cluster inspection — the workload the paper's
// introduction motivates: group text documents by their normalized TF/IDF
// vectors and look at what characterizes each cluster.
//
// Demonstrates the operator-level API (below the workflow layer): running
// TF/IDF in memory, clustering, then using the centroids and term strings
// to print the top terms per cluster.
//
//   ./document_clustering --docs=2000 --clusters=6 --threads=8

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "common/retry.h"
#include "core/report.h"
#include "io/fault_injection.h"
#include "io/file_io.h"
#include "io/packed_corpus.h"
#include "ops/kmeans.h"
#include "ops/streaming.h"
#include "ops/tfidf.h"
#include "parallel/simulated_executor.h"
#include "text/corpus_io.h"
#include "text/directory_corpus.h"
#include "text/synth_corpus.h"

using namespace hpa;  // NOLINT — example brevity

int main(int argc, char** argv) {
  FlagSet flags("document_clustering",
                "cluster synthetic documents and inspect the clusters");
  flags.DefineString("dir", "",
                     "cluster .txt files from this directory instead of "
                     "generating a synthetic corpus");
  flags.DefineInt("docs", 2000, "number of documents to generate");
  flags.DefineInt("vocab", 8000, "distinct words in the vocabulary");
  flags.DefineInt("clusters", 6, "number of K-means clusters");
  flags.DefineInt("threads", 8, "virtual workers");
  flags.DefineInt("top_terms", 5, "terms to print per cluster");
  flags.DefineBool("no-prune", false,
                   "disable the triangle-inequality-pruned assignment "
                   "step (full k-way distance scan every iteration; "
                   "results are identical either way)");
  flags.DefineInt("mem-budget", 0,
                  "memory ceiling in MiB: run the semi-external "
                  "TF/IDF->K-means pipeline through bounded corpus "
                  "windows instead of materializing the sparse matrix "
                  "(results are bit-identical); 0 = in-memory");
  flags.DefineDouble("fault-rate", 0.0,
                     "injected transient I/O fault probability per corpus "
                     "read (0 = no injection)");
  flags.DefineInt("fault-seed", 1, "deterministic fault-schedule seed");
  flags.DefineString("fault-policy", "retry-skip",
                     "after the retry budget: fail-fast | retry-skip");
  if (auto s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }

  if (flags.GetInt("mem-budget") < 0) {
    std::fprintf(stderr, "--mem-budget must be >= 0 MiB, got %lld\n",
                 static_cast<long long>(flags.GetInt("mem-budget")));
    return 2;
  }
  const uint64_t mem_budget_bytes =
      static_cast<uint64_t>(flags.GetInt("mem-budget")) * 1024 * 1024;

  auto workdir = io::MakeTempDir("hpa_cluster_example_");
  if (!workdir.ok()) return 1;
  io::SimDisk corpus_disk(io::DiskOptions::CorpusStore(), *workdir, nullptr);

  FaultPolicy fault_policy;
  if (!ParseFaultPolicy(flags.GetString("fault-policy"), &fault_policy)) {
    std::fprintf(stderr, "bad --fault-policy '%s'\n",
                 flags.GetString("fault-policy").c_str());
    return 2;
  }
  io::FaultProfile fault_profile;
  fault_profile.transient_rate = flags.GetDouble("fault-rate");
  fault_profile.seed = static_cast<uint64_t>(flags.GetInt("fault-seed"));
  io::FaultInjector fault_injector(fault_profile);

  text::Corpus corpus;
  if (!flags.GetString("dir").empty()) {
    // Real data: every .txt file under --dir becomes a document. Unreadable
    // files follow the --fault-policy: abort, or quarantine and keep going.
    text::DirectoryCorpusOptions dopts;
    dopts.fault_policy = fault_policy;
    if (fault_profile.Enabled()) {
      dopts.retry = RetryPolicy{};
      dopts.fault_injector = &fault_injector;
    }
    QuarantineList dir_quarantine;
    auto loaded = text::ReadCorpusFromDirectory(flags.GetString("dir"), dopts,
                                                &dir_quarantine);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    corpus = std::move(loaded).value();
    std::printf("loaded %zu documents from %s\n", corpus.size(),
                flags.GetString("dir").c_str());
    if (!dir_quarantine.empty()) {
      std::printf("%s", core::FormatFaultSummary(
                            dir_quarantine,
                            corpus.size() + dir_quarantine.size(), 0)
                            .c_str());
    }
  } else {
    text::CorpusProfile profile;
    profile.name = "clustering-demo";
    profile.num_documents = static_cast<uint64_t>(flags.GetInt("docs"));
    profile.target_bytes = profile.num_documents * 2500;
    profile.target_distinct_words =
        static_cast<uint64_t>(flags.GetInt("vocab"));
    corpus = text::SynthCorpusGenerator(profile).Generate();
  }
  if (!text::WriteCorpusPacked(corpus, &corpus_disk, "demo.pack").ok()) {
    return 1;
  }

  parallel::SimulatedExecutor exec(
      static_cast<int>(flags.GetInt("threads")),
      parallel::MachineModel::Default());
  corpus_disk.set_executor(&exec);

  PhaseTimer phases;
  ops::ExecContext ctx;
  ctx.executor = &exec;
  ctx.corpus_disk = &corpus_disk;
  ctx.phases = &phases;
  ctx.fault_policy = fault_policy;
  ctx.no_prune = flags.GetBool("no-prune");

  auto reader = io::PackedCorpusReader::Open(&corpus_disk, "demo.pack");
  if (!reader.ok()) return 1;
  // Faults attach after Open so injection hits the CRC-protected document
  // reads; recovery (retries + quarantine) then follows --fault-policy.
  if (fault_profile.Enabled()) {
    corpus_disk.set_fault_injector(&fault_injector);
    corpus_disk.set_retry_policy(RetryPolicy{});
  }
  ops::KMeansOptions kopts;
  kopts.k = static_cast<int>(flags.GetInt("clusters"));
  kopts.max_iterations = 30;

  std::vector<std::string> terms;
  ops::KMeansResult kresult;
  if (mem_budget_bytes > 0) {
    // Semi-external pipeline: the corpus streams through bounded windows
    // and the sparse matrix never exists; assignments and centroids are
    // bit-identical to the in-memory path below.
    ctx.mem_budget_bytes = mem_budget_bytes;
    ops::StreamingOptions sopts;
    sopts.window_bytes = mem_budget_bytes / 2;
    auto model = ops::StreamingTfidfFit(ctx, *reader, {}, sopts);
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
      return 1;
    }
    std::printf("TF/IDF (streamed, %llu KiB windows): %zu documents x %zu "
                "terms, df table %llu KiB\n",
                static_cast<unsigned long long>(sopts.window_bytes / 1024),
                model->num_docs, model->scorer.vocabulary_size(),
                static_cast<unsigned long long>(model->dict_bytes / 1024));
    if (fault_profile.Enabled()) {
      std::printf("%s", core::FormatFaultSummary(model->quarantine,
                                                 model->num_docs,
                                                 corpus_disk.total_retries())
                            .c_str());
    }
    auto clusters =
        ops::StreamingSparseKMeans(ctx, *model, *reader, kopts, sopts);
    if (!clusters.ok()) {
      std::fprintf(stderr, "%s\n", clusters.status().ToString().c_str());
      return 1;
    }
    terms = model->scorer.terms();
    kresult = std::move(*clusters);
  } else {
    auto tfidf = ops::TfidfInMemory(ctx, *reader);
    if (!tfidf.ok()) {
      std::fprintf(stderr, "%s\n", tfidf.status().ToString().c_str());
      return 1;
    }
    std::printf("TF/IDF: %zu documents x %zu terms, %llu nonzeros, "
                "dictionaries %llu KiB\n",
                tfidf->matrix.num_rows(), tfidf->terms.size(),
                static_cast<unsigned long long>(tfidf->matrix.TotalNnz()),
                static_cast<unsigned long long>(tfidf->dict_bytes / 1024));
    if (fault_profile.Enabled()) {
      std::printf("%s", core::FormatFaultSummary(tfidf->quarantine,
                                                 tfidf->matrix.num_rows(),
                                                 corpus_disk.total_retries())
                            .c_str());
    }
    auto clusters = ops::SparseKMeans(ctx, tfidf->matrix, kopts);
    if (!clusters.ok()) {
      std::fprintf(stderr, "%s\n", clusters.status().ToString().c_str());
      return 1;
    }
    terms = std::move(tfidf->terms);
    kresult = std::move(*clusters);
  }

  const uint64_t kernels_total = kresult.distance_kernels_evaluated +
                                 kresult.distance_kernels_skipped;
  std::printf("K-means: %d iterations, %sconverged, inertia %.4f\n"
              "         %llu of %llu distance kernels pruned (%.1f%%)\n\n",
              kresult.iterations, kresult.converged ? "" : "not ",
              kresult.inertia,
              static_cast<unsigned long long>(
                  kresult.distance_kernels_skipped),
              static_cast<unsigned long long>(kernels_total),
              kernels_total > 0
                  ? 100.0 * static_cast<double>(
                                kresult.distance_kernels_skipped) /
                        static_cast<double>(kernels_total)
                  : 0.0);

  // Top terms per cluster: the highest-weight centroid coordinates.
  const int top = static_cast<int>(flags.GetInt("top_terms"));
  for (int c = 0; c < kopts.k; ++c) {
    size_t members = 0;
    for (uint32_t a : kresult.assignment) members += (a == uint32_t(c));
    const auto& centroid = kresult.centroids[static_cast<size_t>(c)];
    std::vector<std::pair<float, uint32_t>> weights;
    for (uint32_t d = 0; d < centroid.size(); ++d) {
      if (centroid[d] > 0) weights.push_back({centroid[d], d});
    }
    size_t keep = std::min<size_t>(static_cast<size_t>(top), weights.size());
    std::partial_sort(weights.begin(), weights.begin() + keep, weights.end(),
                      [](const auto& a, const auto& b) {
                        return a.first > b.first;
                      });
    std::printf("cluster %d (%zu docs):", c, members);
    for (size_t i = 0; i < keep; ++i) {
      std::printf(" %s(%.3f)", terms[weights[i].second].c_str(),
                  weights[i].first);
    }
    std::printf("\n");
  }

  std::printf("\nphases (virtual seconds on %lld workers):\n",
              static_cast<long long>(flags.GetInt("threads")));
  for (const auto& phase : phases.phases()) {
    std::printf("  %-10s %.4f s\n", phase.name.c_str(), phase.seconds);
  }

  io::RemoveDirRecursive(*workdir);
  return 0;
}
