// Figure 1 — "Self-relative performance scalability of the K-Means
// operator": speedup vs thread count on both corpora, clustering documents
// into 8 clusters by their normalized TF/IDF scores.
//
// Paper shape: NSF Abstracts reaches ~8x at 16-20 threads; Mix saturates
// around 2.5x. The limiter is the serial centroid merge, whose cost grows
// with workers x clusters x vocabulary while the parallel assignment work
// grows with documents — Mix has few documents relative to its vocabulary.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/report.h"
#include "io/packed_corpus.h"
#include "ops/kmeans.h"
#include "ops/tfidf.h"
#include "parallel/executor.h"

namespace hpa::bench {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags("fig1_kmeans_scalability",
                "regenerates Figure 1 (K-means self-relative speedup)");
  AddCommonFlags(flags);
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  PrintBanner("Figure 1: K-means self-relative speedup", flags);

  auto env_or = BenchEnv::Create(flags);
  if (!env_or.ok()) {
    std::fprintf(stderr, "%s\n", env_or.status().ToString().c_str());
    return 1;
  }
  auto& env = *env_or;
  auto threads_or = ParseIntList(flags.GetString("threads"));
  if (!threads_or.ok()) {
    std::fprintf(stderr, "%s\n", threads_or.status().ToString().c_str());
    return 2;
  }

  // One JSON row per (corpus, threads) point, pruning telemetry included.
  struct JsonRow {
    std::string corpus;
    int threads = 0;
    double seconds = 0.0;
    uint64_t kernels_evaluated = 0;
    uint64_t kernels_skipped = 0;
  };
  std::vector<JsonRow> json_rows;

  std::vector<core::SpeedupSeries> series;
  for (const text::CorpusProfile& base :
       {text::CorpusProfile::NsfAbstracts(), text::CorpusProfile::Mix()}) {
    text::CorpusProfile profile = env->ScaleProfile(base);
    auto rel = env->EnsureCorpus(profile);
    if (!rel.ok()) {
      std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
      return 1;
    }

    // Prepare the normalized TF/IDF matrix once (setup, untimed).
    env->SetExecutor(nullptr);
    parallel::SerialExecutor setup_exec;
    ops::ExecContext setup_ctx;
    setup_ctx.executor = &setup_exec;
    setup_ctx.corpus_disk = env->corpus_disk();
    auto reader = io::PackedCorpusReader::Open(env->corpus_disk(), *rel);
    if (!reader.ok()) {
      std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
      return 1;
    }
    auto tfidf = ops::TfidfInMemory(setup_ctx, *reader);
    if (!tfidf.ok()) {
      std::fprintf(stderr, "%s\n", tfidf.status().ToString().c_str());
      return 1;
    }
    std::printf("\n[%s] %zu docs, vocabulary %zu, %llu nonzeros\n",
                profile.name.c_str(), tfidf->matrix.num_rows(),
                tfidf->terms.size(),
                static_cast<unsigned long long>(tfidf->matrix.TotalNnz()));

    core::SpeedupSeries curve;
    curve.label = base.name;
    ops::KMeansOptions kopts;
    kopts.k = static_cast<int>(flags.GetInt("clusters"));
    kopts.max_iterations = static_cast<int>(flags.GetInt("kmeans_iters"));
    kopts.stop_on_convergence = false;  // fixed work per configuration

    for (int threads : *threads_or) {
      auto exec = MakeBenchExecutor(flags, threads);
      if (exec == nullptr) {
        std::fprintf(stderr, "unknown --executor\n");
        return 2;
      }
      env->SetExecutor(exec.get());
      double best = 0.0;
      uint64_t kernels_evaluated = 0, kernels_skipped = 0;
      for (int rep = 0; rep < flags.GetInt("repeats"); ++rep) {
        PhaseTimer phases;
        ops::ExecContext ctx;
        ctx.serial_merge = flags.GetBool("serial-merge");
        ctx.no_prune = flags.GetBool("no-prune");
        ctx.executor = exec.get();
        ctx.phases = &phases;
        auto result = ops::SparseKMeans(ctx, tfidf->matrix, kopts);
        if (!result.ok()) {
          std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
          return 1;
        }
        double t = phases.Seconds("kmeans");
        if (rep == 0 || t < best) best = t;
        kernels_evaluated = result->distance_kernels_evaluated;
        kernels_skipped = result->distance_kernels_skipped;
      }
      curve.points.push_back({threads, best});
      json_rows.push_back({base.name, threads, best, kernels_evaluated,
                           kernels_skipped});
      env->SetExecutor(nullptr);
    }
    const uint64_t evaluated = json_rows.back().kernels_evaluated;
    const uint64_t skipped = json_rows.back().kernels_skipped;
    const double total = static_cast<double>(evaluated + skipped);
    std::printf("  pruning: %llu of %llu distance kernels skipped (%.1f%%)\n",
                static_cast<unsigned long long>(skipped),
                static_cast<unsigned long long>(evaluated + skipped),
                total > 0 ? 100.0 * static_cast<double>(skipped) / total
                          : 0.0);
    series.push_back(std::move(curve));
  }

  std::printf("\n%s\n", core::FormatSpeedupTable(series).c_str());
  std::printf("paper (16 threads, full-scale corpora): NSF Abstracts ~8x, "
              "Mix ~2.5x;\nexpected shape: NSF scales further than Mix, both "
              "saturate as the serial\ncentroid merge grows with the worker "
              "count.\n");

  // Machine-readable tail for driver scripts, pruning counters included.
  std::string json = StrFormat(
      "{\"bench\":\"fig1_kmeans_scalability\",\"prune\":%s,\"rows\":[",
      flags.GetBool("no-prune") ? "false" : "true");
  for (size_t i = 0; i < json_rows.size(); ++i) {
    const JsonRow& row = json_rows[i];
    if (i > 0) json += ",";
    json += StrFormat(
        "{\"corpus\":\"%s\",\"threads\":%d,\"seconds\":%.6f,"
        "\"distance_kernels_evaluated\":%llu,"
        "\"distance_kernels_skipped\":%llu}",
        row.corpus.c_str(), row.threads, row.seconds,
        static_cast<unsigned long long>(row.kernels_evaluated),
        static_cast<unsigned long long>(row.kernels_skipped));
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace hpa::bench

int main(int argc, char** argv) { return hpa::bench::Run(argc, argv); }
