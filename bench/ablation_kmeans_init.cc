// Ablation — K-means centroid initialization: the paper-era stratified
// random seeding vs k-means++ (an extension beyond the paper). Reports
// seeding cost, iterations to convergence, and final inertia across
// several seeds: ++ pays extra passes up front to converge faster and to
// better optima, which matters exactly when iterations are the expensive
// part (Figure 1's operator).

#include <cstdio>

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
  FlagSet flags("ablation_kmeans_init",
                "stratified vs k-means++ initialization");
  AddCommonFlags(flags);
  flags.DefineString("seeds", "1,2,3,4,5", "K-means seeds to average over");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  PrintBanner("Ablation: K-means initialization (stratified vs k-means++)",
              flags);

  auto env_or = BenchEnv::Create(flags);
  if (!env_or.ok()) {
    std::fprintf(stderr, "%s\n", env_or.status().ToString().c_str());
    return 1;
  }
  auto& env = *env_or;

  text::CorpusProfile profile =
      env->ScaleProfile(text::CorpusProfile::Mix());
  auto rel = env->EnsureCorpus(profile);
  if (!rel.ok()) {
    std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
    return 1;
  }
  env->SetExecutor(nullptr);
  parallel::SerialExecutor setup_exec;
  ops::ExecContext setup_ctx;
  setup_ctx.executor = &setup_exec;
  setup_ctx.corpus_disk = env->corpus_disk();
  auto reader = io::PackedCorpusReader::Open(env->corpus_disk(), *rel);
  if (!reader.ok()) return 1;
  auto tfidf = ops::TfidfInMemory(setup_ctx, *reader);
  if (!tfidf.ok()) {
    std::fprintf(stderr, "%s\n", tfidf.status().ToString().c_str());
    return 1;
  }

  auto seeds_or = ParseIntList(flags.GetString("seeds"));
  if (!seeds_or.ok()) {
    std::fprintf(stderr, "%s\n", seeds_or.status().ToString().c_str());
    return 2;
  }

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"init", "seed", "iterations", "converged", "inertia",
                  "kmeans time"});

  struct Summary {
    double iters = 0, inertia = 0, time = 0;
    int runs = 0;
  } summary[3];

  const char* kVariantNames[] = {"stratified", "k-means++", "mini-batch"};
  for (int64_t seed : *seeds_or) {
    for (int variant = 0; variant < 3; ++variant) {
      parallel::SerialExecutor exec;
      PhaseTimer phases;
      ops::ExecContext ctx;
      ctx.serial_merge = flags.GetBool("serial-merge");
      ctx.executor = &exec;
      ctx.phases = &phases;
      ops::KMeansOptions kopts;
      kopts.k = static_cast<int>(flags.GetInt("clusters"));
      kopts.max_iterations = 50;
      kopts.seed = static_cast<uint64_t>(seed);
      kopts.init = variant == 1 ? ops::KMeansInit::kPlusPlus
                                : ops::KMeansInit::kStratified;
      StatusOr<ops::KMeansResult> result =
          Status::Internal("variant never ran");
      double seconds = 0.0;
      if (variant < 2) {
        result = ops::SparseKMeans(ctx, tfidf->matrix, kopts);
        seconds = phases.Seconds("kmeans");
      } else {
        // Mini-batch comparison point: 150 batches of ~1% of the corpus —
        // far less per-iteration work than a full Lloyd pass.
        kopts.max_iterations = 150;
        result = ops::MiniBatchKMeans(ctx, tfidf->matrix, kopts,
                                      tfidf->matrix.num_rows() / 100 + 8);
        seconds = phases.Seconds("kmeans-minibatch");
      }
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      rows.push_back({kVariantNames[variant], std::to_string(seed),
                      std::to_string(result->iterations),
                      result->converged ? "yes" : "no",
                      StrFormat("%.4f", result->inertia),
                      HumanDuration(seconds)});
      summary[variant].iters += result->iterations;
      summary[variant].inertia += result->inertia;
      summary[variant].time += seconds;
      summary[variant].runs += 1;
    }
  }

  for (int variant = 0; variant < 3; ++variant) {
    Summary& sm = summary[variant];
    rows.push_back({std::string(kVariantNames[variant]) + " (mean)", "-",
                    StrFormat("%.1f", sm.iters / sm.runs), "-",
                    StrFormat("%.4f", sm.inertia / sm.runs),
                    HumanDuration(sm.time / sm.runs)});
  }

  std::printf("\n%s\n", core::FormatTable(rows).c_str());
  std::printf("reading: k-means++ pays k extra seeding passes to start from "
              "well-spread\ncentroids. On strongly clustered data it cuts "
              "iterations and inertia; on\nweakly clustered data (like "
              "homogeneous Zipf text) the two are comparable —\nwhich is "
              "itself the point: the initialization choice is "
              "workload-dependent.\n");
  return 0;
}

}  // namespace
}  // namespace hpa::bench

int main(int argc, char** argv) { return hpa::bench::Run(argc, argv); }
