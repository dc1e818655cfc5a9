// Figure 4 — execution time of the merged TF/IDF -> K-Means workflow on
// the Mix input using std::unordered_map (u-map, pre-sized to 4K entries
// per document, as in the paper) versus std::map for the word-count
// dictionaries, at 1/4/8/12/16 threads, with phase breakdown
// (input+wc, df-merge, transform, kmeans, output).
//
// Paper shape: input+wc is faster with the map (hash inserts pay resize +
// memory pressure); transform is faster with the u-map at 1 thread (O(1)
// lookups) but scales only ~3.4x vs ~6.1x with the map, because the
// u-map's footprint (12.8 GB vs 420 MB at full scale) makes the transform
// bandwidth-bound. §3.4's summary claim: 3.4x end-to-end by swapping one
// standard data structure for another.

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/report.h"
#include "io/packed_corpus.h"
#include "ops/kmeans.h"
#include "ops/tfidf.h"
#include "parallel/executor.h"

namespace hpa::bench {
namespace {

struct RunOutcome {
  PhaseTimer phases;
  uint64_t dict_bytes = 0;
};

StatusOr<RunOutcome> RunMergedWorkflow(BenchEnv& env, const FlagSet& flags,
                                       const std::string& corpus_rel,
                                       containers::DictBackend backend,
                                       size_t presize, int threads) {
  auto exec = MakeBenchExecutor(flags, threads);
  if (exec == nullptr) return Status::InvalidArgument("unknown --executor");
  env.SetExecutor(exec.get());

  RunOutcome out;
  ops::ExecContext ctx;
  ctx.serial_merge = flags.GetBool("serial-merge");
  ctx.executor = exec.get();
  ctx.corpus_disk = env.corpus_disk();
  ctx.scratch_disk = env.scratch_disk();
  ctx.dict_backend = backend;
  ctx.per_doc_dict_presize = presize;
  ctx.phases = &out.phases;

  HPA_ASSIGN_OR_RETURN(auto reader, io::PackedCorpusReader::Open(
                                        env.corpus_disk(), corpus_rel));
  HPA_ASSIGN_OR_RETURN(auto tfidf, ops::TfidfInMemory(ctx, reader));
  out.dict_bytes = tfidf.dict_bytes;

  ops::KMeansOptions kopts;
  kopts.k = static_cast<int>(flags.GetInt("clusters"));
  kopts.max_iterations = static_cast<int>(flags.GetInt("kmeans_iters"));
  kopts.stop_on_convergence = false;
  HPA_ASSIGN_OR_RETURN(auto clusters,
                       ops::SparseKMeans(ctx, tfidf.matrix, kopts));
  HPA_RETURN_IF_ERROR(ops::WriteAssignmentsCsv(
      ctx, tfidf.doc_names, clusters.assignment, "fig4_clusters.csv"));
  return out;
}

int Run(int argc, char** argv) {
  FlagSet flags("fig4_data_structures",
                "regenerates Figure 4 (u-map vs map dictionaries)");
  AddCommonFlags(flags);
  flags.DefineInt("presize", 4096,
                  "per-document table pre-size for hash backends (paper: "
                  "4K)");
  flags.DefineString("corpus", "mix", "corpus: mix | nsf");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  PrintBanner("Figure 4: u-map vs map dictionary choice", flags);

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

  text::CorpusProfile base = flags.GetString("corpus") == "nsf"
                                 ? text::CorpusProfile::NsfAbstracts()
                                 : text::CorpusProfile::Mix();
  text::CorpusProfile profile = env->ScaleProfile(base);
  auto rel = env->EnsureCorpus(profile);
  if (!rel.ok()) {
    std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
    return 1;
  }

  struct Variant {
    containers::DictBackend backend;
    size_t presize;
    const char* label;
  };
  const Variant variants[] = {
      {containers::DictBackend::kStdUnorderedMap,
       static_cast<size_t>(flags.GetInt("presize")), "u-map"},
      {containers::DictBackend::kStdMap, 0, "map"},
  };

  std::vector<core::BreakdownColumn> columns;
  uint64_t umap_bytes = 0, map_bytes = 0;
  double umap_transform_1 = 0, umap_transform_hi = 0;
  double map_transform_1 = 0, map_transform_hi = 0;
  int hi_threads = (*threads_or).back();

  for (int threads : *threads_or) {
    for (const Variant& v : variants) {
      auto outcome =
          RunMergedWorkflow(*env, flags, *rel, v.backend, v.presize, threads);
      if (!outcome.ok()) {
        std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
        return 1;
      }
      core::BreakdownColumn col;
      col.label = StrFormat("%s@%d", v.label, threads);
      col.phases = outcome->phases;
      columns.push_back(std::move(col));

      bool is_umap = v.backend == containers::DictBackend::kStdUnorderedMap;
      if (is_umap) umap_bytes = outcome->dict_bytes;
      if (!is_umap) map_bytes = outcome->dict_bytes;
      double transform = outcome->phases.Seconds("transform");
      if (threads == 1) (is_umap ? umap_transform_1 : map_transform_1) =
          transform;
      if (threads == hi_threads) {
        (is_umap ? umap_transform_hi : map_transform_hi) = transform;
      }
    }
  }

  std::printf("\n[%s] merged workflow breakdown (seconds, executor clock)\n\n",
              profile.name.c_str());
  std::printf("%s\n",
              core::FormatPhaseBreakdown(
                  columns,
                  {"input+wc", "df-merge", "transform", "kmeans", "output"})
                  .c_str());
  std::printf("dictionary footprint: u-map %s vs map %s (paper at full "
              "scale: 12.8 GB vs 420 MB)\n",
              HumanBytes(umap_bytes).c_str(), HumanBytes(map_bytes).c_str());
  if (umap_transform_hi > 0 && map_transform_hi > 0) {
    std::printf("transform scaling %d->%d threads: u-map %.2fx, map %.2fx "
                "(paper: 3.4x vs 6.1x on 16 threads)\n",
                1, hi_threads, umap_transform_1 / umap_transform_hi,
                map_transform_1 / map_transform_hi);
  }
  return 0;
}

}  // namespace
}  // namespace hpa::bench

int main(int argc, char** argv) { return hpa::bench::Run(argc, argv); }
