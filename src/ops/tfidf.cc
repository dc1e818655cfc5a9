#include "ops/tfidf.h"

#include <algorithm>
#include <cmath>

namespace hpa::ops {

namespace tfidf_internal {

std::vector<std::string> AssignTermIds(ExecContext& ctx, InternedWordCount& wc,
                                       const TfidfOptions& options,
                                       std::vector<uint32_t>* dfs) {
  const uint32_t max_df = static_cast<uint32_t>(
      options.max_df_ratio * static_cast<double>(wc.num_documents()));
  std::vector<std::string> terms;
  ctx.executor->RunSerial(parallel::WorkHint{0, "term-ids"}, [&] {
    // Vocabulary id -> kept id: the merged vocabulary is already sorted,
    // so the kept terms keep their relative order.
    std::vector<uint32_t> kept(wc.terms.size(), kPrunedTermId);
    for (size_t v = 0; v < wc.terms.size(); ++v) {
      const uint32_t df = wc.dfs[v];
      if (df < options.min_df || df > max_df) continue;
      kept[v] = static_cast<uint32_t>(terms.size());
      terms.push_back(wc.terms[v]);
      if (dfs != nullptr) dfs->push_back(df);
    }
    wc.term_ids.resize(wc.remap.size());
    for (size_t w = 0; w < wc.remap.size(); ++w) {
      wc.term_ids[w].resize(wc.remap[w].size());
      for (size_t local = 0; local < wc.remap[w].size(); ++local) {
        wc.term_ids[w][local] = kept[wc.remap[w][local]];
      }
    }
  });
  return terms;
}

std::vector<double> IdfTable(const std::vector<uint32_t>& dfs,
                             size_t n_docs) {
  const double n = static_cast<double>(n_docs);
  std::vector<double> idf(dfs.size());
  for (size_t id = 0; id < dfs.size(); ++id) {
    idf[id] = std::log(n / static_cast<double>(dfs[id]));
  }
  return idf;
}

void BuildTfidfRow(std::vector<TermCount>& run, const std::vector<double>& idf,
                   const TfidfOptions& options, containers::SparseVector& row) {
  std::sort(run.begin(), run.end(),
            [](const TermCount& a, const TermCount& b) { return a.id < b.id; });
  row.Clear();
  row.Reserve(run.size());
  for (const TermCount& t : run) {
    const double tf = static_cast<double>(t.tf);
    const double weight = options.sublinear_tf ? 1.0 + std::log(tf) : tf;
    row.PushBack(t.id, static_cast<float>(weight * idf[t.id]));
  }
  if (options.normalize) row.NormalizeL2();
}

}  // namespace tfidf_internal

StatusOr<TfidfResult> TfidfInMemory(ExecContext& ctx,
                                    const io::PackedCorpusReader& corpus,
                                    const TfidfOptions& options) {
  if (ctx.dict_backend == containers::DictBackend::kInterned) {
    HPA_ASSIGN_OR_RETURN(auto wc, RunInternedWordCount(ctx, corpus));
    return tfidf_internal::Transform(ctx, wc, options);
  }
  return containers::DispatchDictBackend(
      ctx.dict_backend,
      [&](auto tag) { return TfidfInMemoryT<tag()>(ctx, corpus, options); });
}

Status TfidfToArff(ExecContext& ctx, const io::PackedCorpusReader& corpus,
                   const std::string& arff_path,
                   const TfidfOptions& options) {
  if (ctx.dict_backend == containers::DictBackend::kInterned) {
    HPA_ASSIGN_OR_RETURN(auto wc, RunInternedWordCount(ctx, corpus));
    return tfidf_internal::WriteArff(ctx, wc, arff_path, options);
  }
  return containers::DispatchDictBackend(ctx.dict_backend, [&](auto tag) {
    return TfidfToArffT<tag()>(ctx, corpus, arff_path, options);
  });
}

StatusOr<containers::SparseMatrix> ReadTfidfArff(
    ExecContext& ctx, const std::string& arff_path) {
  StatusOr<containers::SparseMatrix> result =
      Status::Internal("kmeans-input never ran");

  // A sharded intermediate announces itself by its manifest (the commit
  // record); read it back with the parallel multi-shard path, honoring
  // the run's fault policy. Otherwise fall through to the serial
  // single-file parse the format classically demands.
  if (ctx.scratch_disk != nullptr &&
      ctx.scratch_disk->Exists(arff_path + ".manifest")) {
    ctx.TimePhase("kmeans-input", [&] {
      auto sharded = io::ReadShardedArff(ctx.scratch_disk, ctx.executor,
                                         arff_path, ctx.fault_policy);
      if (!sharded.ok()) {
        result = sharded.status();
        return;
      }
      if (ctx.quarantine != nullptr) {
        ctx.quarantine->MergeFrom(std::move(sharded->quarantine));
      }
      result = std::move(sharded->data);
    });
    return result;
  }

  ctx.TimePhase("kmeans-input", [&] {
    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-input"}, [&] {
      auto rel = io::ReadSparseArff(ctx.scratch_disk, arff_path);
      if (!rel.ok()) {
        result = rel.status();
      } else {
        result = std::move(rel->data);
      }
    });
  });
  return result;
}

}  // namespace hpa::ops
