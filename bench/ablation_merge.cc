// Ablation — serial vs parallel sharded df-merge (the word-count
// reduction). The paper's word count ends with a fold of every worker's
// document-frequency table into one global dictionary; that fold is serial
// in the paper-era structure and grows with the vocabulary while the
// parallel counting work grows with documents — a classic Amdahl term.
// This harness measures the "df-merge" phase with the serial fold
// (ctx.serial_merge) against the hash-partitioned parallel merge, across
// worker counts and all three per-document dictionary backends, and
// verifies that both paths produce byte-identical dictionaries.
//
// Output ends with one machine-readable JSON document (line starting with
// '{') for driver scripts; exits non-zero if any result mismatch is found.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "containers/dictionary.h"
#include "core/report.h"
#include "ops/word_count.h"
#include "parallel/executor.h"
#include "text/synth_corpus.h"

namespace hpa::bench {
namespace {

/// One measured configuration.
struct Row {
  std::string backend;
  int threads = 0;
  double serial_s = 0;
  double sharded_s = 0;
  size_t vocab = 0;
  uint64_t tokens = 0;
  bool identical = false;
};

/// Result fingerprint of one word-count run: every (word, df) entry in
/// sorted order. Equal iff the merged dictionaries agree byte-for-byte at
/// the content level — the guarantee that must hold across merge schedules
/// AND worker counts. (Hash-table slot layouts may differ between two
/// *separate runs* because the executor's task-to-worker assignment — and
/// hence the per-worker partials — is timing-dependent; the merge-order
/// structural identity for fixed partials is covered by the determinism
/// tests, which merge one set of partials through both paths.)
struct Fingerprint {
  std::string canonical;
  uint64_t tokens = 0;
  size_t vocab = 0;
};

int Run(int argc, char** argv) {
  FlagSet flags("ablation_merge",
                "serial vs parallel sharded df-merge, all dict backends");
  AddCommonFlags(flags);
  flags.DefineInt("merge_docs", 6000, "synthetic corpus document count");
  flags.DefineInt("merge_vocab", 120000,
                  "synthetic corpus distinct-word count (the merge is "
                  "vocabulary-bound, so this sets the merge size)");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  PrintBanner("Ablation: serial vs sharded parallel df-merge", flags);

  auto threads_or = ParseIntList(flags.GetString("threads"));
  if (!threads_or.ok()) {
    std::fprintf(stderr, "%s\n", threads_or.status().ToString().c_str());
    return 2;
  }
  const int repeats = static_cast<int>(flags.GetInt("repeats"));

  // A vocabulary-heavy corpus: the merge cost is proportional to distinct
  // words, not tokens, so the profile pushes the distinct-word count (the
  // default is well past the Table-1 corpora relative to its byte size).
  text::CorpusProfile profile;
  profile.name = "merge-synth";
  profile.num_documents = static_cast<uint64_t>(flags.GetInt("merge_docs"));
  profile.target_distinct_words =
      static_cast<uint64_t>(flags.GetInt("merge_vocab"));
  profile.target_bytes = profile.target_distinct_words * 140;
  text::Corpus corpus = text::SynthCorpusGenerator(profile).Generate();
  std::printf("\n[%s] %zu docs, %llu distinct words requested\n\n",
              profile.name.c_str(), corpus.size(),
              static_cast<unsigned long long>(profile.target_distinct_words));

  // Runs word count once and fingerprints the merged dictionary.
  auto run_once = [&](containers::DictBackend backend, int threads,
                      bool serial_merge, double* merge_s) -> Fingerprint {
    Fingerprint fp;
    containers::DispatchDictBackend(backend, [&](auto tag) {
      auto exec = MakeBenchExecutor(flags, threads);
      if (exec == nullptr) {
        std::fprintf(stderr, "unknown --executor\n");
        std::exit(2);
      }
      PhaseTimer phases;
      ops::ExecContext ctx;
      ctx.executor = exec.get();
      ctx.phases = &phases;
      ctx.serial_merge = serial_merge;
      auto result = ops::RunWordCountInMemory<tag()>(ctx, corpus);
      *merge_s = phases.Seconds("df-merge");
      fp.tokens = result.total_tokens;
      fp.vocab = result.doc_freq.size();
      std::vector<std::string> lines;
      lines.reserve(fp.vocab);
      result.doc_freq.ForEach(
          [&](const std::string& word, const ops::TermStat& stat) {
            lines.push_back(StrFormat("%s %u\n", word.c_str(), stat.df));
          });
      std::sort(lines.begin(), lines.end());
      for (const std::string& line : lines) fp.canonical += line;
    });
    return fp;
  };

  std::vector<Row> rows;
  bool all_identical = true;
  for (containers::DictBackend backend : containers::kAllDictBackends) {
    std::string canonical_ref;  // contents must agree across worker counts
    for (int threads : *threads_or) {
      Row row;
      row.backend = std::string(containers::DictBackendName(backend));
      row.threads = threads;
      Fingerprint serial_fp, sharded_fp;
      for (int rep = 0; rep < repeats; ++rep) {
        double t = 0;
        serial_fp = run_once(backend, threads, /*serial_merge=*/true, &t);
        if (rep == 0 || t < row.serial_s) row.serial_s = t;
        sharded_fp = run_once(backend, threads, /*serial_merge=*/false, &t);
        if (rep == 0 || t < row.sharded_s) row.sharded_s = t;
      }
      row.vocab = sharded_fp.vocab;
      row.tokens = sharded_fp.tokens;
      if (canonical_ref.empty()) canonical_ref = sharded_fp.canonical;
      row.identical = serial_fp.canonical == sharded_fp.canonical &&
                      serial_fp.tokens == sharded_fp.tokens &&
                      sharded_fp.canonical == canonical_ref;
      all_identical = all_identical && row.identical;
      rows.push_back(std::move(row));
    }
  }

  std::vector<std::vector<std::string>> table;
  table.push_back({"backend", "threads", "serial merge", "sharded merge",
                   "speedup", "identical"});
  double speedup_at_8 = 0;
  for (const Row& row : rows) {
    double speedup = row.sharded_s > 0 ? row.serial_s / row.sharded_s : 0;
    if (row.threads == 8) speedup_at_8 = std::max(speedup_at_8, speedup);
    table.push_back({row.backend, std::to_string(row.threads),
                     HumanDuration(row.serial_s),
                     HumanDuration(row.sharded_s),
                     StrFormat("%.2fx", speedup),
                     row.identical ? "yes" : "NO (bug!)"});
  }
  std::printf("%s\n", core::FormatTable(table).c_str());
  std::printf("expected shape: the serial fold is flat in the worker count "
              "while the sharded\nmerge divides the same vocabulary-bound "
              "work across workers (>=3x at 8).\nbest speedup at 8 workers: "
              "%.2fx\n\n",
              speedup_at_8);

  // Machine-readable tail for driver scripts.
  std::string json = "{\"bench\":\"ablation_merge\",\"distinct_words\":" +
                     std::to_string(profile.target_distinct_words) +
                     ",\"identical\":" +
                     std::string(all_identical ? "true" : "false") +
                     ",\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (i > 0) json += ",";
    json += StrFormat(
        "{\"backend\":\"%s\",\"threads\":%d,\"serial_s\":%.6f,"
        "\"sharded_s\":%.6f,\"speedup\":%.3f,\"vocab\":%zu,"
        "\"tokens\":%llu,\"identical\":%s}",
        row.backend.c_str(), row.threads, row.serial_s, row.sharded_s,
        row.sharded_s > 0 ? row.serial_s / row.sharded_s : 0.0, row.vocab,
        static_cast<unsigned long long>(row.tokens),
        row.identical ? "true" : "false");
  }
  json += "]}";
  std::printf("%s\n", json.c_str());

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: serial and sharded merges disagree\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hpa::bench

int main(int argc, char** argv) { return hpa::bench::Run(argc, argv); }
