#include "core/cost_model.h"

#include <algorithm>
#include <cmath>

namespace hpa::core {

DictCostParams DictCostParams::Defaults(containers::DictBackend backend,
                                        uint64_t per_doc_presize) {
  using containers::DictBackend;
  DictCostParams p;
  switch (backend) {
    case DictBackend::kStdMap:
      // Red-black tree: pointer-chasing inserts/lookups, O(log n), but
      // compact nodes and no resize storms.
      p.insert_ns = 260.0;
      p.df_tick_ns = p.insert_ns;
      p.lookup_ns = 230.0;
      p.bytes_per_entry = 80.0;
      p.fixed_table_bytes = 64.0;
      p.sorted_iteration = true;
      break;
    case DictBackend::kStdUnorderedMap:
      // Chained hash: O(1) lookups, but inserts pay rehash amortization and
      // the bucket arrays (especially pre-sized ones) bloat memory — the
      // paper's u-map observations.
      p.insert_ns = 280.0;
      p.df_tick_ns = p.insert_ns;
      p.lookup_ns = 90.0;
      p.bytes_per_entry = 56.0;
      p.fixed_table_bytes =
          128.0 + static_cast<double>(per_doc_presize) * 8.0;
      p.sorted_iteration = false;
      break;
    case DictBackend::kOpenHash:
      // Flat open addressing: cheap probes, inline slots; slot array is
      // ~2x entries at max load.
      p.insert_ns = 120.0;
      p.df_tick_ns = p.insert_ns;
      p.lookup_ns = 60.0;
      p.bytes_per_entry = 96.0;  // inline slots incl. empty headroom
      // Reserve(n) doubles to keep load <= 7/8, at ~48 B per inline slot.
      p.fixed_table_bytes =
          64.0 + static_cast<double>(per_doc_presize) * 96.0;
      p.sorted_iteration = false;
      break;
    case DictBackend::kInterned:
      // Worker-local interning: one probe of a cache-resident vocabulary
      // per token, an array remap per document entry in the transform.
      // Measured, not paper-era: bench/micro_dictionary on a 4-vCPU Xeon
      // VM, scaled to this table's era by the open-hash rows of the same
      // runs (EXPERIMENTS.md). BM_InternZipfTokens, which times the whole
      // count (df ticks and the merge included), read 1.77x the open-hash
      // insert; BM_RemapInternedRuns read 0.090x the open-hash lookup. A
      // document entry is one 8 B (id, tf) pair; the per-document
      // overhead is its 16 B run locator. Pre-sizing does not apply.
      p.insert_ns = 210.0;
      p.df_tick_ns = 0.0;
      p.lookup_ns = 5.4;
      p.bytes_per_entry = 8.0;
      p.fixed_table_bytes = 16.0;
      p.sorted_iteration = false;
      break;
  }
  return p;
}

PhaseCostEstimate CostModel::Estimate(containers::DictBackend backend,
                                      int workers, uint64_t per_doc_presize,
                                      int output_channels) const {
  if (workers < 1) workers = 1;
  const DictCostParams p = DictCostParams::Defaults(backend, per_doc_presize);
  const double tokens = static_cast<double>(stats_.total_tokens);
  const double docs = static_cast<double>(stats_.documents);
  const double vocab = static_cast<double>(stats_.distinct_words);
  const double doc_entries = docs * stats_.avg_distinct_per_doc;
  const double w = static_cast<double>(workers);

  PhaseCostEstimate e;

  // Dictionary footprint: per-doc tables + the global table.
  e.dict_bytes = docs * p.fixed_table_bytes +
                 (doc_entries + vocab) * p.bytes_per_entry;

  // Bandwidth available to this worker count (same law as the executor).
  double bw_share =
      std::min(1.0, w * machine_.per_worker_bandwidth_fraction);
  double bw = machine_.mem_bandwidth_bytes_per_sec * bw_share;

  // input+wc: every token is one insert; per-doc df ticks (~doc_entries of
  // them) are inserts into the worker df table, except where the token
  // price already covers them (kInterned); each document also pays
  // creation (allocation + zeroing) of its pre-sized table. Parallel over
  // documents, subject to the roofline on the tables being built.
  {
    double table_setup_seconds =
        docs * p.fixed_table_bytes * 0.3e-9;  // ~3 GB/s alloc+memset
    double cpu_seconds =
        (tokens * p.insert_ns + doc_entries * p.df_tick_ns) * 1e-9 +
        table_setup_seconds;
    double bandwidth_seconds = e.dict_bytes / bw;
    e.input_wc_seconds = std::max(cpu_seconds / w, bandwidth_seconds);
  }

  // transform: term-id assignment (serial; free sort for ordered backends)
  // plus one global lookup per per-doc entry, parallel over documents but
  // re-walking every table (roofline over the full dictionary footprint).
  {
    double sort_seconds =
        p.sorted_iteration ? vocab * 30.0e-9
                           : vocab * std::log2(std::max(2.0, vocab)) * 15.0e-9;
    double cpu_seconds = doc_entries * (p.lookup_ns + 60.0) * 1e-9;
    double bandwidth_seconds = e.dict_bytes / bw;
    e.transform_seconds =
        sort_seconds + std::max(cpu_seconds / w, bandwidth_seconds);
  }

  // discrete output: the same scoring work plus formatting (~90ns/score)
  // — disk time comes on top from the disk model. Strictly serial on a
  // single-channel device (the ARFF single-file constraint); with a
  // multi-channel scratch device the operator writes sharded ARFF, so the
  // scoring+formatting pass parallelizes like the transform, under the
  // same roofline.
  {
    double sort_seconds =
        p.sorted_iteration ? vocab * 30.0e-9
                           : vocab * std::log2(std::max(2.0, vocab)) * 15.0e-9;
    double cpu_seconds = doc_entries * (p.lookup_ns + 60.0 + 90.0) * 1e-9;
    if (output_channels > 1) {
      double bandwidth_seconds = e.dict_bytes / bw;
      e.output_seconds =
          sort_seconds + std::max(cpu_seconds / w, bandwidth_seconds);
    } else {
      e.output_seconds = sort_seconds + cpu_seconds;
    }
  }

  return e;
}

double CostModel::PrunedExactFraction(int iteration) {
  if (iteration <= 0) return 1.0;
  // Geometric decay toward a floor: a few percent of documents sit near a
  // cluster boundary and keep failing the bound test no matter how small
  // the drift gets.
  constexpr double kDecay = 0.5;
  constexpr double kFloor = 0.05;
  double f = std::pow(kDecay, static_cast<double>(iteration));
  return f < kFloor ? kFloor : f;
}

double CostModel::EstimateKMeansSeconds(int k, int iterations,
                                        int workers) const {
  if (workers < 1) workers = 1;
  if (k < 1) k = 1;
  if (iterations < 0) iterations = 0;
  const double docs = static_cast<double>(stats_.documents);
  const double nnz = stats_.avg_distinct_per_doc;
  const double vocab = static_cast<double>(stats_.distinct_words);
  // Sparse kernel: one merge-join multiply-add per stored nonzero.
  constexpr double kKernelNsPerNnz = 4.0;
  // Serial merge/finalize: a handful of double ops per (cluster, term).
  constexpr double kMergeNsPerCell = 6.0;
  double seconds = 0.0;
  for (int t = 0; t < iterations; ++t) {
    double f = PrunedExactFraction(t);
    double kernels_per_doc = f * static_cast<double>(k) + (1.0 - f) * 1.0;
    seconds += docs * kernels_per_doc * nnz * kKernelNsPerNnz * 1e-9 /
               static_cast<double>(workers);
    seconds += static_cast<double>(k) * vocab * kMergeNsPerCell * 1e-9;
  }
  return seconds;
}

double CostModel::EstimateNbTrainSeconds(int num_classes, int workers) const {
  if (workers < 1) workers = 1;
  if (num_classes < 1) num_classes = 1;
  const double doc_entries =
      static_cast<double>(stats_.documents) * stats_.avg_distinct_per_doc;
  const double vocab = static_cast<double>(stats_.distinct_words);
  // Quantize + int64 add per stored nonzero; cheaper than the K-means
  // kernel (no merge-join against a second vector).
  constexpr double kAccumNsPerNnz = 3.0;
  // Serial tree-merge fold plus the log()-heavy finalize, per
  // (class, term) cell.
  constexpr double kMergeNsPerCell = 6.0;
  constexpr double kFinalizeNsPerCell = 12.0;
  return doc_entries * kAccumNsPerNnz * 1e-9 / static_cast<double>(workers) +
         static_cast<double>(num_classes) * vocab *
             (kMergeNsPerCell + kFinalizeNsPerCell) * 1e-9;
}

double CostModel::EstimateKnnPredictSeconds(double train_fraction,
                                            int workers) const {
  if (workers < 1) workers = 1;
  train_fraction = std::clamp(train_fraction, 0.0, 1.0);
  const double docs = static_cast<double>(stats_.documents);
  const double nnz = stats_.avg_distinct_per_doc;
  // Same sparse merge-join kernel K-means assignment uses, but the "k" is
  // the training-row count: quadratic in documents, embarrassingly
  // parallel over queries, with no serial merge term at all — the exact
  // opposite cost shape of NB training.
  constexpr double kKernelNsPerNnz = 4.0;
  return docs * (docs * train_fraction) * nnz * kKernelNsPerNnz * 1e-9 /
         static_cast<double>(workers);
}

uint64_t CostModel::EstimateArtifactBytes() const {
  // Sparse ARFF: one "{id value," cell (~14 bytes) per stored score plus
  // one "@attribute <word> numeric" header line (~24 bytes) per term.
  const double doc_entries =
      static_cast<double>(stats_.documents) * stats_.avg_distinct_per_doc;
  return static_cast<uint64_t>(doc_entries * 14.0 +
                               static_cast<double>(stats_.distinct_words) *
                                   24.0);
}

uint64_t CostModel::EstimateMatrixBytes() const {
  // SparseVector stores 8-byte (id, value) pairs; each row adds vector
  // headers + allocator slack (~48 bytes, the measured per-row constant).
  const double doc_entries =
      static_cast<double>(stats_.documents) * stats_.avg_distinct_per_doc;
  return static_cast<uint64_t>(doc_entries * 8.0 +
                               static_cast<double>(stats_.documents) * 48.0);
}

double CostModel::MemoryCeilingPenaltySeconds(uint64_t resident_bytes,
                                              uint64_t budget_bytes) {
  if (budget_bytes == 0 || resident_bytes <= budget_bytes) return 0.0;
  // Every overflowing byte pages out and back in over the swap device
  // once per sweep; sweeps fault pages in access order, not layout order,
  // so the effective throughput (~25 MB/s) sits well below the device's
  // sequential rate. 2 transfers per byte, doubled again for the dirty
  // write-back of the evicted victim pages. Linear, so the optimizer's
  // comparison stays monotone in the overflow.
  constexpr double kSwapBytesPerSec = 25.0e6;
  double overflow = static_cast<double>(resident_bytes - budget_bytes);
  return overflow * 4.0 / kSwapBytesPerSec;
}

double CostModel::EstimateStreamingExtraSeconds(
    containers::DictBackend backend, int workers, uint64_t per_doc_presize,
    int kmeans_iterations, uint64_t window_bytes, double device_latency_sec,
    double scratch_bytes_per_sec, double scratch_latency_sec) const {
  if (kmeans_iterations < 1) kmeans_iterations = 1;
  PhaseCostEstimate est = Estimate(backend, workers, per_doc_presize);
  // Pass 0 tokenizes and scores the whole corpus once — roughly one fused
  // TF/IDF pass the in-memory plan does not pay twice.
  double score = est.TotalFused();
  double corpus_bytes = static_cast<double>(stats_.total_tokens) * 6.0;
  double windows = window_bytes == 0
                       ? 1.0
                       : std::max(1.0, corpus_bytes /
                                           static_cast<double>(window_bytes));
  // The spill holds each row as an nnz field plus 8-byte (id, value)
  // pairs; pass 0 writes it and each later pass reads it, one request per
  // window.
  double spill_bytes = static_cast<double>(stats_.documents) *
                       (4.0 + 8.0 * stats_.avg_distinct_per_doc);
  double spill = static_cast<double>(kmeans_iterations) *
                 (windows * scratch_latency_sec +
                  spill_bytes / scratch_bytes_per_sec);
  // The fit and pass 0 acquire every corpus window, each paying the device
  // latency once (the bandwidth term overlaps with compute under prefetch;
  // latency does not).
  double latency = windows * device_latency_sec * 2.0;
  return score + spill + latency;
}

uint64_t CostModel::ChooseWindowBytes(uint64_t budget_bytes) {
  if (budget_bytes == 0) return 0;
  constexpr uint64_t kMinWindowBytes = 64ull * 1024;
  uint64_t half = budget_bytes / 2;
  return half < kMinWindowBytes ? kMinWindowBytes : half;
}

double CostModel::CheckpointCommitSeconds(uint64_t bytes) const {
  // The commit reads the artifact back for the CRC-32 and writes a
  // manifest of a few hundred bytes; both land on the single-channel
  // scratch HDD (~100 MB/s sequential, ~5 ms of seeks per commit).
  constexpr double kScratchBytesPerSec = 100.0e6;
  constexpr double kSeekSeconds = 0.005;
  return static_cast<double>(bytes) / kScratchBytesPerSec + kSeekSeconds;
}

containers::DictBackend CostModel::BestBackend(
    int workers, uint64_t per_doc_presize) const {
  containers::DictBackend best = containers::DictBackend::kStdMap;
  double best_cost = 0.0;
  bool first = true;
  for (containers::DictBackend b : containers::kAllDictBackends) {
    double cost = Estimate(b, workers, per_doc_presize).TotalFused();
    if (first || cost < best_cost) {
      best = b;
      best_cost = cost;
      first = false;
    }
  }
  return best;
}

}  // namespace hpa::core
