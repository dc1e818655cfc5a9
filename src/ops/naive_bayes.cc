#include "ops/naive_bayes.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/string_util.h"
#include "parallel/parallel_ops.h"

namespace hpa::ops {

namespace {

bool ParseHexU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), *out, /*base=*/16);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseHexU32(std::string_view s, uint32_t* out) {
  uint64_t v = 0;
  if (!ParseHexU64(s, &v) || v > 0xFFFFFFFFull) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

/// Worker-local sufficient statistics. Integer-only (the fixed-point
/// design in the header), so every merge schedule yields identical bits.
struct NbAccumulators {
  /// counts[c][t] = Σ quantized score of term t over class-c documents.
  std::vector<std::vector<int64_t>> counts;
  std::vector<uint64_t> doc_counts;
  uint64_t skipped = 0;

  void Init(size_t num_classes, uint32_t dim) {
    counts.assign(num_classes, std::vector<int64_t>(dim, 0));
    doc_counts.assign(num_classes, 0);
    skipped = 0;
  }
};

}  // namespace

int64_t NbQuantize(float score) {
  return std::llround(static_cast<double>(score) * kNbFixedPointScale);
}

int NaiveBayesModel::ClassId(std::string_view label) const {
  auto it = std::lower_bound(labels.begin(), labels.end(), label);
  if (it == labels.end() || *it != label) return -1;
  return static_cast<int>(it - labels.begin());
}

uint32_t NaiveBayesModel::Predict(const containers::SparseVector& row) const {
  uint32_t best = 0;
  double best_score = 0.0;
  for (size_t c = 0; c < feature_log_prob.size(); ++c) {
    double s = class_log_prior[c] + Dot(row, feature_log_prob[c]);
    // Strict > keeps the first (lowest-id) class on exact ties.
    if (c == 0 || s > best_score) {
      best = static_cast<uint32_t>(c);
      best_score = s;
    }
  }
  return best;
}

StatusOr<NaiveBayesModel> TrainNaiveBayes(
    ExecContext& ctx, const containers::SparseMatrix& matrix,
    const std::vector<std::string>& row_labels,
    const NaiveBayesOptions& options) {
  if (row_labels.size() != matrix.num_rows()) {
    return Status::InvalidArgument(StrFormat(
        "naive bayes: %zu labels for %zu rows", row_labels.size(),
        matrix.num_rows()));
  }
  if (options.alpha <= 0.0) {
    return Status::InvalidArgument("naive bayes: alpha must be positive");
  }

  NaiveBayesModel model;
  Status status = Status::OK();
  ctx.TimePhase("nb-train", [&] {
    const size_t n = matrix.num_rows();
    const uint32_t dim = matrix.num_cols;

    // Class vocabulary: sorted unique labels of usable rows (non-empty row
    // AND non-empty label — quarantined documents keep empty rows upstream
    // and drop out here, like the K-means inertia ignores them naturally).
    std::vector<uint32_t> row_class(n, 0);
    std::vector<uint8_t> usable(n, 0);
    ctx.executor->RunSerial(parallel::WorkHint{0, "nb-train-labels"}, [&] {
      std::vector<std::string> labels;
      for (size_t i = 0; i < n; ++i) {
        if (row_labels[i].empty() || matrix.rows[i].empty()) continue;
        labels.push_back(row_labels[i]);
      }
      std::sort(labels.begin(), labels.end());
      labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
      model.labels = std::move(labels);
      for (size_t i = 0; i < n; ++i) {
        if (row_labels[i].empty() || matrix.rows[i].empty()) continue;
        usable[i] = 1;
        auto it = std::lower_bound(model.labels.begin(), model.labels.end(),
                                   row_labels[i]);
        row_class[i] = static_cast<uint32_t>(it - model.labels.begin());
      }
    });
    if (model.labels.empty()) {
      status = Status::InvalidArgument(
          "naive bayes: no labeled non-empty training rows (is the corpus "
          "labeled?)");
      return;
    }
    const size_t num_classes = model.labels.size();

    // Parallel accumulation into worker-local integer statistics.
    using Scratch = parallel::WorkerLocal<NbAccumulators>;
    std::unique_ptr<Scratch> scratch;
    ctx.executor->RunSerial(parallel::WorkHint{0, "nb-train-alloc"}, [&] {
      scratch = std::make_unique<Scratch>(*ctx.executor);
      scratch->ForEach([&](NbAccumulators& a) { a.Init(num_classes, dim); });
    });

    parallel::WorkHint hint;
    hint.label = "nb-train";
    hint.bytes_touched = static_cast<uint64_t>(num_classes) * dim *
                         sizeof(int64_t) * 2;
    ctx.executor->ParallelFor(
        0, n, 0, hint, [&](int worker, size_t begin, size_t end) {
          NbAccumulators& acc = scratch->Get(worker);
          for (size_t i = begin; i < end; ++i) {
            if (!usable[i]) {
              ++acc.skipped;
              continue;
            }
            const size_t c = row_class[i];
            ++acc.doc_counts[c];
            const containers::SparseVector& row = matrix.rows[i];
            auto& class_counts = acc.counts[c];
            for (size_t e = 0; e < row.nnz(); ++e) {
              class_counts[row.id_at(e)] += NbQuantize(row.value_at(e));
            }
          }
        });

    // Merge — the same accumulator-tree shape as the K-means centroid
    // merge: pair combines sliced over classes × fixed dimension shards.
    // Both schedules are bit-identical here *by construction* (the sums are
    // integers), so serial_merge only changes the schedule being exercised.
    if (ctx.serial_merge) {
      ctx.executor->RunSerial(parallel::WorkHint{0, "nb-merge"}, [&] {
        NbAccumulators& total = scratch->Get(0);
        for (size_t w = 1; w < scratch->size(); ++w) {
          NbAccumulators& from = scratch->Get(static_cast<int>(w));
          total.skipped += from.skipped;
          for (size_t c = 0; c < num_classes; ++c) {
            total.doc_counts[c] += from.doc_counts[c];
            auto& t = total.counts[c];
            const auto& s = from.counts[c];
            for (uint32_t d = 0; d < dim; ++d) t[d] += s[d];
          }
        }
      });
    } else {
      const size_t dim_shards =
          dim == 0 ? 1 : std::min<size_t>(8, static_cast<size_t>(dim));
      const size_t parts = num_classes * dim_shards;
      parallel::WorkHint merge_hint;
      merge_hint.label = "nb-merge";
      merge_hint.bytes_touched =
          static_cast<uint64_t>(num_classes) * dim * 2 * sizeof(int64_t);
      auto combine = [&](NbAccumulators& into, NbAccumulators& from,
                         size_t part, size_t nparts) {
        (void)nparts;
        const size_t c = part / dim_shards;
        const size_t ds = part % dim_shards;
        if (part == 0) into.skipped += from.skipped;
        if (ds == 0) into.doc_counts[c] += from.doc_counts[c];
        const uint32_t lo = static_cast<uint32_t>(
            static_cast<size_t>(dim) * ds / dim_shards);
        const uint32_t hi = static_cast<uint32_t>(
            static_cast<size_t>(dim) * (ds + 1) / dim_shards);
        auto& t = into.counts[c];
        const auto& s = from.counts[c];
        for (uint32_t d = lo; d < hi; ++d) t[d] += s[d];
      };
      parallel::ParallelTreeReduce(*ctx.executor, *scratch, parts,
                                   merge_hint, combine);
    }

    // Serial finalize from the exact integer statistics. All inputs are
    // order-independent integers, so the doubles computed here are the
    // same no matter how the work above was scheduled.
    ctx.executor->RunSerial(parallel::WorkHint{0, "nb-finalize"}, [&] {
      NbAccumulators& total = scratch->Get(0);
      model.num_features = dim;
      model.documents_skipped = total.skipped;
      uint64_t trained = 0;
      for (uint64_t dc : total.doc_counts) trained += dc;
      model.documents_trained = trained;

      // alpha in quantized units: the real mass is count / 2^24, so
      //   log((count/S + alpha) / (total/S + alpha·V))
      // = log((count + alpha·S) / (total + alpha·S·V)).
      const double alpha_q = options.alpha * kNbFixedPointScale;
      model.class_log_prior.resize(num_classes);
      model.feature_log_prob.assign(num_classes,
                                    std::vector<float>(dim, 0.0f));
      for (size_t c = 0; c < num_classes; ++c) {
        model.class_log_prior[c] =
            std::log(static_cast<double>(total.doc_counts[c]) /
                     static_cast<double>(trained));
        int64_t class_total = 0;
        for (uint32_t d = 0; d < dim; ++d) class_total += total.counts[c][d];
        const double denom =
            std::log(static_cast<double>(class_total) +
                     alpha_q * static_cast<double>(dim));
        auto& out = model.feature_log_prob[c];
        const auto& cnts = total.counts[c];
        for (uint32_t d = 0; d < dim; ++d) {
          out[d] = static_cast<float>(
              std::log(static_cast<double>(cnts[d]) + alpha_q) - denom);
        }
      }
    });
  });
  if (!status.ok()) return status;
  return model;
}

std::vector<uint32_t> PredictNaiveBayes(
    ExecContext& ctx, const NaiveBayesModel& model,
    const containers::SparseMatrix& matrix) {
  std::vector<uint32_t> out(matrix.num_rows(), 0);
  ctx.TimePhase("nb-predict", [&] {
    parallel::WorkHint hint;
    hint.label = "nb-predict";
    hint.bytes_touched = static_cast<uint64_t>(model.num_classes()) *
                         model.num_features * sizeof(float);
    ctx.executor->ParallelFor(0, matrix.num_rows(), 0, hint,
                              [&](int /*worker*/, size_t begin, size_t end) {
                                for (size_t i = begin; i < end; ++i) {
                                  out[i] = model.Predict(matrix.rows[i]);
                                }
                              });
  });
  return out;
}

std::string SerializeNaiveBayesModel(const NaiveBayesModel& model) {
  std::string out = "hpa-nb-model v1\nclasses ";
  AppendUint(out, model.labels.size());
  out += "\ncols ";
  AppendUint(out, model.num_features);
  out += "\ntrained ";
  AppendUint(out, model.documents_trained);
  out += "\nskipped ";
  AppendUint(out, model.documents_skipped);
  out += '\n';
  for (const std::string& label : model.labels) {
    out += "label ";
    out += label;
    out += '\n';
  }
  out += "priors";
  for (double p : model.class_log_prior) {
    uint64_t bits = 0;
    std::memcpy(&bits, &p, sizeof(bits));
    out += StrFormat(" %016llx", static_cast<unsigned long long>(bits));
  }
  out += '\n';
  for (const auto& row : model.feature_log_prob) {
    for (size_t i = 0; i < row.size(); ++i) {
      uint32_t bits = 0;
      std::memcpy(&bits, &row[i], sizeof(bits));
      if (i > 0) out += ' ';
      out += StrFormat("%08x", bits);
    }
    out += '\n';
  }
  return out;
}

StatusOr<NaiveBayesModel> ParseNaiveBayesModel(std::string_view text,
                                               const std::string& path) {
  std::vector<std::string_view> lines = Split(text, '\n');
  if (lines.size() < 5 || Trim(lines[0]) != "hpa-nb-model v1") {
    return Status::Corruption("bad nb-model header in " + path);
  }
  int64_t classes = 0, cols = 0, trained = 0, skipped = 0;
  if (!StartsWith(lines[1], "classes ") ||
      !ParseInt64(lines[1].substr(8), &classes) || classes < 1 ||
      !StartsWith(lines[2], "cols ") ||
      !ParseInt64(lines[2].substr(5), &cols) || cols < 0 ||
      !StartsWith(lines[3], "trained ") ||
      !ParseInt64(lines[3].substr(8), &trained) || trained < 0 ||
      !StartsWith(lines[4], "skipped ") ||
      !ParseInt64(lines[4].substr(8), &skipped) || skipped < 0) {
    return Status::Corruption("bad nb-model counts in " + path);
  }
  const size_t c_count = static_cast<size_t>(classes);
  if (lines.size() < 5 + c_count + 1 + c_count) {
    return Status::Corruption("truncated nb-model in " + path);
  }
  NaiveBayesModel model;
  model.num_features = static_cast<uint32_t>(cols);
  model.documents_trained = static_cast<uint64_t>(trained);
  model.documents_skipped = static_cast<uint64_t>(skipped);
  model.labels.reserve(c_count);
  for (size_t c = 0; c < c_count; ++c) {
    std::string_view line = lines[5 + c];
    if (!StartsWith(line, "label ")) {
      return Status::Corruption("bad nb-model label line in " + path);
    }
    model.labels.emplace_back(Trim(line.substr(6)));
  }
  {
    std::string_view line = Trim(lines[5 + c_count]);
    if (!StartsWith(line, "priors")) {
      return Status::Corruption("bad nb-model priors line in " + path);
    }
    std::vector<std::string_view> words =
        Split(Trim(line.substr(6)), ' ');
    if (words.size() != c_count) {
      return Status::Corruption("bad nb-model prior count in " + path);
    }
    model.class_log_prior.resize(c_count);
    for (size_t c = 0; c < c_count; ++c) {
      uint64_t bits = 0;
      if (!ParseHexU64(words[c], &bits)) {
        return Status::Corruption("bad nb-model prior value in " + path);
      }
      std::memcpy(&model.class_log_prior[c], &bits, sizeof(double));
    }
  }
  model.feature_log_prob.assign(
      c_count, std::vector<float>(static_cast<size_t>(cols), 0.0f));
  for (size_t c = 0; c < c_count; ++c) {
    std::vector<std::string_view> words =
        Split(Trim(lines[6 + c_count + c]), ' ');
    if (cols == 0) continue;
    if (words.size() != static_cast<size_t>(cols)) {
      return Status::Corruption(
          StrFormat("nb-model row %zu has %zu values, want %lld in %s", c,
                    words.size(), static_cast<long long>(cols),
                    path.c_str()));
    }
    for (size_t i = 0; i < words.size(); ++i) {
      uint32_t bits = 0;
      if (!ParseHexU32(words[i], &bits)) {
        return Status::Corruption("bad nb-model likelihood value in " + path);
      }
      std::memcpy(&model.feature_log_prob[c][i], &bits, sizeof(float));
    }
  }
  return model;
}

}  // namespace hpa::ops
