#include "core/plan_io.h"

#include <limits>

#include "common/string_util.h"

namespace hpa::core {

std::string SerializePlan(const ExecutionPlan& plan,
                          const Workflow& workflow) {
  std::string out = "hpa-plan v1\n";
  out += StrFormat("workers %d\n", plan.workers);
  for (size_t i = 0; i < workflow.size(); ++i) {
    int id = static_cast<int>(i);
    if (workflow.IsSource(id)) {
      out += StrFormat("node %d source %s\n", id,
                       std::string(workflow.label(id)).c_str());
      continue;
    }
    const NodePlan& np = plan.nodes[i];
    out += StrFormat(
        "node %d op=%s boundary=%s dict=%s presize=%zu", id,
        std::string(workflow.label(id)).c_str(),
        std::string(BoundaryName(np.output_boundary)).c_str(),
        std::string(containers::DictBackendName(np.dict_backend)).c_str(),
        np.per_doc_dict_presize);
    // Out-of-core keys only appear when set, so pre-streaming plan files
    // round-trip byte-identically.
    if (np.stream_corpus) {
      out += StrFormat(" stream=1 window=%llu",
                       static_cast<unsigned long long>(np.window_bytes));
    }
    out += "\n";
  }
  return out;
}

namespace {

Status Malformed(size_t line_number, const std::string& why) {
  return Status::Corruption(
      StrFormat("plan line %zu: %s", line_number, why.c_str()));
}

}  // namespace

StatusOr<ExecutionPlan> ParsePlan(std::string_view text,
                                  const Workflow& workflow) {
  ExecutionPlan plan;
  plan.nodes.resize(workflow.size());
  std::vector<bool> seen(workflow.size(), false);

  std::vector<std::string_view> lines = Split(text, '\n');
  size_t line_number = 0;
  bool saw_magic = false;
  bool saw_workers = false;

  for (std::string_view raw : lines) {
    ++line_number;
    std::string_view line = Trim(raw);
    if (line.empty() || line.front() == '#') continue;

    if (!saw_magic) {
      if (line != "hpa-plan v1") {
        return Malformed(line_number,
                         "expected header 'hpa-plan v1', got '" +
                             std::string(line) + "'");
      }
      saw_magic = true;
      continue;
    }

    std::vector<std::string_view> fields = Split(line, ' ');
    if (fields[0] == "workers") {
      int64_t w = 0;
      if (fields.size() != 2 || !ParseInt64(fields[1], &w) || w < 1 ||
          w > std::numeric_limits<int>::max()) {
        return Malformed(line_number, "bad workers line");
      }
      plan.workers = static_cast<int>(w);
      saw_workers = true;
      continue;
    }
    if (fields[0] != "node" || fields.size() < 3) {
      return Malformed(line_number, "expected a node line");
    }
    int64_t id = 0;
    if (!ParseInt64(fields[1], &id) || id < 0 ||
        static_cast<size_t>(id) >= workflow.size()) {
      return Malformed(line_number, "node id out of range");
    }
    if (seen[static_cast<size_t>(id)]) {
      return Malformed(line_number,
                       "duplicate node " + std::to_string(id));
    }
    seen[static_cast<size_t>(id)] = true;

    bool is_source_line = fields[2] == "source";
    if (is_source_line != workflow.IsSource(static_cast<int>(id))) {
      return Malformed(line_number,
                       StrFormat("node %lld kind does not match workflow",
                                 static_cast<long long>(id)));
    }
    if (is_source_line) continue;

    NodePlan& np = plan.nodes[static_cast<size_t>(id)];
    for (size_t f = 2; f < fields.size(); ++f) {
      std::string_view field = fields[f];
      if (field.empty()) continue;
      size_t eq = field.find('=');
      if (eq == std::string_view::npos) {
        return Malformed(line_number,
                         "expected key=value, got '" + std::string(field) +
                             "'");
      }
      std::string_view key = field.substr(0, eq);
      std::string_view value = field.substr(eq + 1);
      if (key == "op") {
        if (value != workflow.label(static_cast<int>(id))) {
          return Malformed(
              line_number,
              StrFormat("operator mismatch: plan says '%s', workflow has "
                        "'%s'",
                        std::string(value).c_str(),
                        std::string(workflow.label(static_cast<int>(id)))
                            .c_str()));
        }
      } else if (key == "boundary") {
        if (value == "fused") {
          np.output_boundary = Boundary::kFused;
        } else if (value == "materialized") {
          np.output_boundary = Boundary::kMaterialized;
        } else {
          return Malformed(line_number, "unknown boundary '" +
                                            std::string(value) + "'");
        }
      } else if (key == "dict") {
        auto backend = containers::ParseDictBackend(value);
        if (!backend.ok()) return Malformed(line_number,
                                            backend.status().message());
        np.dict_backend = *backend;
      } else if (key == "presize") {
        int64_t p = 0;
        if (!ParseInt64(value, &p) || p < 0) {
          return Malformed(line_number, "bad presize");
        }
        np.per_doc_dict_presize = static_cast<size_t>(p);
      } else if (key == "stream") {
        if (value == "1") {
          np.stream_corpus = true;
        } else if (value == "0") {
          np.stream_corpus = false;
        } else {
          return Malformed(line_number,
                           "bad stream '" + std::string(value) + "'");
        }
      } else if (key == "window") {
        int64_t wb = 0;
        if (!ParseInt64(value, &wb) || wb < 0) {
          return Malformed(line_number, "bad window");
        }
        np.window_bytes = static_cast<uint64_t>(wb);
      } else {
        return Malformed(line_number,
                         "unknown key '" + std::string(key) + "'");
      }
    }
  }

  if (!saw_magic) return Status::Corruption("empty plan text");
  if (!saw_workers) return Status::Corruption("plan is missing 'workers'");
  for (size_t i = 0; i < seen.size(); ++i) {
    if (!seen[i]) {
      return Status::Corruption(
          StrFormat("plan is missing node %zu", i));
    }
  }
  return plan;
}

}  // namespace hpa::core
