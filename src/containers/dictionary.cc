#include "containers/dictionary.h"

namespace hpa::containers {

std::string_view DictBackendName(DictBackend backend) {
  switch (backend) {
    case DictBackend::kStdMap:
      return "map";
    case DictBackend::kStdUnorderedMap:
      return "u-map";
    case DictBackend::kRbTree:
      return "rb-tree";
    case DictBackend::kChainedHash:
      return "chained-hash";
    case DictBackend::kOpenHash:
      return "open-hash";
    case DictBackend::kInterned:
      return "interned";
  }
  return "unknown";
}

StatusOr<DictBackend> ParseDictBackend(std::string_view name) {
  if (name == "map" || name == "std_map" || name == "std::map") {
    return DictBackend::kStdMap;
  }
  if (name == "u-map" || name == "umap" || name == "unordered_map" ||
      name == "std::unordered_map") {
    return DictBackend::kStdUnorderedMap;
  }
  if (name == "rb-tree" || name == "rbtree") return DictBackend::kRbTree;
  if (name == "chained-hash" || name == "chained") {
    return DictBackend::kChainedHash;
  }
  if (name == "open-hash" || name == "open") return DictBackend::kOpenHash;
  if (name == "interned") return DictBackend::kInterned;
  return Status::InvalidArgument("unknown dictionary backend '" +
                                 std::string(name) +
                                 "' (expected map, u-map, rb-tree, "
                                 "chained-hash, open-hash, or interned)");
}

}  // namespace hpa::containers
