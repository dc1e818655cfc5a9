#!/usr/bin/env bash
# Full local gate: tier-1 (default build, every test) plus the
# chaos/routing/interning suites re-run under whole-build
# AddressSanitizer+UBSan and ThreadSanitizer (the `asan` / `tsan` CMake
# presets).
#
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # tier-1 only (skip the sanitizer builds)
#
# Tier-1 is the contract every PR must keep green:
#   cmake -B build -S . && cmake --build build -j && ctest
# It already includes the per-test sanitizer twins (`*_tsan`, `*_asan`
# targets in tests/CMakeLists.txt): kmeans_prune_test, for one, runs under
# both, so the nearest-centroid tile's index arithmetic is ASan-checked in
# every default ctest run; term_table_test and tfidf_vectorizer_test run
# under ASan too, because the term table and the model's term index built
# on it address their arenas by raw offsets; so does io_test, whose CRC-32
# cases drive the carry-less-multiply kernel's unaligned 16-byte loads and
# its table-loop tails at every length up to 300 and start alignment.
# The sanitizer passes rebuild the tree with -fsanitize and run just the
# labelled suites
# (`ctest -L "chaos|route|intern|outofcore|prune|scheduler"`), which is
# where the breaker, hot-swap, GC, router, and rollout races — the
# worker-local interning and its remap merge, the K-means engine's
# worker-local accumulators and window buffers, and the thread pool's
# work-stealing deques and joins — would hide.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "== tier-1: default build + full ctest =="
cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"

if [[ "$FAST" == 1 ]]; then
  echo "== --fast: skipping sanitizer presets =="
  exit 0
fi

for preset in asan tsan; do
  echo "== $preset: sanitized build + ctest -L 'chaos|route|intern|outofcore|prune|scheduler' =="
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j "$JOBS"
  ctest --preset "$preset" -L "chaos|route|intern|outofcore|prune|scheduler" -j "$JOBS"
done

echo "== check.sh: all gates green =="
