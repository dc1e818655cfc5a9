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
# The sanitizer passes rebuild the tree with -fsanitize and run just the
# labelled fault/lifecycle suites (`ctest -L "chaos|route|intern"`), which
# is where the breaker, hot-swap, GC, router, and rollout races — and the
# worker-local interning and its remap merge — would hide.
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
  echo "== $preset: sanitized build + ctest -L 'chaos|route|intern' =="
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j "$JOBS"
  ctest --preset "$preset" -L "chaos|route|intern" -j "$JOBS"
done

echo "== check.sh: all gates green =="
