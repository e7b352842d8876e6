#!/usr/bin/env bash
# One-shot correctness gate: tier-1 tests in the normal build, then again
# under ASan(+LSan), UBSan and TSan. Usage:
#
#   scripts/check.sh            # release-ish build + all sanitizer builds
#   scripts/check.sh --fast     # normal build only (skip sanitizers)
#
# Each configuration builds into its own tree (build/, build-asan/,
# build-ubsan/, build-tsan/) so the sanitizer runs never dirty the main
# build and incremental re-runs stay fast. Exits non-zero on the first
# failure.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

run_config() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

# The tier-1 tree builds with -Werror, like both CI build jobs.
echo "== tier-1 (normal build) =="
run_config build -DC64FFT_WERROR=ON

if [[ $fast -eq 0 ]]; then
  echo "== tier-1 under ASan + LSan =="
  run_config build-asan -DC64FFT_ASAN=ON
  echo "== tier-1 under UBSan =="
  run_config build-ubsan -DC64FFT_UBSAN=ON
  # The f32/f64 numeric paths are where narrowing and float UB would hide;
  # re-run the precision label explicitly so its pass/fail is visible even
  # when skimming the full-suite output above.
  echo "== precision label under UBSan =="
  ctest --test-dir build-ubsan -L precision --output-on-failure
  # TSan watches the concurrency surface: the worker team's claim, park
  # and completion protocol (a missed release order there would race),
  # the executor's batched dispatch and the hierarchical tile pipeline's
  # two phases, the server on top of them, and the paper reproduction
  # harness (fft_host), whose shared ready pool runs on the team. Only the
  # threaded tests run here — TSan is slow, and the numeric tests add no
  # thread interleavings it could observe. (ASan and TSan are mutually
  # exclusive instrumentations, hence the separate tree.)
  echo "== concurrency tests under TSan =="
  cmake -B build-tsan -S . -DC64FFT_TSAN=ON >/dev/null
  cmake --build build-tsan -j "$(nproc)"
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -R 'test_team|test_worker_balance|test_executor|test_serve|test_hierarchical|test_variants'
fi

echo "check.sh: all configurations passed"
