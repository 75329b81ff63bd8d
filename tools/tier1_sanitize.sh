#!/usr/bin/env sh
# Builds the test suite with ASan+UBSan and runs the fault/chaos suites
# (plus the ingestion and platform tests they lean on) instrumented,
# the serving suite whose frame-decoder fuzz table (truncations, bit
# flips, oversize, garbage) is only meaningful if decoding never
# over-reads, and the stats, policy, mining and arena suites, whose
# running histogram moments, rank-kept day profiles, bitmap group
# merges, window buckets and dense projection tables do index and
# unsigned arithmetic. The delta-mining suite runs too: it feeds CanTree
# exports and loaded co-occurrence counts through the same projection
# and FP-Growth code.
#
#   tools/tier1_sanitize.sh [build-dir]          # default: build-asan
#
# The sanitizer wiring is the -DDEFUSE_SANITIZE cache option (comma list,
# applied to every target's compile and link); this script is just the
# one-command version. -fno-sanitize-recover=all makes any UBSan report
# fatal, so a green run really is clean.
set -eu

BUILD_DIR="${1:-build-asan}"
SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DDEFUSE_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDEFUSE_BUILD_BENCHMARKS=OFF \
  -DDEFUSE_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 4)" \
  --target test_faults test_platform test_durability test_trace test_common \
  test_core test_serving test_stats test_policy test_mining test_delta \
  test_arena

for t in test_faults test_platform test_durability test_trace test_common \
    test_core test_serving test_stats test_policy test_mining test_delta \
    test_arena; do
  echo "== $t (ASan+UBSan) =="
  "$BUILD_DIR/tests/$t"
done
echo "sanitized chaos suite: PASS"
