#!/usr/bin/env sh
# The tier-1 gate, as one command:
#
#   tools/tier1_ci.sh [build-dir]                # default: build-ci
#
#   1. configure + build everything; then configure + build the Release
#      configuration (tests off) in <build-dir>-rel, so the -O3 build a
#      user would ship stays warning-clean under src/'s -Werror
#   2. run the full ctest suite (tier-1 correctness)
#   3. run the durability/chaos suites in isolation (`ctest -L
#      durability`) so a fault-injection regression is named, not buried
#   4. run the serving suite in isolation (`ctest -L serving`): wire
#      protocol, transports, the replay<->serve determinism bridge,
#      async re-mining, network chaos
#   5. run the multi-shard suite in isolation (`ctest -L shard`): hash
#      ring, router failure isolation, supervised recovery, live
#      drain/handoff, the sharded determinism bridge, router-leg fuzz
#   6. run the delta-mining suite in isolation (`ctest -L delta`): the
#      streaming-accumulator layers and the differential suite proving
#      incremental == full rebuild bit-identically at every boundary
#   7. run the policy-arena suite in isolation (`ctest -L arena`):
#      spec-grammar rejection sweep, registry-vs-direct construction
#      byte-identity, scenario determinism, league rerun bit-identity
#   8. run the chaos soak gate (tools/tier1_soak.sh): seeds 0-9 of
#      retrying traffic under injected faults — including the
#      shard-kill soak — time-bounded, counters to BENCH_soak.json
#   9. run the benchmark smoke test (perfbench/smoke_test.py): every
#      workload at tiny scale on two seeds, untraced and traced, must
#      pass its own output checks (replay Save->Load->Save byte
#      identity, the league table equal to arena::RunLeague) and print
#      every metric BENCHMARK.json declares; it builds under .bench_build/
#  10. run the static-analysis gate (tools/tier1_lint.sh): defuse-lint
#      must report zero findings, plus clang-tidy when installed
#  11. run the ASan+UBSan chaos pass (tools/tier1_sanitize.sh)
#
# Any step failing fails the script (set -e), which is the CI contract:
# green means buildable, correct, crash-safe, lint-clean, and
# sanitizer-clean.
set -eu

BUILD_DIR="${1:-build-ci}"
SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

echo "== configure + build =="
cmake -B "$BUILD_DIR" -S "$SRC_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 4)"

echo "== Release configure + build (tests off) =="
cmake -B "$BUILD_DIR-rel" -S "$SRC_DIR" -DCMAKE_BUILD_TYPE=Release \
  -DDEFUSE_BUILD_TESTS=OFF
cmake --build "$BUILD_DIR-rel" -j "$(nproc 2>/dev/null || echo 4)"

echo "== tier-1 tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc 2>/dev/null || echo 4)"

echo "== durability suite (ctest -L durability) =="
ctest --test-dir "$BUILD_DIR" -L durability --output-on-failure -j \
  "$(nproc 2>/dev/null || echo 4)"

echo "== serving suite (ctest -L serving) =="
ctest --test-dir "$BUILD_DIR" -L serving --output-on-failure -j \
  "$(nproc 2>/dev/null || echo 4)"

echo "== multi-shard suite (ctest -L shard) =="
ctest --test-dir "$BUILD_DIR" -L shard --output-on-failure -j \
  "$(nproc 2>/dev/null || echo 4)"

echo "== delta-mining suite (ctest -L delta) =="
ctest --test-dir "$BUILD_DIR" -L delta --output-on-failure -j \
  "$(nproc 2>/dev/null || echo 4)"

echo "== policy-arena suite (ctest -L arena) =="
ctest --test-dir "$BUILD_DIR" -L arena --output-on-failure -j \
  "$(nproc 2>/dev/null || echo 4)"

echo "== chaos soak gate (tools/tier1_soak.sh) =="
"$SRC_DIR/tools/tier1_soak.sh" "$BUILD_DIR"

echo "== benchmark smoke test (perfbench/smoke_test.py) =="
python3 "$SRC_DIR/perfbench/smoke_test.py"

echo "== static analysis (tools/tier1_lint.sh) =="
"$SRC_DIR/tools/tier1_lint.sh" "$BUILD_DIR"

echo "== sanitized chaos pass =="
"$SRC_DIR/tools/tier1_sanitize.sh" "$BUILD_DIR-asan"

echo "tier-1 CI: PASS"
