#!/usr/bin/env bash
# CI entry point, fail-fast order (docs/static_analysis.md):
#   1. repo-invariant lint (module DAG + wall-clock ban) — cheapest, runs first
#   2. strict build + full test suite (-Werror; clang adds
#      -Werror=thread-safety over the annotations in src/common/annotations.h)
#   3. best-effort clang-tidy (skips cleanly on gcc-only toolchains)
#   4. virtual-time benches regenerated and compared with the committed
#      BENCH files, wall-clock microbench smokes, then the repo benchmark's
#      chunk_stream gates
#   5. ASan/UBSan lane (unaligned and masked vector loads, arena-backed block
#      chains, per-block device accounting)
#   6. TSan lane over the concurrency-heavy suites (queues, thread pool,
#      obs registry/tracer, multi-tenant service, transport)
#
# Usage: scripts/ci.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "=== repo-invariant lint (module DAG + wall-clock ban) ==="
python3 scripts/check_invariants.py --self-test
python3 scripts/check_invariants.py

echo "=== strict build (-Wall -Wextra -Werror; clang: -Werror=thread-safety) ==="
cmake -B "$BUILD_DIR" -S . -DSHREDDER_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
# Which scan_buffer path this CPU dispatches to (window-sum vector scan or
# scalar lanes), so the log shows what the chunking suites covered. Without
# GFNI/AVX-512BW the window-sum tests skip; the scalar lanes stay covered
# through their direct detail:: tests either way.
"$BUILD_DIR/chunking_test" --gtest_filter='ScanDispatch.*' | grep 'scan path'
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "=== clang-tidy (best-effort; skips when the binary is absent) ==="
scripts/run_clang_tidy.sh "$BUILD_DIR"

echo "=== virtual-time benches: bars + byte-identical to the committed files ==="
# The service, fingerprint, index, agent, transport and retention modes run
# at full scale and enforce their acceptance bars (docs/service.md,
# fingerprint.md, dedup_index.md, backup_wire.md, retention.md). Their
# output is virtual time only, so it must regenerate byte for byte: a diff
# means the model moved and the committed BENCH file needs regenerating.
if [ -x "$BUILD_DIR/microbench" ]; then
  for mode in service fingerprint index agent transport retention; do
    "$BUILD_DIR/microbench" --${mode}_json="$BUILD_DIR/BENCH_${mode}.json"
    cmp "$BUILD_DIR/BENCH_${mode}.json" "BENCH_${mode}.json"
  done
  echo "virtual-time BENCH files regenerate byte-identical"
else
  echo "microbench not built (google-benchmark missing): skipping virtual-time benches"
fi

echo "=== observability smoke (BENCH_obs + Perfetto trace export) ==="
# Enforces the <=2% disabled-registry overhead bar (each variant's best of
# 88 interleaved runs) and the <=1% traced engine-busy vs
# GpuTimeline::engine_busy agreement the committed BENCH_obs.json documents
# at full scale (docs/observability.md), and checks the exported Chrome
# trace-event files are well-formed JSON.
if [ -x "$BUILD_DIR/microbench" ]; then
  (cd "$BUILD_DIR" && ./microbench --obs_smoke_json="BENCH_obs_smoke.json")
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$BUILD_DIR/BENCH_obs_smoke.json" >/dev/null
    python3 -m json.tool "$BUILD_DIR/TRACE_obs_service.json" >/dev/null
    python3 -m json.tool "$BUILD_DIR/TRACE_obs_transport.json" >/dev/null
    echo "trace exports are well-formed JSON"
  else
    echo "python3 not available: skipping trace JSON validation"
  fi
else
  echo "microbench not built (google-benchmark missing): skipping obs smoke"
fi

echo "=== zero-copy sink smoke (streaming-vs-ByteSpan BENCH_sink) ==="
# Enforces the streaming >= 0.9x in-memory wall-throughput bar (0.95x at
# the full scale the committed BENCH_sink.json documents): the slot-lease
# payload path must keep streaming retention copy-free (docs/zero_copy.md).
if [ -x "$BUILD_DIR/microbench" ]; then
  "$BUILD_DIR/microbench" --sink_zero_copy_smoke_json="$BUILD_DIR/BENCH_sink_smoke.json"
else
  echo "microbench not built (google-benchmark missing): skipping sink smoke"
fi

echo "=== repo benchmark smoke (chunk_stream gates + perfbench tests) ==="
# A one-second chunk_stream run enforces the benchmark's chunks_equal_serial
# and virtual_repeats_exactly gates (run.py exits non-zero when a gate
# fails), then perfbench's own unit tests run against the same build.
python3 perfbench/run.py --workload chunk_stream --seed 1 --seconds 1 --trace 0
PERFBENCH_DIR="${CARGO_TARGET_DIR:-.bench_build}/perfbench"
cmake --build "$PERFBENCH_DIR" -j "$JOBS" --target perfbench_test
ctest --test-dir "$PERFBENCH_DIR" --output-on-failure -R '^perfbench'

echo "=== ASan/UBSan build (chunking + kernel + fingerprint + index + wire + obs stack) ==="
# gpusim_test runs the device's per-block accounting; chunking_test and
# core_test run the window-sum scan's masked loads at buffer edges.
SAN_DIR="${BUILD_DIR}-asan"
cmake -B "$SAN_DIR" -S . -DSHREDDER_WERROR=ON -DSHREDDER_SANITIZE=address
cmake --build "$SAN_DIR" -j "$JOBS" \
  --target chunking_test rabin_test minmax_test fingerprint_test \
  index_test dedup_test retention_test core_test sink_test transport_test \
  obs_test common_test gpusim_test
ctest --test-dir "$SAN_DIR" --output-on-failure -j "$JOBS" \
  -R 'chunking_test|rabin_test|minmax_test|fingerprint_test|index_test|dedup_test|retention_test|core_test|sink_test|transport_test|obs_test|common_test|gpusim_test'

echo "=== TSan build (queues, thread pool, obs, service, transport, backup) ==="
# The suites that genuinely run multiple threads: common_test (BoundedQueue +
# ThreadPool stress), obs_test (registry shards racing snapshot, tracer),
# service_test (N producer threads over one engine), core_test (slot-lease
# backpressure across producer/consumer threads), transport_test and
# sink_test (store-thread delivery), retention_test (pins vs GC sweeps over
# the shared store), backup_test (the CPU backend hashes chunks on the
# chunker's pool, writing the digest vector from worker threads). TSan's
# happens-before checking is what the thread-safety annotations cannot give
# us under gcc.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DSHREDDER_WERROR=ON -DSHREDDER_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$JOBS" \
  --target common_test obs_test service_test core_test transport_test \
  sink_test retention_test backup_test
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$JOBS" \
  -R 'common_test|obs_test|service_test|core_test|transport_test|sink_test|retention_test|backup_test'

echo "=== ci OK ==="
