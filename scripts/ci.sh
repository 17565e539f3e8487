#!/usr/bin/env bash
# CI entry point: build the plain and ASan+UBSan configurations and run the
# full test suite under both. Usage: scripts/ci.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${1:-$(nproc)}"

for preset in default asan; do
  echo "=== configure/build/test: ${preset} ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}"

  # The lane-scaling contract is load-bearing (byte-identity + monotone
  # makespan); run it by name so a filter typo elsewhere can't silently
  # drop it from the suite.
  build_dir="build"
  [[ "${preset}" == "asan" ]] && build_dir="build-asan"
  "${build_dir}/tests/lane_scaling_test" >/dev/null

  # So is the fault matrix (end-to-end integrity, retry masking, epoch
  # abort): run it by name too.
  "${build_dir}/tests/fault_matrix_test" >/dev/null

  # And the stop-path contract (clean epochs elide protection + shootdowns,
  # legacy vs incremental images byte-identical, cache invalidation per op).
  "${build_dir}/tests/stop_path_test" >/dev/null

  # The segment-log GC contract: compaction keeps churn space flat, never
  # changes a retained epoch, and interleaves cleanly with the scrubber.
  "${build_dir}/tests/segment_gc_test" >/dev/null

  # The content-addressed flush contract: dedup hits install references,
  # the index + flush options survive remount, codecs round-trip, and GC
  # moves a shared block exactly once (DESIGN.md section 17).
  "${build_dir}/tests/dedup_test" >/dev/null

  # The replication contract (DESIGN.md section 18): every backend honors
  # the conformance round-trip, the standby state machine survives
  # duplication/reordering/partitions/corruption, and the failover matrix
  # never promotes a torn image at any cut point of the stream.
  "${build_dir}/tests/backend_conformance_test" >/dev/null
  "${build_dir}/tests/replication_test" >/dev/null
  "${build_dir}/tests/restore_fault_test" >/dev/null

  # The one checkpoint wire format: mutated `sls send` streams and
  # replication chunks decode canonically or fail typed, and a damaged
  # pending chunk never applies.
  "${build_dir}/tests/wire_format_fuzz_test" >/dev/null

  # Static-analysis gate: every tree — src, tools, tests, bench, perfbench —
  # must lint clean under all six rule families, and the linter must prove
  # its rules still fire on the fixtures.
  "${build_dir}/tools/aurora_lint/aurora_lint" src tools tests bench perfbench
  "${build_dir}/tests/lint_test" >/dev/null

  # A refactor of the linter must never silently drop a rule family: the
  # --list-rules inventory is part of the contract.
  rules_out="$("${build_dir}/tools/aurora_lint/aurora_lint" --list-rules)"
  for family in error-propagation determinism hygiene typestate gen result; do
    if ! grep -q "\b${family}\b" <<<"${rules_out}"; then
      echo "CI FAIL: rule family '${family}' missing from aurora_lint --list-rules" >&2
      exit 1
    fi
  done

  # The ablation bench must keep exporting the per-lane flush metrics and
  # the fault-handling counters; a BENCH json without them means the lane
  # accounting or the retry/abort instrumentation regressed.
  (cd "${build_dir}" && ./bench/bench_ablations >/dev/null)
  for key in flush.lane0.bytes flush.lane0.busy_time flush.lane3.bytes \
             flush.lane3.busy_time flush.lanes io.retries ckpt.epochs_aborted \
             ckpt.stop_time vm.shootdowns_elided; do
    if ! grep -q "\"${key}\"" "${build_dir}/BENCH_ablations.json"; then
      echo "CI FAIL: ${key} missing from ${build_dir}/BENCH_ablations.json" >&2
      exit 1
    fi
  done

  # The content-addressed flush path must actually fire on the ablation's
  # redundancy-rich write profile (index hits recorded) and cut the flushed
  # bytes at least ~3x against the dedup-off baseline.
  deduped=$(awk '/"dedup_on"/{grab=1}
                 grab && /"ckpt.bytes_deduped"/{gsub(/[^0-9]/,""); print; exit}' \
            "${build_dir}/BENCH_ablations.json")
  if [[ -z "${deduped}" ]] || [[ "${deduped}" -eq 0 ]]; then
    echo "CI FAIL: ckpt.bytes_deduped is ${deduped:-missing} in the dedup_on ablation run" >&2
    exit 1
  fi
  ratio=$(awk -F': ' '/"label": "dedup flush ratio"/{grab=1}
                      grab && /"measured"/{gsub(/,/,"",$2); print $2; exit}' \
          "${build_dir}/BENCH_ablations.json")
  if [[ -z "${ratio}" ]] || ! awk -v r="${ratio}" 'BEGIN{exit !(r <= 0.34)}'; then
    echo "CI FAIL: dedup flush ratio not <= 0.34x of raw (ratio = ${ratio:-missing})" >&2
    exit 1
  fi

  # The long-horizon soak: the segment log must actually reclaim whole
  # segments and hold space flat (end-of-run within 10% of the mid-run
  # steady state) across 10^4+ retained-churn epochs.
  (cd "${build_dir}" && ./bench/bench_soak >/dev/null)
  if ! grep -q '"gc.segments_reclaimed"' "${build_dir}/BENCH_soak.json"; then
    echo "CI FAIL: gc.segments_reclaimed missing from ${build_dir}/BENCH_soak.json" >&2
    exit 1
  fi
  flat=$(awk -F': ' '/"label": "segment-log end\/mid used"/{grab=1}
                     grab && /"measured"/{gsub(/,/,"",$2); print $2; exit}' \
         "${build_dir}/BENCH_soak.json")
  if [[ -z "${flat}" ]] || ! awk -v r="${flat}" 'BEGIN{exit !(r <= 1.10)}'; then
    echo "CI FAIL: segment-log soak space not flat (end/mid = ${flat:-missing})" >&2
    exit 1
  fi

  # Cross-epoch dedup: content first stored in an earlier epoch must keep
  # resolving to index hits over the long horizon, not just within a flush.
  xhits=$(awk -F': ' '/"label": "cross-epoch dedup hits"/{grab=1}
                      grab && /"measured"/{gsub(/,/,"",$2); print $2; exit}' \
          "${build_dir}/BENCH_soak.json")
  if [[ -z "${xhits}" ]] || ! awk -v h="${xhits}" 'BEGIN{exit !(h > 0)}'; then
    echo "CI FAIL: no cross-epoch dedup hits in the soak (hits = ${xhits:-missing})" >&2
    exit 1
  fi

  # Warm-standby failover: promotion must restore the dirty delta, not the
  # full image (>= 4x faster than the cold path), and no run — including the
  # mid-stream-crash period sweep — may ever promote a torn image.
  (cd "${build_dir}" && ./bench/bench_replication >/dev/null)
  repl_ratio=$(awk -F': ' '/"label": "delta\/cold failover ratio"/{grab=1}
                           grab && /"measured"/{gsub(/,/,"",$2); print $2; exit}' \
               "${build_dir}/BENCH_replication.json")
  if [[ -z "${repl_ratio}" ]] || ! awk -v r="${repl_ratio}" 'BEGIN{exit !(r < 0.25)}'; then
    echo "CI FAIL: delta failover not < 0.25x of cold restore (ratio = ${repl_ratio:-missing})" >&2
    exit 1
  fi
  torn=$(awk -F': ' '/"label": "torn promotions"/{grab=1}
                     grab && /"measured"/{gsub(/,/,"",$2); print $2; exit}' \
         "${build_dir}/BENCH_replication.json")
  if [[ -z "${torn}" ]] || ! awk -v t="${torn}" 'BEGIN{exit !(t == 0)}'; then
    echo "CI FAIL: torn promotions in replication bench (count = ${torn:-missing})" >&2
    exit 1
  fi
done

# UBSan-only configuration: near-native speed, so the undefined-behavior
# matrix can cover the lint engine, the crash/restore paths, the wire
# format's byte decoders and the store's one read-verify-decode path over
# media bytes (clean, faulted, relocated and deduplicated) directly.
echo "=== configure/build: ubsan ==="
cmake --preset ubsan
ubsan_tests=(lint_test crash_matrix_test wire_format_fuzz_test replication_test
             backend_conformance_test objstore_test fault_matrix_test segment_gc_test
             dedup_test)
cmake --build --preset ubsan -j "${jobs}" --target "${ubsan_tests[@]}"
for t in "${ubsan_tests[@]}"; do
  "build-ubsan/tests/${t}" >/dev/null
done

# clang-tidy over src/ + tools/ with the curated .clang-tidy profile. The
# container image does not ship clang-tidy, so its absence is tolerated — but
# when present, every warning is a hard failure.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy (warnings are errors) ==="
  mapfile -t tidy_files < <(find src tools -name '*.cc' | sort)
  clang-tidy -p build --quiet --warnings-as-errors='*' "${tidy_files[@]}"
else
  echo "=== clang-tidy not found; skipping tidy pass ==="
fi
