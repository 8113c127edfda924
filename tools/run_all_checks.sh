#!/usr/bin/env bash
# The whole pre-merge gauntlet in one command:
#   1. tier-1    — plain build + full ctest suite (the seed contract)
#   2. tsan      — concurrency slice under ThreadSanitizer (tools/run_tsan.sh)
#   3. crash     — fault + crash matrices under ASan (tools/run_crash_matrix.sh)
#   4. recovery  — warehouse kill-and-recover matrix, plain build (fast
#                  re-run of the §10 crash surface outside the ASan gate)
#   5. golden   — golden-corpus differential suites (every corpus flow at
#                  chunk sizes 1/7/1024/rows+1 on 1 and 4 workers against
#                  the frozen row-at-a-time records of tests/data/, plus
#                  the serving-path differential and the cube-query oracle)
#                  — each filter must select at least one test — the same
#                  filters again in the ASan build, and the chunk bench's
#                  --smoke mode, which re-checks TPC-H runs against the
#                  golden corpus and that the chunk kernels actually ran
#                  (DESIGN.md §8)
#   6. metrics   — two-way metric/doc lint (tools/check_metrics_doc.sh)
#   7. http      — telemetry-endpoint smoke: start quarry_httpd, curl all
#                  six endpoints, validate JSON with the in-tree parser
#                  (tools/run_http_smoke.sh)
#   8. load      — deterministic two-tenant sustained-load smoke: a
#                  closed-loop flooder vs a high-priority tenant, asserting
#                  the §11 priority-isolation invariants
#                  (tools/run_load_smoke.sh)
#   9. perfbench — configure + build (never run) the end-to-end benchmark
#                  program in perfbench/ against the current headers, so
#                  an API change that breaks the benchmark fails pre-merge
#
# Every step runs even after an earlier one fails, so one broken gate cannot
# mask another; the script prints a per-step PASS/FAIL summary at the end and
# exits non-zero if anything failed. The full-size ASan soak
# (tools/run_soak.sh) is not in the default gauntlet — the bounded soak
# already rides both the tier-1 suite and the tsan slice — but
# RUN_ALL_CHECKS_SOAK=1 adds it as a final step.
#
# Usage: tools/run_all_checks.sh [build-dir]
#   build-dir  defaults to build (the sanitizer scripts keep their own dirs)
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

declare -a step_names=()
declare -a step_results=()
failed=0

run_step() {
  local name="$1"
  shift
  echo
  echo "==== ${name}: $* ===="
  if "$@"; then
    step_results+=("PASS")
  else
    step_results+=("FAIL")
    failed=1
  fi
  step_names+=("${name}")
}

tier1() {
  cmake -B "${build_dir}" -S "${repo_root}" &&
    cmake --build "${build_dir}" -j "$(nproc)" &&
    ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
}

# The warehouse-recovery crash matrix re-run on the plain build: the ASan
# crash step already covers it, but this keeps a fast, sanitizer-free
# repro of the §10 kill-and-recover surface in the gauntlet even when the
# ASan build is what broke.
warehouse_recovery() {
  ctest --test-dir "${build_dir}" -R '^generation_persist_test$' \
    --output-on-failure
}

# Runs one gtest binary under a filter and fails when the filter selected
# no test: a suite renamed away must not pass as a 0-test run. (GoogleTest
# 1.12 has no --gtest_fail_if_no_test_selected, so the "[  PASSED  ] N"
# summary line is counted instead.)
run_filtered() {
  local binary="$1" filter="$2" out passed
  out="$("${build_dir}/tests/${binary}" --gtest_filter="${filter}" 2>&1)"
  local status=$?
  echo "${out}"
  passed="$(sed -n 's/^\[  PASSED  \] \([0-9]*\) test.*/\1/p' <<<"${out}")"
  if [[ "${status}" -ne 0 ]]; then
    return "${status}"
  fi
  if [[ -z "${passed}" || "${passed}" -eq 0 ]]; then
    echo "run_all_checks: ${binary} --gtest_filter='${filter}' ran no test"
    return 1
  fi
}

# Golden-corpus differential suites + bench smoke (DESIGN.md §8), plus the
# serving-path differential (cube queries vs. the loader path they
# replaced): every run is compared with the frozen row-at-a-time records,
# and the bench smoke re-checks TPC-H runs against them with the chunk
# kernels verifiably engaged (it exits non-zero when they never ran).
golden_differential() {
  run_filtered etl_parallel_test 'GoldenCorpusTest.*' &&
    run_filtered property_test '*GoldenCorpusProperty*' &&
    run_filtered olap_test 'CubeQueryFastPathTest.*' &&
    run_filtered olap_test 'CubeQueryOracle*'
}

# The golden, serving-path and oracle differentials again in the ASan
# build that the crash-matrix step configures (reconfigured here, so the
# step also stands alone): typed keys intern string_views into segment
# payloads, and a view that outlives its segment only shows up under ASan.
# run_filtered reads build_dir, which the local below rebinds.
golden_differential_asan() {
  local build_dir="${repo_root}/build-asan"
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DQUARRY_SANITIZE=address &&
    cmake --build "${build_dir}" -j "$(nproc)" \
      --target etl_parallel_test olap_test &&
    ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}" \
      run_filtered etl_parallel_test 'GoldenCorpusTest.*' &&
    ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}" \
      run_filtered olap_test 'CubeQueryFastPathTest.*:CubeQueryOracle*'
}

chunk_bench_smoke() {
  "${build_dir}/bench/bench_etl_vectorized" --smoke
}

# The benchmark compiles src/ and perfbench/src/ as its own CMake package
# (Release, library defaults); building it here, in a subdirectory of the
# build dir, catches a header change that breaks the benchmark's code.
perfbench_build() {
  cmake -S "${repo_root}/perfbench" -B "${build_dir}/perfbench" \
    -DCMAKE_BUILD_TYPE=Release &&
    cmake --build "${build_dir}/perfbench" -j "$(nproc)"
}

run_step "tier-1 build+ctest" tier1
run_step "tsan slice" "${repo_root}/tools/run_tsan.sh"
run_step "crash matrix (asan)" "${repo_root}/tools/run_crash_matrix.sh"
run_step "warehouse recovery" warehouse_recovery
run_step "golden differential" golden_differential
run_step "golden differential (asan)" golden_differential_asan
run_step "chunk bench smoke" chunk_bench_smoke
run_step "metrics doc lint" "${repo_root}/tools/check_metrics_doc.sh"
run_step "http smoke" "${repo_root}/tools/run_http_smoke.sh" "${build_dir}"
run_step "load smoke" "${repo_root}/tools/run_load_smoke.sh" "${build_dir}"
run_step "perfbench build" perfbench_build
if [[ "${RUN_ALL_CHECKS_SOAK:-0}" == "1" ]]; then
  run_step "serving soak (asan)" "${repo_root}/tools/run_soak.sh"
fi

echo
echo "==== run_all_checks summary ===="
for i in "${!step_names[@]}"; do
  printf '  %-28s %s\n' "${step_names[$i]}" "${step_results[$i]}"
done
if [[ "${failed}" -ne 0 ]]; then
  echo "==== run_all_checks FAILED ===="
  exit 1
fi
echo "==== run_all_checks passed ===="
