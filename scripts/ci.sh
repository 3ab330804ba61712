#!/usr/bin/env bash
# CI matrix for MEMPHIS: a plain release build plus AddressSanitizer,
# ThreadSanitizer, and UndefinedBehaviorSanitizer builds, each running the
# full tier-1 ctest suite (which includes the fuzz smoke and replay suites,
# and the memphis_lint invariant checks) and a short memphis_fuzz campaign
# over the default mode lattice.
# When clang++ is on PATH, a fourth "tsa" configuration compiles everything
# with -DMEMPHIS_THREAD_SAFETY=ON so the thread-safety annotations in
# src/common/sync.h are verified as compile errors; it is skipped (with a
# notice) on hosts without clang. The plain configuration also runs
# clang-tidy over the compile database when clang-tidy is available.
#
# Usage:
#   scripts/ci.sh            # full matrix: plain, asan, tsan, ubsan [, tsa]
#   scripts/ci.sh plain      # one configuration
#   FUZZ_RUNS=500 scripts/ci.sh asan
#   PERSIST_KILLS=1000 scripts/ci.sh plain   # longer kill-replay campaign
#
# Build trees land in build-ci-<config>/ (kept between runs for incremental
# rebuilds). Exits non-zero on the first failing configuration.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
FUZZ_RUNS="${FUZZ_RUNS:-100}"
VERIFY_RUNS="${VERIFY_RUNS:-100}"
PERSIST_KILLS="${PERSIST_KILLS:-200}"
CONFIGS=("$@")
if [[ ${#CONFIGS[@]} -eq 0 ]]; then
  CONFIGS=(plain asan tsan ubsan)
  if command -v clang++ > /dev/null; then
    CONFIGS+=(tsa)
  else
    echo "--- clang++ not on PATH: skipping the tsa (thread-safety) config"
  fi
fi

# The invariant linter is cheap and source-only: run it before any build so
# a violation fails the pipeline in seconds. It also runs inside every
# configuration's ctest (as the memphis_lint / memphis_lint_selftest tests).
echo "=== memphis_lint (pre-build) ==="
python3 "${REPO_ROOT}/scripts/memphis_lint.py" --self-test
python3 "${REPO_ROOT}/scripts/memphis_lint.py" --root "${REPO_ROOT}"

run_config() {
  local config="$1"
  local build_dir="${REPO_ROOT}/build-ci-${config}"
  local sanitize=""
  local extra_flags=()
  case "${config}" in
    plain) sanitize=""
           extra_flags+=(-DCMAKE_EXPORT_COMPILE_COMMANDS=ON) ;;
    asan)  sanitize="address" ;;
    tsan)  sanitize="thread" ;;
    ubsan) sanitize="undefined" ;;
    tsa)
      # Clang Thread Safety Analysis build: GUARDED_BY/REQUIRES violations
      # are compile errors. Requires clang++ (the annotations are no-ops
      # under GCC, so a GCC "tsa" build would verify nothing).
      if ! command -v clang++ > /dev/null; then
        echo "--- [tsa] clang++ not on PATH: skipped"
        return 0
      fi
      extra_flags+=(-DCMAKE_CXX_COMPILER=clang++ -DMEMPHIS_THREAD_SAFETY=ON)
      ;;
    *) echo "unknown config '${config}' (want plain|asan|tsan|ubsan|tsa)" >&2
       return 2 ;;
  esac

  echo "=== [${config}] configure (MEMPHIS_SANITIZE='${sanitize}') ==="
  mkdir -p "${build_dir}"
  cmake -S "${REPO_ROOT}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=Release \
    -DMEMPHIS_SANITIZE="${sanitize}" \
    "${extra_flags[@]}" > "${build_dir}/ci-cmake.log" 2>&1 \
    || { cat "${build_dir}/ci-cmake.log"; return 1; }

  echo "=== [${config}] build (-j${JOBS}) ==="
  cmake --build "${build_dir}" -j "${JOBS}" > "${build_dir}/ci-build.log" 2>&1 \
    || { tail -50 "${build_dir}/ci-build.log"; return 1; }

  echo "=== [${config}] ctest ==="
  ctest --test-dir "${build_dir}" -j "${JOBS}" --output-on-failure

  if [[ "${config}" == "plain" ]]; then
    if command -v clang-tidy > /dev/null; then
      echo "=== [${config}] clang-tidy (best effort) ==="
      # Curated checks from .clang-tidy over the compile database. Findings
      # are reported but do not fail CI: host clang-tidy versions differ and
      # the blocking gates are memphis_lint and the tsa config.
      find "${REPO_ROOT}/src" -name '*.cc' -print0 \
        | xargs -0 clang-tidy -p "${build_dir}" --quiet \
        || echo "--- clang-tidy reported findings (non-blocking)"
    else
      echo "--- clang-tidy not on PATH: skipped"
    fi

    echo "=== [${config}] trace/metrics validation ==="
    # End-to-end observability check: run a three-backend workload with the
    # collector on, then assert the Chrome trace is Perfetto-loadable
    # (balanced spans, monotone timestamps, both clock domains) and the
    # metrics snapshot carries the report keys.
    (cd "${build_dir}" \
       && ./bench/bench_fig13b_pnmf --trace=ci-trace.json \
            --metrics=ci-metrics.json > /dev/null)
    python3 "${REPO_ROOT}/scripts/validate_trace.py" \
      "${build_dir}/ci-trace.json" "${build_dir}/ci-metrics.json"
  fi

  echo "=== [${config}] serve ==="
  # Serving-layer gate. Plain: the bench_serve smoke traffic must produce a
  # schema-valid BENCH_serve.json whose shared-cache mode materially beats
  # the per-session baseline's lineage hit rate. TSan: the concurrent-
  # submitter stress test re-runs with halt_on_error so any data race in
  # the serve subsystem fails this step by itself (ctest already ran the
  # whole serve suite; this is the targeted repeat for triage).
  if [[ "${config}" == "plain" ]]; then
    # This run doubles as the observer-effect gate: BENCH_serve.json carries
    # median request latencies with tracing+journal on vs off and
    # validate_bench fails if the observed requests are more than 3% slower.
    (cd "${build_dir}/bench" && ./bench_serve --smoke > /dev/null)
    python3 "${REPO_ROOT}/scripts/validate_bench.py" \
      "${build_dir}/bench/BENCH_serve.json"

    echo "=== [${config}] request explainability ==="
    # Re-run the smoke traffic with the collector and the journal on (cwd is
    # the build root so this BENCH_serve.json, which skips the observer
    # section, does not clobber the one validated above). The Chrome trace
    # must carry rid args + flow linkage on every serve-path span, and the
    # journal must be a complete record -- every probe with exactly one
    # hit-or-miss outcome, zero ring drops -- that memphis_explain can
    # verify and render per request.
    (cd "${build_dir}" \
       && ./bench/bench_serve --smoke --trace=ci-serve-trace.json \
            --journal=ci-serve-journal.json > /dev/null)
    python3 "${REPO_ROOT}/scripts/validate_trace.py" \
      "${build_dir}/ci-serve-trace.json" --require-rid
    "${build_dir}/src/memphis_explain" \
      "${build_dir}/ci-serve-journal.json" --verify
    "${build_dir}/src/memphis_explain" \
      "${build_dir}/ci-serve-journal.json" --request 1 > /dev/null

    echo "=== [${config}] flight recorder ==="
    # Inject a lock-rank inversion (validator forced on, no-abort mode); the
    # armed recorder must write a schema-valid post-mortem dump.
    flight_dump="$("${build_dir}/src/memphis_flight_probe" "${build_dir}" \
                   2> /dev/null)"
    python3 "${REPO_ROOT}/scripts/validate_flight.py" "${flight_dump}"
  elif [[ "${config}" == "tsan" ]]; then
    TSAN_OPTIONS=halt_on_error=1 "${build_dir}/tests/serve_test" \
      --gtest_filter='ServeStressTest.*' > /dev/null \
      || { echo "--- [tsan] serve stress test failed"; return 1; }
    echo "--- [tsan] serve stress test clean"
  else
    echo "--- [${config}] serve gate runs in plain/tsan only"
  fi

  if [[ "${config}" == "plain" ]]; then
    echo "=== [${config}] fusion ==="
    # Operator-fusion gate: the fused tile interpreter must keep its
    # one-memory-pass wall-clock edge on the elementwise-chain micro, never
    # add simulated cost on the paper pipelines, and leave every
    # fused-vs-unfused identity check at exactly 1 (bitwise results).
    (cd "${build_dir}/bench" && ./bench_fusion > /dev/null)
    python3 "${REPO_ROOT}/scripts/validate_bench.py" \
      "${build_dir}/bench/BENCH_fusion.json"

    echo "=== [${config}] persist ==="
    # Durable-tier gate, two halves. (1) The warm-restart bench: a second
    # SessionManager over the cold run's persist directory must serve every
    # tenant's first request from rehydrated disk state (warm first-request
    # hit rate > 0 vs an exact cold 0.0) with bitwise-identical answers.
    # (2) The kill-replay fuzz campaign: PERSIST_KILLS random crash points
    # (torn tails, flipped bits) against random segment logs, each of which
    # must recover to exactly the surviving-record oracle -- any divergence
    # writes a repro JSON into the corpus directory and fails this step.
    (cd "${build_dir}/bench" && ./bench_persist --smoke > /dev/null)
    python3 "${REPO_ROOT}/scripts/validate_bench.py" \
      "${build_dir}/bench/BENCH_persist.json"
    "${build_dir}/src/memphis_fuzz" --persist-kills "${PERSIST_KILLS}" \
      --seed 7 --corpus "${build_dir}/fuzz-corpus" \
      --persist-dir "${build_dir}/persist-fuzz-work"
  fi

  if [[ "${config}" == "plain" ]]; then
    echo "=== [${config}] geo-distributed serving fabric ==="
    # Fabric gate: the federated-serve smoke bench must show cross-site
    # reuse (shared hit rate > 0 vs an exact isolated 0.0), stale-bounded
    # async rounds strictly faster than the synchronous coordinator under
    # skewed site speeds, bitwise-identical aggregates on both comparisons,
    # and exactly-once site-kill accounting (completed + shed + failed_over
    # == affected). Virtual time makes every one of these exact, so the
    # validator has no noise allowances here.
    (cd "${build_dir}/bench" && ./bench_federated_serve --smoke > /dev/null)
    python3 "${REPO_ROOT}/scripts/validate_bench.py" \
      "${build_dir}/bench/BENCH_federated_serve.json"
  fi

  if [[ "${config}" == "plain" ]]; then
    echo "=== [${config}] static plan verifier ==="
    # Verifier gate, two halves. (1) Every repro pair in the checked-in fuzz
    # replay corpus must still reproduce its recorded divergence with the
    # full verifier forced on -- the verifier may never reject a plan the
    # Executor accepts. (2) A generate-and-verify campaign: VERIFY_RUNS
    # random programs across the whole lattice with --verify-plans, where
    # any verifier rejection classifies as a divergence and fails the step.
    shopt -s nullglob
    for script in "${REPO_ROOT}/fuzz/corpus"/*.dml; do
      "${build_dir}/src/memphis_fuzz" --replay "${script}" \
        --config "${script%.dml}.json" --verify-plans > /dev/null \
        || { echo "--- corpus repro failed under the verifier: ${script}"
             return 1; }
    done
    shopt -u nullglob
    "${build_dir}/src/memphis_fuzz" --runs "${VERIFY_RUNS}" --seed 11 \
      --verify-plans --corpus "${build_dir}/fuzz-corpus"
  fi

  echo "=== [${config}] memphis_fuzz --runs ${FUZZ_RUNS} ==="
  # The fuzz campaign must come back clean: any divergence is a real
  # compiler/runtime bug (the corpus pair is written for offline triage).
  "${build_dir}/src/memphis_fuzz" --runs "${FUZZ_RUNS}" --seed 1 \
    --corpus "${build_dir}/fuzz-corpus"

  echo "=== [${config}] OK ==="
}

for config in "${CONFIGS[@]}"; do
  run_config "${config}"
done
echo "=== CI matrix passed: ${CONFIGS[*]} ==="
