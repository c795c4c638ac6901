#!/usr/bin/env bash
# Tier-1 verification: configure, build everything (library, test
# binaries, benches, examples), run the full CTest suite, smoke-run
# the search-strategy, pareto-front, and mapspace-pruning ablations,
# run the evaluation-daemon smoke (serve over TCP, snapshot, restart,
# assert warm cache hits), build and smoke-run the end-to-end
# benchmark (benchmark/run.py --smoke, which builds benchmark/ against
# src/ so an API change that breaks it fails here), check intra-repo
# markdown links, and — when doxygen is installed — run the API-docs
# check (warnings in src/model, src/mapper, and src/common are errors,
# mirroring the CI docs job). A second explicit Release (-O2/NDEBUG) build-and-ctest
# pass runs alongside the default config; skip it with
# SPARSELOOP_SKIP_RELEASE=1. The engine perf gate (Release
# microbenchmark vs the committed bench/baselines/BENCH_engine.json)
# can be skipped with SPARSELOOP_SKIP_PERF=1. Set SPARSELOOP_TSAN=1
# to additionally build the concurrency suites under ThreadSanitizer
# and run them (mirrors the CI tsan job; off by default because the
# instrumented build roughly doubles verify time).
# Usage: scripts/verify.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j
ctest --test-dir "${build_dir}" --output-on-failure -j

echo "== search-strategy ablation smoke (valid-rate ~= 1.0 under constraints) =="
"${build_dir}/bench/ablation_search_strategies"

echo "== pareto-front ablation smoke (hypervolume per strategy, front determinism) =="
"${build_dir}/bench/ablation_pareto_front"

echo "== mapspace pruning ablation smoke (per-pass sizes, losslessness) =="
"${build_dir}/bench/ablation_mapspace_pruning"

echo "== daemon smoke (serve, evaluate, snapshot, restart, warm hits) =="
"${repo_root}/scripts/daemon_smoke.sh" "${build_dir}"

echo "== end-to-end benchmark smoke (builds benchmark/ against src/) =="
(cd "${repo_root}" && python3 benchmark/run.py --smoke)

if [[ "${SPARSELOOP_SKIP_RELEASE:-0}" != "1" ]]; then
    echo "== Release (-O2/NDEBUG) build-and-ctest =="
    release_dir="${build_dir}-release"
    cmake -B "${release_dir}" -S "${repo_root}" \
        -DCMAKE_BUILD_TYPE=Release
    cmake --build "${release_dir}" -j
    ctest --test-dir "${release_dir}" --output-on-failure -j
    echo "== mapspace pruning ablation (Release, billion-point sizes) =="
    "${release_dir}/bench/ablation_mapspace_pruning"
fi

if [[ "${SPARSELOOP_TSAN:-0}" == "1" ]]; then
    echo "== ThreadSanitizer: pool/batch/differential/search suites =="
    tsan_dir="${build_dir}-tsan"
    cmake -B "${tsan_dir}" -S "${repo_root}" \
        -DCMAKE_BUILD_TYPE=Debug \
        -DSPARSELOOP_BUILD_BENCH=OFF \
        -DSPARSELOOP_BUILD_EXAMPLES=OFF \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
    cmake --build "${tsan_dir}" -j
    # Serial on purpose: TSan instrumentation is memory-hungry, and a
    # bare -j before -L makes older ctest eat the filter.
    ctest --test-dir "${tsan_dir}" --output-on-failure -L tsan
fi

if [[ "${SPARSELOOP_SKIP_PERF:-0}" != "1" ]]; then
    echo "== engine perf gate (fresh run vs committed baseline) =="
    "${repo_root}/scripts/run_perf.sh" "${build_dir}-perf/BENCH_engine.json" \
        "${build_dir}-perf"
    python3 "${repo_root}/scripts/check_bench_regression.py" \
        "${build_dir}-perf/BENCH_engine.json" \
        --baseline "${repo_root}/bench/baselines/BENCH_engine.json"
else
    echo "== engine perf gate skipped (SPARSELOOP_SKIP_PERF=1) =="
fi

echo "== docs link check (intra-repo markdown links) =="
"${repo_root}/scripts/check_docs_links.sh"

if command -v doxygen >/dev/null 2>&1; then
    echo "== docs check (doxygen, warnings are errors) =="
    (cd "${repo_root}" && doxygen docs/Doxyfile)
else
    echo "== docs check skipped: doxygen not installed =="
fi
