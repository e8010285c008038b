#!/usr/bin/env bash
# CI-style check: configure and build with warnings as errors, run the
# test suite (plus an ASan+UBSan pass of it), then smoke a small
# parallel sweep through the exp engine and make sure its output is
# independent of the worker count.
#
# Usage: scripts/check.sh [build_dir]
#   ASAP_SANITIZE=thread scripts/check.sh build-tsan   # TSan vetting
set -euo pipefail

BUILD="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

CMAKE_ARGS=("-DCMAKE_CXX_FLAGS=-Werror")
if [ -n "${ASAP_SANITIZE:-}" ]; then
    CMAKE_ARGS+=("-DASAP_SANITIZE=${ASAP_SANITIZE}")
fi

cmake -B "$BUILD" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

# Tier-1 again under ASan+UBSan (unless this run already selected a
# sanitizer): memory errors and undefined behaviour fail the gate.
if [ -z "${ASAP_SANITIZE:-}" ]; then
    cmake -B "$BUILD-asan" -S . -DCMAKE_CXX_FLAGS=-Werror \
        -DASAP_SANITIZE=address,undefined
    cmake --build "$BUILD-asan" -j "$JOBS" --target asap_tests
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ctest --test-dir "$BUILD-asan" --output-on-failure -j "$JOBS"
fi

# Parallel-sweep smoke check: a real figure bench, 4 workers, and the
# determinism guarantee (stdout byte-identical to a serial run).
# A populated disk cache would change the (truthful) accounting line
# between the two runs, so keep it out of this comparison.
unset ASAP_CACHE_DIR
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
"$BUILD/bench/fig08_performance" --jobs 4 --ops 50 \
    --json "$TMP/fig08.json" > "$TMP/fig08_par.txt"
"$BUILD/bench/fig08_performance" --jobs 1 --ops 50 \
    > "$TMP/fig08_ser.txt"
diff "$TMP/fig08_par.txt" "$TMP/fig08_ser.txt"
grep -q '"uniqueRuns"' "$TMP/fig08.json"

# Quick crash-injection campaign: a handful of power-failure points
# through the checker. The bench exits non-zero (with a --repro line
# per failure) if any verdict is inconsistent, and under
# ASAP_SANITIZE=thread this doubles as a TSan pass over the verdict
# plumbing (crash jobs fan out across the pool like any sweep).
"$BUILD/bench/crash_campaign" --jobs 4 --ops 30 --ticks 5 \
    --workload cceh --json "$TMP/campaign.json" \
    | tee "$TMP/campaign.txt"
grep -q ' 0 inconsistent' "$TMP/campaign.txt"
grep -q '"kind": "crash"' "$TMP/campaign.json"

# Crash-state permuter smoke: every reachable post-crash state at each
# injection point, exhaustively (the bound is generous for 30-op
# runs), must pass the checker — the table asserts 100% coverage and
# 0 inconsistent, and the artifact carries the coverage columns.
# Small ops keep this sanitizer-compatible (ASAP_SANITIZE=address
# runs the full enumeration under ASan like any other bench).
"$BUILD/bench/crash_permute" --jobs 4 --ops 30 --ticks 6 \
    --workload cceh --json "$TMP/permute.json" \
    | tee "$TMP/permute.txt"
grep -q ' 0 inconsistent' "$TMP/permute.txt"
grep -qE '  100\.0 ' "$TMP/permute.txt"
! grep -q 'TRUNCATED' "$TMP/permute.txt"
grep -q '"kind": "permute"' "$TMP/permute.json"
grep -q '"statesChecked"' "$TMP/permute.json"

# Permuter engine parity: the naive (pre-incremental) check loop, the
# default incremental engine and the parallel path (8 segment workers)
# must report identical verdicts and coverage — stdout matches apart
# from the host-side states/s column of the coverage table, which is
# the one timing-dependent field. Under ASAP_SANITIZE=thread the
# --permute-jobs run doubles as the TSan pass over segment workers
# sharing one CheckerIndex and delta-check scope.
strip_rate() { sed -E 's/[[:space:]]+[0-9.]+$|[[:space:]]+-$//'; }
strip_rate < "$TMP/permute.txt" > "$TMP/engine_default.txt"
"$BUILD/bench/crash_permute" --jobs 4 --ops 30 --ticks 6 \
    --workload cceh --engine naive | strip_rate \
    > "$TMP/engine_naive.txt"
"$BUILD/bench/crash_permute" --jobs 4 --ops 30 --ticks 6 \
    --workload cceh --permute-jobs 8 | strip_rate \
    > "$TMP/engine_par.txt"
diff "$TMP/engine_default.txt" "$TMP/engine_naive.txt"
diff "$TMP/engine_default.txt" "$TMP/engine_par.txt"

# --repro smoke: with the drop-undo fault hook the permute campaign
# finds inconsistent states (exit 1), and its first printed repro line
# (build/ swapped for $BUILD) must replay one: exit 1, INCONSISTENT,
# the same first-bad mask. The canonical post-crash state at that
# point is consistent, so crash_campaign --repro there exits 0.

# status_of OUT CMD...: run CMD with stdout to OUT, print its status.
status_of() {
    local status=0
    "${@:2}" > "$1" || status=$?
    echo "$status"
}
[ "$(status_of "$TMP/fault.txt" "$BUILD/bench/crash_permute" \
    --ops 100 --ticks 6 --workload queue --models asap_rp \
    --inject-fault drop-undo)" -eq 1 ]

# Engine parity on inconsistent states: the naive engine and the
# parallel path must print the same verdicts, first-bad states and
# messages as the default run (rate column stripped as above).
for engine_args in "--engine naive" "--permute-jobs 8"; do
    read -r -a EXTRA <<< "$engine_args"
    [ "$(status_of "$TMP/fault_alt.txt" "$BUILD/bench/crash_permute" \
        --ops 100 --ticks 6 --workload queue --models asap_rp \
        --inject-fault drop-undo "${EXTRA[@]}")" -eq 1 ]
    diff <(strip_rate < "$TMP/fault.txt") \
        <(strip_rate < "$TMP/fault_alt.txt")
done

REPRO="$(sed -n 's#^  repro: build/##p' "$TMP/fault.txt" | head -n 1)"
MASK="${REPRO##* --state }"
read -r -a ARGS <<< "$REPRO"
[ "$(status_of "$TMP/repro.txt" "$BUILD/${ARGS[0]}" "${ARGS[@]:1}")" \
    -eq 1 ]
grep -q '^verdict: INCONSISTENT$' "$TMP/repro.txt"
grep -qF "(first bad mask $MASK)" "$TMP/repro.txt"
read -r -a ARGS <<< "$(sed -E 's/crash_permute/crash_campaign/
    s/ --(bound|sample-seed|inject-fault|state) [^ ]+//g' <<< "$REPRO")"
"$BUILD/${ARGS[0]}" "${ARGS[@]:1}" > "$TMP/repro_crash.txt"
grep -q '^verdict: CONSISTENT$' "$TMP/repro_crash.txt"

# Media-model smoke check: two profiles through the media sweep (the
# non-default one exercises the bandwidth-cap queue and the media
# columns in the artifact). Small ops keep this TSan-compatible.
"$BUILD/bench/media_sweep" --jobs 4 --ops 30 --workload cceh \
    --profiles paper-table2,slow-nvm --json "$TMP/media.csv" > /dev/null
grep -q '^workload,.*,media,' "$TMP/media.csv"
grep -q ',slow-nvm,' "$TMP/media.csv"

# Trace record/replay smoke check: cold run records TraceSets in the
# shared directory, warm run replays them (table byte-identical, every
# generation skipped — the JSON header counts the disk replays).
# Small ops keep this TSan-compatible.
export ASAP_TRACE_DIR="$TMP/traces"
"$BUILD/bench/fig02_epochs" --jobs 2 --ops 40 \
    > "$TMP/trace_cold.txt"
"$BUILD/bench/fig02_epochs" --jobs 2 --ops 40 \
    --json "$TMP/trace_warm.json" > "$TMP/trace_warm.txt"
unset ASAP_TRACE_DIR
diff "$TMP/trace_cold.txt" "$TMP/trace_warm.txt"
grep -q '"traceMisses": 0' "$TMP/trace_warm.json"
grep -qE '"traceDiskHits": [1-9]' "$TMP/trace_warm.json"

# Kernel-throughput smoke: the bench must run and emit its artifact;
# the events/sec numbers are hardware-dependent and non-gating.
"$BUILD/bench/kernel_bench" --ops 60 --reps 1 \
    --json "$TMP/kernel.json" > /dev/null
grep -q '"kernel-chain"' "$TMP/kernel.json"

# Disk-tier warm rerun: a second run over the same ASAP_CACHE_DIR is
# served entirely from the cache (the accounting line says so) and
# writes a CSV artifact byte-identical to an uncached run's.
"$BUILD/bench/fig08_performance" --ops 50 \
    --json "$TMP/fig08_uncached.csv" > /dev/null
export ASAP_CACHE_DIR="$TMP/warm-cache"
"$BUILD/bench/fig08_performance" --ops 50 > /dev/null
"$BUILD/bench/fig08_performance" --ops 50 \
    --json "$TMP/fig08_warm.csv" > "$TMP/fig08_warm.txt"
unset ASAP_CACHE_DIR
diff "$TMP/fig08_uncached.csv" "$TMP/fig08_warm.csv"
grep -q ' 0 simulated,' "$TMP/fig08_warm.txt"

# Serving-scenario smoke: the streaming subsystem's guarantees, held
# the same way as everything above. Stdout must be byte-identical
# across worker counts, the CSV must carry the persist-latency tail
# columns, and a 10x-longer run must not grow peak RSS by more than
# 2x (the constant-memory claim — materialized traces would grow
# linearly). Small request counts keep this TSan-compatible.
"$BUILD/bench/serve_bench" --jobs 4 --ops 400 --cores 4 \
    --scenario kv-zipf,tenant-mix --json "$TMP/serve.csv" \
    > "$TMP/serve_par.txt"
"$BUILD/bench/serve_bench" --jobs 1 --ops 400 --cores 4 \
    --scenario kv-zipf,tenant-mix > "$TMP/serve_ser.txt"
diff "$TMP/serve_par.txt" "$TMP/serve_ser.txt"
grep -q 'persistP999' "$TMP/serve.csv"
grep -q '^serve:kv-zipf,' "$TMP/serve.csv"
"$BUILD/bench/serve_bench" --jobs 1 --ops 1000 --cores 4 \
    --scenario kv-zipf --models asap_rp \
    > /dev/null 2> "$TMP/serve_rss_small.txt"
"$BUILD/bench/serve_bench" --jobs 1 --ops 10000 --cores 4 \
    --scenario kv-zipf --models asap_rp \
    > /dev/null 2> "$TMP/serve_rss_big.txt"
RSS_SMALL="$(sed -n 's/^\[rss\] peak \([0-9]*\) KB$/\1/p' "$TMP/serve_rss_small.txt")"
RSS_BIG="$(sed -n 's/^\[rss\] peak \([0-9]*\) KB$/\1/p' "$TMP/serve_rss_big.txt")"
[ -n "$RSS_SMALL" ] && [ -n "$RSS_BIG" ]
[ "$RSS_BIG" -le "$((RSS_SMALL * 2))" ]

# Heterogeneous-media serve sweep: the per-MC media list switches on
# the media columns, and each row is labelled with the '+'-joined
# profile list.
"$BUILD/bench/serve_bench" --jobs 4 --ops 200 --cores 4 --mcs 2 \
    --scenario kv-zipf --media-per-mc paper-table2,cxl-dram \
    --json "$TMP/serve_hetero.csv" > /dev/null
grep -q '^workload,.*,media,' "$TMP/serve_hetero.csv"
grep -q '^serve:kv-zipf,.*,paper-table2+cxl-dram,' "$TMP/serve_hetero.csv"

# Common flags: every engine-backed bench takes --profile (and prints
# the host-time breakdown on stderr), and the crash benches list the
# workload registry like the others.
profile_run() {
    "$BUILD/bench/$1" "${@:2}" --jobs 2 --profile > /dev/null \
        2> "$TMP/profile.txt"
    grep -q '^\[profile\] ' "$TMP/profile.txt"
}
for bench in fig02_epochs fig03_pb_stalls fig08_performance \
             fig09_writes fig10_scaling fig11_pb_occupancy \
             fig12_rt_occupancy ablation_sensitivity; do
    profile_run "$bench" --ops 10 --workload queue
done
profile_run fig13_bandwidth --ops 10
profile_run crash_campaign --ops 10 --ticks 2 --workload queue
profile_run crash_permute --ops 10 --ticks 2 --workload queue
profile_run media_sweep --ops 10 --workload queue --profiles paper-table2
profile_run serve_bench --ops 100 --scenario kv-zipf
"$BUILD/bench/crash_campaign" --list-workloads | grep -q '^cceh '
"$BUILD/bench/crash_permute" --list-workloads | grep -q '^cceh '

# Usage errors exit 2: crash_campaign rejects the permute-only flags,
# and every bench that takes --models rejects an unknown model.
expect_usage_error() {
    [ "$(status_of /dev/null "$BUILD/bench/$1" "${@:2}" 2> /dev/null)" \
        -eq 2 ]
}
expect_usage_error crash_campaign --bound 5
for bench in crash_campaign crash_permute media_sweep serve_bench; do
    expect_usage_error "$bench" --models bogus_rp
done
# A numeric flag must be one whole unsigned number: these values were
# once read as 30 and 4 (harmless if misparsed, so safe to try).
expect_usage_error crash_campaign --ops 30x
expect_usage_error fig08_performance --jobs 4x

# The benchmark's self-test (perfbench/, a Release build of its own):
# every workload at a tiny size, traced and untraced, at 1 and nproc
# workers. Its crash workload is the one sweep here that checks each
# crash point with both a Crash and a Permute job, so this also runs
# the engine's shared-simulation path against the benchmark's digest,
# cold-cache accounting and artifact row checks.
CARGO_TARGET_DIR="$BUILD/perfbench-selftest" python3 perfbench/run.py \
    --self-test

echo "check.sh: -Werror build, tests, ASan+UBSan tests, parallel sweep, crash campaign, crash-state permuter, engine parity, --repro replay, media sweep, trace replay, kernel bench, warm rerun, serving scenarios, heterogeneous-media serving, common bench flags, usage errors and the benchmark self-test all passed"
