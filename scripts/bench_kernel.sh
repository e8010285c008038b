#!/usr/bin/env bash
# Regenerate BENCH_kernel.json: the event-kernel throughput record
# (best-of-reps events/s per workload x model, plus the raw
# kernel-chain row), stamped with the host and its CPU count.
# Throughput is host-dependent and swings between runs on a shared
# machine; compare records from the same host only.
#
# Usage: scripts/bench_kernel.sh [build_dir] [out_json]
set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-BENCH_kernel.json}"
OPS="${ASAP_KERNEL_BENCH_OPS:-400}"
REPS="${ASAP_KERNEL_BENCH_REPS:-3}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

unset ASAP_CACHE_DIR ASAP_TRACE_DIR

"$BUILD/bench/kernel_bench" --ops "$OPS" --reps "$REPS" \
    --json "$TMP/kernel.json" > "$TMP/kernel.txt"

{
    printf '{\n'
    printf '  "bench": "kernel",\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "host": "%s",\n' "$(uname -sr)"
    printf '  "cpus": %s,\n' "$(nproc)"
    printf '  "sequential": '
    cat "$TMP/kernel.json"
    printf '}\n'
} > "$OUT"

echo "bench_kernel.sh: wrote $OUT"
cat "$TMP/kernel.txt"
