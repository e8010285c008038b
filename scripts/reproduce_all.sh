#!/usr/bin/env bash
# Reproduce every table and figure of the ASAP paper's evaluation
# (the counterpart of the artifact's run_all.sh + reproduce_results.py).
#
# Usage: scripts/reproduce_all.sh [results_dir] [--quick] [--ops N]
#   --quick  small-ops pass of every bench (smoke the full pipeline,
#            including the crash-injection campaign, in minutes)
set -euo pipefail

RESULTS="${1:-results}"
shift || true
BUILD="${BUILD:-build}"

QUICK=0
ARGS=()
for a in "$@"; do
    if [ "$a" = "--quick" ]; then QUICK=1; else ARGS+=("$a"); fi
done
if [ "$QUICK" = 1 ]; then
    ARGS+=(--ops 50)
fi

if [ ! -d "$BUILD" ]; then
    echo "building into $BUILD..."
    cmake -B "$BUILD" -G Ninja
    cmake --build "$BUILD"
fi

mkdir -p "$RESULTS"
for bench in fig02_epochs fig03_pb_stalls fig08_performance \
             fig09_writes fig10_scaling fig11_pb_occupancy \
             fig12_rt_occupancy fig13_bandwidth tab05_hwcost \
             ablation_sensitivity crash_campaign crash_permute \
             media_sweep; do
    echo "=== $bench ==="
    EXTRA=()
    if [ "$bench" = crash_campaign ] && [ "$QUICK" = 1 ]; then
        EXTRA+=(--ticks 8)
    fi
    if [ "$bench" = crash_permute ]; then
        # Every reachable post-crash state per injection point; the
        # default 12 ticks/config already covers all models, so the
        # quick pass just trims the tick count further.
        if [ "$QUICK" = 1 ]; then EXTRA+=(--ticks 4); fi
    fi
    if [ "$bench" = media_sweep ] && [ "$QUICK" = 1 ]; then
        # One workload across every registered profile keeps the
        # quick pass short while still exercising the media axis.
        EXTRA+=(--workload cceh)
    fi
    "$BUILD/bench/$bench" ${ARGS[@]+"${ARGS[@]}"} \
        ${EXTRA[@]+"${EXTRA[@]}"} \
        --json "$RESULTS/$bench.json" | tee "$RESULTS/$bench.txt"
    echo
done
echo "results written to $RESULTS/"
