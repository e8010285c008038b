#!/usr/bin/env python3
"""Build and run the ASAP simulator's end-to-end benchmark.

    python3 perfbench/run.py --workload fig08|crash|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first call configures and
builds perfbench/ (a CMake project compiling ../src) into
$CARGO_TARGET_DIR, or .bench_build, under the checkout; later calls
only rebuild what changed. Build output goes to stderr; the last line
on stdout is the benchmark's JSON result. Artifacts (sweep JSON/CSV,
span traces, self-time tables, host records) land in <build dir>/out.

--self-test runs every workload at a tiny size, checks that each metric
BENCHMARK.json names is printed with its unit, and checks that a
permute job with an injected drop-undo fault is counted in fail_frac.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Generous for the benchmark itself (--seconds plus one more round);
# keeps every run inside the 180 s a run may take.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    """The build tree: $CARGO_TARGET_DIR when it lies inside the
    checkout, else .bench_build."""
    env = os.environ.get("CARGO_TARGET_DIR")
    if env:
        p = (ROOT / env).resolve()
        if p == ROOT or ROOT in p.parents:
            return p
    return ROOT / ".bench_build"


def build():
    """Configure (once) and build the benchmark; return the binary."""
    if not (ROOT / "src" / "harness" / "runner.hh").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a "
             "full source checkout")
    bdir = build_dir() / "perfbench"
    cache = bdir / "CMakeCache.txt"
    if cache.is_file():
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}"
        if home not in cache.read_text(errors="replace").splitlines():
            shutil.rmtree(bdir)  # configured for another checkout
    jobs = str(min(os.cpu_count() or 1, 8))
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return bdir / "perfbench"


def run(binary, args):
    """Run the benchmark binary; return (exit code, stdout text)."""
    out_dir = build_dir() / "out"
    try:
        p = subprocess.run([str(binary), *args, "--out", str(out_dir)],
                           stdout=subprocess.PIPE, text=True, cwd=ROOT,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    return p.returncode, p.stdout


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, out = run(binary, ["--workload", w["name"], "--seed", "1",
                                     "--seconds", "0.1", "--trace",
                                     str(trace), "--size", "tiny"])
            res = last_json(out) if code == 0 else None
            where = f"{w['name']} --trace {trace}"
            if res is None:
                problems.append(f"{where}: exit {code}, no result")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
            if res.get("correct") is not True or res.get("failed") != 0:
                problems.append(f"{where}: checks failed: {res}")
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in got.keys() & want[trace].keys()
                               if got[k] != want[trace][k])
                problems.append(f"{where}: missing {missing}, "
                                f"unlisted {extra}, wrong unit {units}")
            print(f"perfbench self-test: {where}: "
                  f"{len(got)} metrics, {res['attempted']} checks",
                  file=sys.stderr)
    code, out = run(binary, ["--fault-check"])
    res = last_json(out)
    frac = res["metrics"]["fail_frac"]["value"] if res else 0
    if code != 0 or not frac > 0:
        problems.append("drop-undo fault job not counted in fail_frac")
    for p in problems:
        print(f"perfbench self-test: FAIL: {p}", file=sys.stderr)
    print("perfbench self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if a.self_test:
        return self_test(binary)
    code, out = run(binary, ["--workload", a.workload, "--seed",
                             str(a.seed), "--seconds", str(a.seconds),
                             "--trace", str(a.trace)])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
