#!/usr/bin/env python3
"""Builds and runs the parsemi benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload uniform-1e7 --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the library it links) into .bench_build/, runs the
harness, and relays its output. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics named in BENCHMARK.json, with --trace 1 the
per-layer metrics; the metric names and units are checked against that file
before the result is printed. Exits non-zero, printing no result, when the
build fails, the harness fails, or its metrics do not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "out")
SPILL_DIR = os.path.join(".bench_build", "spill")
HARNESS_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join("src", "core", "semisort.h")):
        fail("src/ not found: run from the root of a parsemi checkout")
    configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the library sources (checkouts handed to the benchmark carry no .git)."""
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "commit:" + r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:12]


def check_metrics(result, trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result.get("metrics", {})
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}", 3)
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail(f"{name}: unit {m.get('unit')!r}, declared {want[name]!r}", 3)
        if not isinstance(m.get("value"), (int, float)):
            fail(f"{name}: value {m.get('value')!r} is not a number", 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    os.makedirs(SPILL_DIR, exist_ok=True)
    # The library reads PARSEMI_* overrides (paths, thread counts, budgets)
    # from the environment; the benchmark pins every choice itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PARSEMI_")}
    env["PARSEMI_SPILL_DIR"] = SPILL_DIR
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--source-id", source_id()]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"harness exited with code {run.returncode}", run.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(run.stdout)
        fail("harness printed no result line")
    check_metrics(result, args.trace)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
