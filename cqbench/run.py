#!/usr/bin/env python3
"""Containment-service benchmark entry point.

    python3 cqbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 cqbench/run.py --steadiness K [--seed N] [--seconds S] [--workloads a,b]
    python3 cqbench/run.py --selftest

Run from the repository root. Builds the library, the verdict_authorityd
daemon and the benchmark driver from source (cqbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/cqbench (default .bench_build/cqbench), runs one workload,
checks the result and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its per_layer
metrics. Exits non-zero, printing no result, when the sources are missing, the
build fails, a verdict is wrong, or a process or temporary directory is left
behind.

--steadiness K runs every workload K times (seeds N..N+K-1, N from --seed,
default 1) and prints, per end-to-end metric, the median and the
interquartile spread as a share of the median (statistics.quantiles, n=4),
flagging spreads above the metric's bound.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"cqbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "cqbench")


def build(bdir):
    """Configures once, then builds (a no-op when up to date)."""
    for needed in ("src/engine/engine.h", "tools/verdict_authorityd.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"library source {needed} not found next to the benchmark")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def ancestors():
    """This process and the processes that started it (a shell whose command
    line names the run's directory is not a leftover)."""
    pids = set()
    pid = os.getpid()
    while pid > 1 and pid not in pids:
        pids.add(pid)
        try:
            with open(f"/proc/{pid}/stat") as f:
                pid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            break
    return pids


def processes_using(path):
    """PIDs whose command line mentions `path` (leftover daemons)."""
    pids = []
    mine = ancestors()
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) in mine:
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if path in cmd:
            pids.append(int(entry))
    return pids


def run_driver(bdir, workload, seed, seconds, trace):
    """Runs one workload; returns cqbench_driver's result object or exits."""
    workdir = os.path.join(bdir, "tmp")
    shutil.rmtree(workdir, ignore_errors=True)  # leftovers of a killed run
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(bdir, "cqbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        for pid in processes_using(workdir):
            os.kill(pid, 9)
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s", 4)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    # Hermetic lifecycle: nothing the run started may outlive it.
    left = processes_using(workdir)
    leftovers = os.listdir(workdir) if os.path.isdir(workdir) else []
    if left or leftovers:
        for pid in left:
            os.kill(pid, 9)
        fail(f"{workload}: left behind processes {left} / entries {leftovers}", 5)
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: driver exited {proc.returncode}", 3)
    return json.loads(lines[-1])


def result_for(spec, raw, trace):
    names = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in names:
        got = raw["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from cqbench_driver's output", 6)
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, expected {m['unit']}", 6)
        if not math.isfinite(got["value"]):
            fail(f"metric {m['name']} is not finite", 6)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def steadiness(spec, bdir, k, first_seed, seconds, workloads):
    """Runs each workload k times (seeds first_seed, first_seed + 1, ...)
    and reports median and quartile spread."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(first_seed, first_seed + k):
            started = time.monotonic()
            res = result_for(spec, run_driver(bdir, w, seed, seconds, 0), False)
            print(f"  {w} seed {seed}: {time.monotonic() - started:.1f} s, "
                  f"{res['attempted']} attempted, {res['failed']} failed",
                  file=sys.stderr)
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print(f"{w} ({k} runs)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) >= 2 else [med] * 3
            spread = (q[2] - q[0]) / abs(med) if med else 0.0
            flag = ""
            if spread > bounds[name]:
                flag = "  <-- spread exceeds bound"
                flagged += 1
            print(f"  {name:16s} median {med:14.6f}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.3f}{flag}")
            print("      runs: " + " ".join(f"{v:.6g}" for v in vals))
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="K")
    ap.add_argument("--workloads", help="comma list for --steadiness")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the repository root")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bdir = build_dir()
    build(bdir)

    if args.selftest:
        sys.exit(subprocess.run([os.path.join(bdir, "cqbench_selftest")]).returncode)
    if args.steadiness:
        names = [w["name"] for w in spec["workloads"]]
        if args.workloads:
            names = args.workloads.split(",")
        sys.exit(1 if steadiness(spec, bdir, args.steadiness, args.seed, seconds, names) else 0)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    raw = run_driver(bdir, args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result_for(spec, raw, args.trace == 1)))


if __name__ == "__main__":
    main()
