#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its result.

    python3 perfbench/run.py --workload dag10k --seed 1 --seconds 10 --trace 0

Builds the benchmark and the `minpower` worker binary with dune (from the
checkout this file sits in), records the run environment, runs the OCaml
benchmark, checks that its result line reports exactly the metrics that
BENCHMARK.json declares for the mode, and prints that line last. The exit
code is non-zero when the build fails, an output check fails, the run
exceeds its time limit or the result does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # a run must end within 180 s once built
BUILD_LIMIT_S = 880


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, f"cannot read {path}: {e}")


def build():
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail(2, "neither dune nor opam found on PATH")
    cmd = dune + ["build", "--root", ROOT, "./perfbench/perfbench.exe", "./bin/minpower.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(2, "build timed out")
    if r.returncode != 0:
        fail(2, f"build failed (exit {r.returncode})")
    return os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(base)
            if "/_" not in d[len(ROOT):]
            for f in files)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def check_result(line, declared):
    """Problems with the result line, against the declared metrics."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    problems = []
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    if not isinstance(res["failed"], int):
        problems.append("failed is not a whole number")
    metrics = res["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        if name in declared and m.get("unit") != declared[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, declared {declared[name]!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not a finite number")
    return problems


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layer_map = load_json(os.path.join(HERE, "layer_map.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=layer_map["default_seed"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="self-test size: 1k-gate DAG, 3-circuit batch")
    args = ap.parse_args()

    exe = build()
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    work_dir = os.path.join(HERE, "_work", f"run-{os.getpid()}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--nproc", str(len(os.sched_getaffinity(0))),
           "--commit", revision()]
    if args.reduced:
        cmd.append("--reduced")

    # Relay the benchmark's output, holding back the line last seen so
    # that only a checked result line ends up last.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    timed_out = False

    def on_alarm(_signum, _frame):
        nonlocal timed_out
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(int(deadline - time.monotonic()))
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
        rc = proc.wait()
    finally:
        signal.alarm(0)
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, "_work"))
        except OSError:
            pass
    if timed_out:
        fail(3, f"run exceeded {RUN_LIMIT_S} s")
    if last is None:
        fail(rc or 4, "the benchmark printed nothing")
    problems = check_result(last, declared)
    if problems:
        fail(4, "; ".join(problems))
    print(last, flush=True)
    if rc != 0:
        fail(rc, f"output checks failed (exit {rc})")


if __name__ == "__main__":
    main()
