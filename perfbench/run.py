#!/usr/bin/env python3
"""Seeded layer-ladder benchmark for aalign.

One measured run:

    python3 perfbench/run.py --workload search_short --seed 1 --seconds 10 --trace 0

builds the `aalign` binary and the measuring program from source (into
$CARGO_TARGET_DIR, default `.bench_build`), generates the seeded inputs,
runs the workload, and prints the result object as the last stdout line.
Every result is also saved, with its run metadata, under
`.bench_build/perfbench/results/`.

Steadiness report (repeats a workload over successive seeds):

    python3 perfbench/run.py --steady --workload search_long --runs 5 --seed 100 [--sets 2]

prints, per end-to-end metric, the median, quartiles and spread / median
against the metric's bound in BENCHMARK.json, flags any spread over its
bound, and with --sets 2 compares the two sets' medians.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# A measured run must end well inside its 180 s time limit.
RUN_TIMEOUT_S = 170
# Metrics that were too noisy in the previous benchmark's two-set check.
PREVIOUS_OFFENDERS = ("setup_s", "latency_ms_p90")


def target_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build():
    """Build both binaries; cargo's own output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "aalign"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "aalign"), os.path.join(release, "aalign-perfbench")


def source_id():
    """The git commit, marked `-dirty` when the tree has uncommitted changes."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def run_once(bins, workload, seed, seconds, trace, commit):
    """One run; returns (exit code, stdout). Inputs are generated fresh and
    removed afterwards; the result and spans are kept."""
    aalign, perfbench = bins
    base = os.path.join(target_dir(), "perfbench")
    work = os.path.join(base, "work", f"{workload}-s{seed}-t{trace}-{os.getpid()}")
    results = os.path.join(base, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    os.makedirs(results, exist_ok=True)
    try:
        subprocess.run(
            [perfbench, "gen", "--seed", str(seed), "--seconds", str(seconds), "--out", os.path.join(work, "inputs")],
            check=True,
        )
        # Shard children write their per-shard FASTA under TMPDIR.
        env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))
        # Its own process group, so a run cut by the timeout takes the
        # daemons and shard children it started down with it.
        proc = subprocess.Popen(
            [perfbench, "run", "--workload", workload, "--seconds", str(seconds), "--trace", str(trace),
             "--inputs", os.path.join(work, "inputs"), "--out", os.path.join(work, "out"),
             "--aalign", aalign, "--seed", str(seed), "--commit", commit],
            env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1, ""
        stem = os.path.join(results, f"{workload}-seed{seed}-trace{trace}")
        for name, suffix in (("result.json", ".json"), ("spans.jsonl", ".spans.jsonl")):
            src = os.path.join(work, "out", name)
            if os.path.exists(src):
                shutil.copyfile(src, stem + suffix)
        return proc.returncode, stdout
    finally:
        shutil.rmtree(work, ignore_errors=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(bins, args, commit):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    bad = 0
    for workload in workloads:
        sets = []
        backends = {}
        for s in range(args.sets):
            values = {}
            for r in range(args.runs):
                seed = args.seed + s * args.runs + r
                code, out = run_once(bins, workload, seed, args.seconds, 0, commit)
                last = out.strip().splitlines()[-1] if out.strip() else ""
                if code != 0 or not last.startswith("{"):
                    print(f"{workload} seed {seed}: run failed (exit {code})")
                    bad += 1
                    continue
                res = json.loads(last)
                meta = next((json.loads(l.split(": ", 1)[1]) for l in out.splitlines()
                             if l.startswith("run metadata: ")), {})
                backends.update(meta.get("backends", {}))
                if not res["correct"] or res["failed"]:
                    print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}")
                    bad += 1
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append(values)
        print(f"\n== {workload}: {args.runs} runs x {args.sets} set(s), seeds from {args.seed}")
        print(f"kernel backends seen: {sorted(backends)}")
        print(f"{'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  flag")
        for name, m in bounds.items():
            for i, values in enumerate(sets):
                v = values.get(name, [])
                if not v:
                    continue
                q1, med, q3 = quartiles(v)
                spread = (q3 - q1) / med if med else float("inf")
                flag = ""
                if spread > m["bound"]:
                    flag = "SPREAD OVER BOUND"
                    bad += 1
                elif spread > m["bound"] / 3:
                    flag = "over a third of bound"
                if name in PREVIOUS_OFFENDERS:
                    flag += " (noisy in the previous benchmark)"
                print(f"{name:<18} {i + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {m['bound']:>6}  {flag}")
            if len(sets) >= 2 and sets[0].get(name) and sets[1].get(name):
                a, b = statistics.median(sets[0][name]), statistics.median(sets[1][name])
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "WORSE THAN BOUND" if worse > m["bound"] else "agrees"
                if worse > m["bound"]:
                    bad += 1
                print(f"{name:<18} set 2 vs set 1: {worse:+.4f} of the first median ({verdict})")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", action="store_true", help="repeat runs and print the steadiness report")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args()
    if not args.steady and not args.workload:
        p.error("--workload is required")
    try:
        bins = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    commit = source_id()
    if args.steady:
        return steady(bins, args, commit)
    code, out = run_once(bins, args.workload, args.seed, args.seconds, args.trace, commit)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
