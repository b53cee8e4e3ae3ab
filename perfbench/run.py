#!/usr/bin/env python3
"""Build and run the heterovliw benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --aa --workload NAME [--runs 10] [--seconds S] [--seed N]

A run builds the `perfbench` package (a Cargo workspace of its own that
depends on the repository's crates by path), checks the six golden
answers in one process, then runs the workload in a fresh process. With
`--trace 1` that process times an untraced half and then a traced half
and prints the per-layer metrics; otherwise it prints the end-to-end
metrics. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything a run writes stays under `.bench_build/` in the checkout; the
per-run scratch directory (stores, the daemon's socket, logs) is removed
when the run ends, and a traced run's spans are kept in
`.bench_build/perfbench/traces/`. The report and the set-up logs go to
standard error.

`--aa` runs two interleaved sets of `--runs` untraced runs on one build
(run i of both sets uses seed N + i) and prints, for each end-to-end
metric, both medians, their quartiles, the spread and the difference
between the medians against the bound in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
WORKLOADS = ("cold_figure", "warm_serve", "store_replay")
BUILD_TIMEOUT_S = 850
# A run must finish within 180 s of its start; leave room for start-up.
RUN_BUDGET_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    path = Path(env) if env else ROOT / ".bench_build"
    return path if path.is_absolute() else Path.cwd() / path


def build():
    """Builds the benchmark binary and returns its path."""
    if not (ROOT / "crates").is_dir() or not (PACKAGE / "Cargo.toml").is_file():
        raise BenchError(f"{ROOT} is not a heterovliw checkout (no crates/ next to perfbench/)")
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline",
           "--manifest-path", str(PACKAGE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError as e:
        raise BenchError(f"cannot run cargo: {e}") from e
    except subprocess.TimeoutExpired as e:
        raise BenchError("the build did not finish in time") from e
    if done.returncode != 0:
        log(done.stderr[-4000:])
        raise BenchError(f"the build failed (exit {done.returncode})")
    binary = target / "release" / "perfbench"
    if not binary.is_file():
        raise BenchError(f"the build left no binary at {binary}")
    return binary


def commit():
    """The checked-out commit, when the checkout is a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def invoke(binary, args, workdir, name, deadline):
    """Runs one benchmark process with its stderr in a log file (never a
    terminal or pipe while it is timing) and returns its JSON line."""
    workdir.mkdir(parents=True, exist_ok=True)
    log_path = workdir / f"{name}.log"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for {name}")
    with open(log_path, "w") as err:
        try:
            done = subprocess.run([str(binary), *args], cwd=workdir,
                                  stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                  stderr=err, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{name} did not finish in time") from e
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(log_path.read_text()[-4000:])
        raise BenchError(f"{name} failed (exit {done.returncode})")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"{name} printed no result: {e}") from e


def run_once(binary, workload, seed, seconds, trace, scratch, deadline):
    """One benchmark run: the golden checks, then the workload in a fresh
    process. Returns the result and both processes' reports."""
    goldens = invoke(binary, ["check", "--root", str(ROOT)], scratch, "check", deadline)
    args = ["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--workdir", str(scratch / "work")]
    if trace:
        traces = ROOT / ".bench_build" / "perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace", "--trace-out", str(traces / f"{workload}-seed{seed}.jsonl")]
    run = invoke(binary, args, scratch, "run", deadline)
    result = {
        "correct": goldens["ok"] and run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    }
    return result, goldens, run


def report(goldens, run):
    ctx = run["context"]
    log(f"commit {commit()}, nproc {ctx['nproc']}, CPU {ctx['cpu_model']}")
    log(f"workload {ctx['workload']}, seed {ctx['seed']}: op workers {ctx['op_workers']}, "
        f"set-up workers {ctx['setup_workers']}, {ctx['setups']} set-ups, "
        f"{ctx['ops']} ops (minimum {ctx['min_ops']}), tail p{ctx['tail_percentile']}")
    for req in ctx["requests"]:
        log(f"  request {req}")
    checked = goldens["goldens"]
    bad = [g["file"] for g in checked if not g["ok"]]
    log(f"golden answers: {len(checked) - len(bad)}/{len(checked)} match"
        + (f" (differ: {', '.join(bad)})" if bad else ""))
    log(run["report"].rstrip())


def scratch_dir(tag):
    path = ROOT / ".bench_build" / "perfbench" / f"run-{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def single(args):
    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = scratch_dir(args.workload)
    try:
        result, goldens, run = run_once(binary, args.workload, args.seed, args.seconds,
                                        args.trace == 1, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report(goldens, run)
    print(json.dumps(result), flush=True)


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def aa(args):
    binary = build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = {"A": [], "B": []}
    contexts = []
    for i in range(args.runs):
        seed = args.seed + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            scratch = scratch_dir(f"aa-{side}")
            try:
                result, _, run = run_once(binary, args.workload, seed, args.seconds, False,
                                          scratch, time.monotonic() + RUN_BUDGET_S)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            if not result["correct"] or result["failed"]:
                raise BenchError(f"run {side}{i} (seed {seed}) was not correct")
            sets[side].append(result["metrics"])
            contexts.append(run["context"])
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            log(f"{side}{i} seed {seed}: {vals}")
    ctx = contexts[0]
    print(f"A/A {args.workload}: {args.runs} runs per set, {args.seconds} s each, seeds "
          f"{args.seed}..{args.seed + args.runs - 1}; commit {commit()}, nproc {ctx['nproc']}, "
          f"CPU {ctx['cpu_model']}, op workers {ctx['op_workers']}, set-up workers "
          f"{ctx['setup_workers']}, ops per run {min(c['ops'] for c in contexts)}.."
          f"{max(c['ops'] for c in contexts)}, tail p{ctx['tail_percentile']}")
    print(f"{'metric':<16} {'bound':>6} {'median A':>11} {'[q1, q3] A':>23} {'median B':>11} "
          f"{'[q1, q3] B':>23} {'spread A':>9} {'spread B':>9} {'B vs A':>8}  verdict")
    summary = {}
    for name, m in bounds.items():
        a = quartiles([r[name]["value"] for r in sets["A"]])
        b = quartiles([r[name]["value"] for r in sets["B"]])
        spread_a = (a[2] - a[0]) / a[1]
        spread_b = (b[2] - b[0]) / b[1]
        diff = (b[1] - a[1]) / a[1]
        worse = diff if m["better"] == "lower" else -diff
        ok = worse <= m["bound"] and (name == "setup_s" or max(spread_a, spread_b) <= m["bound"])
        steady = max(spread_a, spread_b) < m["bound"] / 3
        verdict = ("ok" if ok else "OUT OF BOUND") + ("" if steady else " (spread over bound/3)")
        print(f"{name:<16} {m['bound']:>6.2f} {a[1]:>11.4f} [{a[0]:>9.4f}, {a[2]:>9.4f}] "
              f"{b[1]:>11.4f} [{b[0]:>9.4f}, {b[2]:>9.4f}] {spread_a:>8.1%} {spread_b:>8.1%} "
              f"{diff:>+8.1%}  {verdict}")
        summary[name] = {"bound": m["bound"], "median_a": a[1], "median_b": b[1],
                         "spread_a": spread_a, "spread_b": spread_b, "b_vs_a": diff, "ok": ok}
    print(json.dumps({"workload": args.workload, "runs": args.runs, "seconds": args.seconds,
                      "seed": args.seed, "metrics": summary}), flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--aa", action="store_true", help="run two interleaved sets and compare them")
    p.add_argument("--runs", type=int, default=10, help="runs per set in --aa mode")
    args = p.parse_args()
    if args.seconds <= 0 or args.runs < 2:
        p.error("--seconds must be positive and --runs at least 2")
    try:
        aa(args) if args.aa else single(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)


if __name__ == "__main__":
    main()
