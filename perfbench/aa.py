"""A-A check: two sets of benchmark runs of the same code, compared.

Run from the repository root:

    python3 perfbench/aa.py --runs 5 [--workloads orbit_large,cli_roundtrip]
                            [--seconds 25] [--first-seed 1000] [--out aa.json]

For each workload it makes `--runs` pairs of runs, side A and side B,
alternating which side goes first, every run with its own seed.  It prints
(and with `--out` writes) a JSON report: the machine (nproc, Python, numpy,
git revision), the seeds, and for every metric each side's median and
quartiles, the spread (Q3 - Q1) / median over all runs of the workload and
the drift of B's median from A's, both against the metric's bound in
BENCHMARK.json (the spread of setup_s is not held to its bound).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_revision": rev, "platform": platform.platform()}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(runs_a, runs_b, specs) -> dict:
    out = {}
    for spec in specs:
        name = spec["name"]
        a = [r["metrics"][name]["value"] for r in runs_a]
        b = [r["metrics"][name]["value"] for r in runs_b]
        q1, _, q3 = statistics.quantiles(a + b, n=4)
        pooled = statistics.median(a + b)
        sa, sb = summary(a), summary(b)
        spread = (q3 - q1) / pooled if pooled else float("inf")
        drift = (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else float("inf")
        bound = spec.get("bound")
        row = {"unit": spec["unit"], "A": sa, "B": sb, "spread": spread, "drift": drift}
        if bound is not None:
            row["bound"] = bound
            row["ok"] = abs(drift) <= bound and (name == "setup_s" or spread <= bound)
        out[name] = row
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per side and workload")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"machine": machine(), "run_seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = {"A": [], "B": []}
        seeds = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                seed = args.first_seed + 2 * i + (side == "B")
                result = run_once(workload, seed, args.seconds, args.trace)
                sys.stderr.write(f"{workload} {side} seed {seed}: {json.dumps(result)}\n")
                runs[side].append(result)
                seeds[side].append(seed)
        all_runs = runs["A"] + runs["B"]
        metrics = compare(runs["A"], runs["B"], specs)
        incorrect = sum(not r["correct"] for r in all_runs)
        ok &= incorrect == 0 and all(m.get("ok", True) for m in metrics.values())
        report["workloads"][workload] = {
            "seeds": seeds, "incorrect_runs": incorrect,
            "failed_jobs": sum(r["failed"] for r in all_runs), "metrics": metrics,
        }
    report["ok"] = ok
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
