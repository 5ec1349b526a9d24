"""Time to a verified verdict, on one of four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload orbit_large --seed 1 --seconds 25 --trace 0

The run sets up (import, field contexts, in-memory input codes) several
times and reports the median as `setup_s`, then repeats passes over the
workload's timed jobs until `--seconds` would be exceeded (at least one
pass), checking every output.  Job times are medians over passes.  With
`--trace 1` it then sets up and runs one more pass with every layer
entry point wrapped (see `layers.py`) and reports per-layer metrics, whose
`trace.overhead_s` is that pass's time minus the untraced median.

stdout holds a readable report and, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`; `attempted` and `failed`
count the timed jobs.  In `cli_roundtrip` two untimed adversarial jobs
(a tampered and a malformed code file) also run; they count only in the
report's `failed_frac`, over all jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List

import layers
import workloads as wl
from tracer import Tracer, span_table

SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import dickson_mrd, dickson_mrd.cli, dickson_mrd.geometry, dickson_mrd.cmp_family; "
    "print(time.perf_counter() - t)"
)
# Job metrics reported per workload, in report order; wall_s, setup_s and
# peak_rss_mb apply to every workload and are the end-to-end metrics.
JOB_METRICS = ("build_s", "verify_s", "distdist_s", "distdist_parallel_s",
               "geometry_s", "cmp_s")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, name: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: {'; '.join(problems)}")


def measure_import() -> float:
    """Package import time in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(wl.ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=wl.ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip())


def measure_setup(workload: str, values: Dict[str, str], pkg):
    """Median of SETUP_REPEATS set-ups, and the inputs of the last one."""
    samples, inputs = [], None
    for _ in range(SETUP_REPEATS):
        imported = measure_import()
        inputs = None  # free the previous inputs before building new ones
        start = time.perf_counter()
        inputs = wl.setup_inputs(workload, values, pkg)
        samples.append(imported + time.perf_counter() - start)
    return statistics.median(samples), inputs


def run_job(job: wl.Job, tally: Tally) -> float:
    """Run one job, check its output outside the timed region, return its time."""
    start = time.perf_counter()
    try:
        out, problems = job.run(), []
    except Exception:  # a crashing job is a failed job; keep measuring the rest
        out, problems = None, [traceback.format_exc(limit=4)]
    elapsed = time.perf_counter() - start
    if not problems:
        try:
            problems = job.check(out)
        except Exception:  # an output too malformed to check is a wrong output
            problems = [traceback.format_exc(limit=4)]
    tally.record(job.name, problems)
    return elapsed


def run_passes(jobs: List[wl.Job], seconds: float, tally: Tally) -> List[Dict[str, float]]:
    """Passes over `jobs` until the next one would end after `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        times = {"wall_s": 0.0}
        for job in jobs:
            elapsed = run_job(job, tally)
            times[job.metric] = times.get(job.metric, 0.0) + elapsed
            times["wall_s"] += elapsed
        passes.append(times)
        if time.perf_counter() - start + times["wall_s"] > seconds:
            return passes


def traced_pass(workload, values, pkg, digests, tally):
    """One traced set-up and pass; returns its wall time and the spans."""
    tracer = Tracer()
    layers.install(tracer, pkg)
    try:
        inputs = wl.setup_inputs(workload, values, pkg)
        jobs = wl.timed_jobs(workload, values, inputs, pkg, digests)
        wall = run_passes(jobs, 0, tally)[0]["wall_s"]
    finally:
        tracer.restore()
    return wall, tracer.spans


def untraced_passes(workload, values, pkg, digests, seconds, tally):
    """Set-up and timed passes.  The inputs are freed on return, so the
    traced run's own set-up never holds a second copy."""
    setup_s, inputs = measure_setup(workload, values, pkg)
    jobs = wl.timed_jobs(workload, values, inputs, pkg, digests)
    return setup_s, run_passes(jobs, seconds, tally)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(wl.ROOT)
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pkg = wl.load_package()
    expected = wl.load_expected()
    os.makedirs(wl.WORK_DIR, exist_ok=True)
    values = wl.draw(args.workload, args.seed, expected["moduli"])
    digests = expected["digests"]

    tally = Tally()
    setup_s, passes = untraced_passes(args.workload, values, pkg, digests,
                                      args.seconds, tally)
    wall_s = statistics.median(p["wall_s"] for p in passes)
    e2e = {"wall_s": wall_s, "setup_s": setup_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    adversarial = Tally()
    if args.workload == "cli_roundtrip":
        wl.write_adversarial_files(pkg)
        for job in wl.adversarial_jobs(pkg):
            run_job(job, adversarial)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          + "  ".join(f"{k}={v}" for k, v in values.items()))
    print(f"  {'wall_s':<22} {wall_s:12.4f} s\n  {'setup_s':<22} {setup_s:12.4f} s")
    for name in JOB_METRICS:
        if name in passes[0]:
            print(f"  {name:<22} {statistics.median(p[name] for p in passes):12.4f} s")
    print(f"  {'peak_rss_mb':<22} {e2e['peak_rss_mb']:12.1f} MB")
    attempted = tally.attempted + adversarial.attempted
    failed = tally.failed + adversarial.failed
    print(f"  {'failed_frac':<22} {failed / attempted:12.4f} "
          f"({failed}/{attempted} jobs, {adversarial.failed}/{adversarial.attempted} adversarial)")

    if args.trace:
        traced_wall, spans = traced_pass(args.workload, values, pkg, digests, tally)
        metrics = layers.layer_metrics(spans, traced_wall - wall_s)
        for name, row in sorted(span_table(spans).items()):
            sys.stderr.write(f"span {name:<45} calls {row['calls']:>8} "
                             f"total {row['total_s']:10.4f} s  self {row['self_s']:10.4f} s\n")
        wanted = spec["per_layer"]
    else:
        metrics = e2e
        wanted = spec["end_to_end"]
    for line in tally.problems + adversarial.problems:
        print(f"  FAILED {line}")
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
