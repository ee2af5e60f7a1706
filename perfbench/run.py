"""Benchmark of the four hornsing pipelines: curve, guess, square and ising.

Run from the root of a checkout:

    python3 perfbench/run.py --workload curve --seed 1 --seconds 20 --trace 0

The run imports hornsing from ./src, builds the workload's job list from the
fixtures and the seed, then times whole passes over the list until another
pass would overrun --seconds (at least one pass), checking every answer.
A job that raises or answers wrong counts as failed and the other jobs still
run.  All load comes from this one process and thread.

The second-to-last line of output is the results row (seed, Python version,
nproc, commit, passes, sample counts, raw pass and job times, failures); the
last line is {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are end to end:

  wall_ref_s   median over passes of the pass wall time rescaled to
               reference machine speed (speed.py); the raw wall times are
               in the row as pass_s
  setup_s      median, over fresh processes, of the time from process start
               to the first job (importing hornsing, reading the fixtures,
               building the inputs), at reference speed; raw in the row
  peak_rss_mb  peak resident memory of this process

With --trace 1 the untraced passes are followed by as many seconds of
passes with every layer wrapped (layers.py), and the metrics are the
per-pass calls and self times of the layers plus trace.overhead_ratio, the
median traced pass over the median untraced pass, both at reference speed.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("curve", "guess", "square", "ising"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up the workload, print 'ready' and exit (used to time set-up)",
    )
    return ap.parse_args()


def import_workloads():
    """Import the job lists, and with them hornsing, from this checkout only."""
    if not (SRC / "hornsing" / "__init__.py").is_file():
        sys.exit("perfbench: no hornsing package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import hornsing
    import workloads

    if Path(hornsing.__file__).resolve().parent != (SRC / "hornsing").resolve():
        sys.exit("perfbench: imported hornsing from %s, not %s" % (hornsing.__file__, SRC))
    return workloads


def time_setup(args):
    """Seconds from spawning a workload process to its first job, raw and at
    reference speed, for each of SETUP_PROBES fresh processes."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    raw, at_ref = [], []
    # the first probe compiles the bytecode caches and is not counted
    for _ in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or not line.startswith("ready "):
            sys.exit("perfbench: set-up probe failed with code %s" % proc.returncode)
        raw.append(elapsed)
        at_ref.append(speed.at_reference(elapsed, json.loads(line[len("ready "):])))
    return raw[1:], at_ref[1:]


def run_passes(jobs, seconds, job_times, failures):
    """Run whole passes until the next one would overrun.

    Returns the raw wall time of each pass and the same at reference speed.
    """
    walls, at_ref = [], []
    start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        while True:
            first = len(probe.samples)
            pass_start = time.perf_counter()
            for name, job in jobs:
                t0 = time.perf_counter()
                try:
                    job()
                except Exception as exc:  # a failed job is counted, the pass goes on
                    failures.append("%s: %s: %s" % (name, type(exc).__name__, exc))
                job_times.setdefault(name, []).append(time.perf_counter() - t0)
            walls.append(time.perf_counter() - pass_start)
            at_ref.append(probe.at_reference(first, walls[-1]))
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                return walls, at_ref


def git_commit():
    """Commit of the checkout, read from .git without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main():
    args = parse_args()
    with speed.SpeedProbe() as probe:
        workloads = import_workloads()
        jobs = workloads.prepare(args.workload, args.seed)
    if args.setup_probe:
        print("ready " + json.dumps(probe.samples), flush=True)
        return

    if not args.trace:
        setup_raw, setup = time_setup(args)
    job_times, failures = {}, []
    walls, at_ref = run_passes(jobs, args.seconds, job_times, failures)
    attempted = len(jobs) * len(walls)

    if args.trace:
        import layers

        holders = [m for name, m in sys.modules.items() if name.startswith("hornsing.")]
        with layers.Tracer(holders + [workloads]) as tracer:
            _, traced = run_passes(jobs, args.seconds, {}, failures)
        attempted += len(jobs) * len(traced)
        idle = tracer.idle_groups(args.workload)
        if idle:
            sys.exit("perfbench: traced groups never called on %s: %s"
                     % (args.workload, ", ".join(idle)))
        metrics = tracer.metrics(len(traced))
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(at_ref), "ratio")
        samples = {name: len(traced) for name in metrics}
        samples["trace.overhead_ratio"] = [len(walls), len(traced)]
    else:
        metrics = {
            "wall_ref_s": (statistics.median(at_ref), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        samples = {"wall_ref_s": len(walls), "setup_s": len(setup), "peak_rss_mb": 1}

    failed = len(failures)
    row = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "passes": len(walls),
        "samples": samples,
        "failed_frac": failed / attempted,
        "failures": failures[:10],
        "job_s": {name: statistics.median(ts) for name, ts in job_times.items()},
        "pass_s": walls,
        "pass_ref_s": at_ref,
    }
    if not args.trace:
        row["setup_raw_s"] = setup_raw
    print(json.dumps(row))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
