"""Paired benchmark runs of two commits, written out as a BENCH_*.json file.

Run from the root of a checkout:

    python3 tools/bench_pair.py --parent HEAD~1 --change HEAD \\
        --runs curve:1:10 --runs curve:101:10 --runs guess:1:3 \\
        --traced guess:1 --out BENCH_6.json

Each side is a clean copy of its commit, extracted with `git archive` into a
temporary directory, so uncommitted edits are never measured and the
repository's own .git is only read.  For every WORKLOAD:SEED:PAIRS entry the
script runs `perfbench/run.py` once per side and pair, one process at a
time, alternating which side goes first, with the run length BENCHMARK.json
sets.  The output holds every results row, and per workload and seed, for
each end-to-end metric of BENCHMARK.json: the median and quartiles of each
side, the number of pairs the change won (ties count for neither side), the
relative change of the medians, whether that stays inside the metric's
bound, whether the metric is unresolved (the parent's interquartile range,
relative to its median, exceeds the bound, so the bound check cannot tell a
regression from the spread, and not every change run beats every parent
run), and whether the gain rule holds (the change wins at least nine tenths
of the pairs, the medians differ by more than the parent's interquartile
range, and the change's share of failed jobs is no larger than the
parent's).  After the runs it prints one line per workload, seed and
end-to-end metric to stderr with the two medians, the relative change, the
pairs won and the three checks.  Per workload and seed it also gives each side's unscaled_frac,
the share of passes whose reference-speed time is their raw time, because
the speed probe returns a pass too short to sample every part unscaled
(perfbench/speed.py); medians of sides that differ there mix raw and
rescaled seconds.  It also gives the line count of src/**/*.py on each side,
as src_lines, so the net change of src/ can be read off it.

Each --traced WORKLOAD:SEED entry adds one `perfbench/run.py --trace 1` run
per side, and the output keeps its rows and, for each per-layer metric of
BENCHMARK.json, the parent and change values side by side, so a gain can be
traced to the layers it came from.

Every run is started by a one-process pool spawned before any rows are
held, because Linux carries the peak RSS of a process into the children it
starts: runs started by this process would report its own peak as their
peak_rss_mb, and that grows with the rows it holds.
"""

import argparse
import json
import multiprocessing
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="git revision of the parent side")
    ap.add_argument("--change", default="HEAD", help="git revision of the change side")
    ap.add_argument(
        "--runs", action="append", default=[], metavar="WORKLOAD:SEED:PAIRS",
        help="a workload, its seed and the number of pairs; repeatable",
    )
    ap.add_argument(
        "--traced", action="append", default=[], metavar="WORKLOAD:SEED",
        help="a workload and seed to run once per side with --trace 1; repeatable",
    )
    ap.add_argument("--out", required=True, help="path of the BENCH_*.json to write")
    args = ap.parse_args()
    if not args.runs and not args.traced:
        ap.error("give at least one --runs or --traced entry")
    args.plan = [_split(ap, "--runs", "WORKLOAD:SEED:PAIRS", s) for s in args.runs]
    args.traced_plan = [_split(ap, "--traced", "WORKLOAD:SEED", s) for s in args.traced]
    return args


def _split(ap, flag, metavar, spec):
    """The workload name and the integers of spec, which has the form metavar."""
    parts = spec.split(":")
    if len(parts) != metavar.count(":") + 1 or not all(p.isdigit() for p in parts[1:]):
        ap.error("%s expects %s, got %r" % (flag, metavar, spec))
    return (parts[0],) + tuple(int(p) for p in parts[1:])


def git(*argv):
    return subprocess.run(
        ("git",) + argv, cwd=ROOT, check=True, capture_output=True
    ).stdout


def extract(rev, dest):
    """Write the tree of rev into dest; return the full commit id."""
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    archive = Path(dest) / "tree.tar"
    archive.write_bytes(git("archive", "--format=tar", sha))
    with tarfile.open(archive) as tar:
        tar.extractall(Path(dest) / "tree", filter="data")
    archive.unlink()
    return sha


def src_lines(tree):
    """Number of lines (newlines, as wc -l counts them) in src/**/*.py of a tree."""
    return sum(f.read_bytes().count(b"\n") for f in Path(tree).glob("src/**/*.py"))


def launcher():
    """The pool that starts every run: one worker, spawned small (see the module docstring)."""
    return multiprocessing.get_context("spawn").Pool(1)


def run_once(pool, tree, workload, seed, seconds, trace=0):
    """One perfbench run, started by pool's worker; returns (results row, result
    line) parsed from its last two lines."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = pool.apply(subprocess.run, (cmd,), {"cwd": tree, "capture_output": True, "text": True})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit("bench_pair: %s in %s failed (code %d): %s"
                 % (" ".join(cmd), tree, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(rows, metrics):
    """Per metric: each side's median, quartiles, attempted and failed jobs, wins,
    relative change, bound, unresolved and gain checks."""
    out = {}
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        sides, values = {}, {}
        for side in ("parent", "change"):
            values[side] = [r["result"]["metrics"][name]["value"] for r in rows if r["side"] == side]
            q1, med, q3 = quartiles(values[side])
            attempted = sum(r["result"]["attempted"] for r in rows if r["side"] == side)
            failed = sum(r["result"]["failed"] for r in rows if r["side"] == side)
            sides[side] = {"median": med, "q1": q1, "q3": q3, "n": len(values[side]),
                           "attempted": attempted, "failed": failed}
        by_pair = {}
        for r in rows:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"][name]["value"]
        wins = sum(
            (p["change"] < p["parent"]) if lower else (p["change"] > p["parent"])
            for p in by_pair.values()
        )
        par, chg = sides["parent"]["median"], sides["change"]["median"]
        rel = (chg - par) / par if par else 0.0
        worse = rel if lower else -rel
        gap = (par - chg) if lower else (chg - par)
        spread = sides["parent"]["q3"] - sides["parent"]["q1"]
        if lower:
            separated = max(values["change"]) < min(values["parent"])
        else:
            separated = min(values["change"]) > max(values["parent"])
        # raw failure counts mislead when the sides attempt different numbers of jobs
        share = {side: v["failed"] / max(v["attempted"], 1) for side, v in sides.items()}
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": sides["parent"],
            "change": sides["change"],
            "pairs": len(by_pair),
            "change_wins": wins,
            "rel_change": rel,
            "within_bound": worse <= bound,
            "unresolved": spread > bound * abs(par) and not separated,
            "gain_rule_met": wins >= 0.9 * len(by_pair)
            and gap > spread
            and share["change"] <= share["parent"],
        }
    return out


def summary_lines(summary):
    """One line per workload@seed and end-to-end metric of a summary: the two
    medians, the relative change, the pairs won and the three checks."""
    return [
        "%s %s: parent %.4g change %.4g %s, rel_change %+.1f%%, wins %d/%d, "
        "within_bound %s, unresolved %s, gain_rule_met %s" % (
            key, name, m["parent"]["median"], m["change"]["median"], m["unit"],
            100 * m["rel_change"], m["change_wins"], m["pairs"],
            m["within_bound"], m["unresolved"], m["gain_rule_met"],
        )
        for key, metrics in summary.items()
        for name, m in metrics.items()
    ]


def unscaled_frac(rows):
    """Per side, the share of its passes whose pass_ref_s equals its pass_s."""
    out = {}
    for side in ("parent", "change"):
        passes = [
            (raw, ref)
            for r in rows if r["side"] == side
            for raw, ref in zip(r["row"]["pass_s"], r["row"]["pass_ref_s"])
        ]
        out[side] = sum(raw == ref for raw, ref in passes) / len(passes) if passes else 0.0
    return out


def traced_pair(pool, trees, shas, workload, seed, seconds, per_layer):
    """One --trace 1 run per side; the rows and each per-layer metric side by side."""
    rows, values = [], {}
    for side in ("parent", "change"):
        row, result = run_once(pool, trees[side], workload, seed, seconds, trace=1)
        row["commit"] = shas[side]
        rows.append({"side": side, "row": row, "result": result})
        values[side] = result["metrics"]
        print("%s seed %d traced %s: done" % (workload, seed, side), file=sys.stderr)
    layers = {
        m["name"]: {
            "unit": m["unit"],
            "parent": values["parent"].get(m["name"], {}).get("value"),
            "change": values["change"].get(m["name"], {}).get("value"),
        }
        for m in per_layer
    }
    return {"layers": layers, "rows": rows}


def main():
    args = parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    rows = []
    summary = {}
    unscaled = {}
    with launcher() as pool, tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees, shas = {}, {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            (Path(tmp) / side).mkdir()
            shas[side] = extract(rev, Path(tmp) / side)
            trees[side] = Path(tmp) / side / "tree"
        src_counts = {side: src_lines(tree) for side, tree in trees.items()}
        for workload, seed, pairs in args.plan:
            group = []
            for pair in range(pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    row, result = run_once(pool, trees[side], workload, seed, seconds)
                    row["commit"] = shas[side]
                    group.append({"workload": workload, "seed": seed, "pair": pair,
                                  "side": side, "first": side == order[0],
                                  "row": row, "result": result})
                    print("%s seed %d pair %d %s: wall_ref_s %.3f" % (
                        workload, seed, pair, side,
                        result["metrics"]["wall_ref_s"]["value"]), file=sys.stderr)
            rows.extend(group)
            summary["%s@%d" % (workload, seed)] = summarize(group, bench["end_to_end"])
            unscaled["%s@%d" % (workload, seed)] = unscaled_frac(group)
        traced = {
            "%s@%d" % (workload, seed): traced_pair(
                pool, trees, shas, workload, seed, seconds, bench["per_layer"])
            for workload, seed in args.traced_plan
        }
    doc = {
        "parent": shas["parent"],
        "change": shas["change"],
        "run_seconds": seconds,
        "command": bench["command"],
        "src_lines": src_counts,
        "summary": summary,
        "unscaled_frac": unscaled,
        "rows": rows,
        "traced": traced,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for line in summary_lines(summary):
        print(line, file=sys.stderr)


if __name__ == "__main__":
    main()
