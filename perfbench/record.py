"""Record the traced baseline that later changes cite: perfbench/record.json.

    python3 perfbench/record.py [--seed 1] [--seconds 20]

Runs run.py with --trace 1 once per workload and stores, for each, the
workload's reason from BENCHMARK.json, the layer groups it drives (layers.py)
and the measured share of a traced pass's self time in each group and
module, with the seeds, Python version, nproc and commit of the run.  The
shares come from one traced run, so they carry the tracing overhead and the
run-to-run noise of one run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 101


def traced_run(workload, seed, seconds):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
    ]
    lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    row, result = (json.loads(line) for line in lines.splitlines()[-2:])
    if not result["correct"]:
        sys.exit("perfbench: %s answered wrong: %s" % (workload, row["failures"]))
    return row, {name: m["value"] for name, m in result["metrics"].items()}


def shares(metrics, names):
    total = sum(metrics[n + ".self_s"] for n in layers.MODULES)
    picked = {n: metrics[n + ".self_s"] / total for n in names}
    return {n: round(s, 4) for n, s in sorted(picked.items(), key=lambda kv: -kv[1]) if s}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "expectation": "a change to a group listed under a workload's drives should move"
        " that workload's wall_ref_s; odeguess.square_order also moves peak_rss_mb on square."
        " Exact-layer groups should leave square unchanged.",
        "workloads": {},
    }
    groups = [layer.metric for layer in layers.LAYERS]
    for spec in bench["workloads"]:
        name = spec["name"]
        row, metrics = traced_run(name, args.seed, args.seconds)
        out.update({key: row[key] for key in ("seed", "python", "nproc", "commit")})
        out["workloads"][name] = {
            "why": spec["why"],
            "drives": [layer.metric for layer in layers.LAYERS if name in layer.drives],
            "module_self_share": shares(metrics, layers.MODULES),
            "group_self_share": shares(metrics, groups),
            "calls": {g: metrics[g + ".calls"] for g in groups if metrics[g + ".calls"]},
            "trace.overhead_ratio": round(metrics["trace.overhead_ratio"], 3),
        }
    (HERE / "record.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
