import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pair", Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

METRICS = [{"name": "wall_ref_s", "unit": "s", "bound": 0.25, "better": "lower"}]


def _rows(parent, change, spread=0.01):
    """Ten pairs of synthetic results; each side is (wall, attempted, failed) per run,
    and run `pair` of each side adds spread * pair to its wall."""
    rows = []
    for pair in range(10):
        for side, (wall, attempted, failed) in (("parent", parent), ("change", change)):
            rows.append({
                "pair": pair,
                "side": side,
                "result": {
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {"wall_ref_s": {"value": wall + spread * pair}},
                },
            })
    return rows


def test_summarize_records_attempted_and_failed():
    out = bench_pair.summarize(_rows((2.0, 6, 0), (1.0, 90, 0)), METRICS)["wall_ref_s"]
    assert (out["parent"]["attempted"], out["parent"]["failed"]) == (60, 0)
    assert (out["change"]["attempted"], out["change"]["failed"]) == (900, 0)
    assert out["change_wins"] == 10 and out["pairs"] == 10
    assert out["within_bound"]
    assert out["gain_rule_met"]


def test_gain_rule_rejects_a_larger_failed_share():
    out = bench_pair.summarize(_rows((2.0, 6, 0), (1.0, 90, 1)), METRICS)["wall_ref_s"]
    assert out["change_wins"] == 10
    assert not out["gain_rule_met"]


def test_gain_rule_compares_shares_not_counts():
    # more failed jobs in total, but a smaller share of the jobs attempted
    out = bench_pair.summarize(_rows((2.0, 6, 1), (1.0, 90, 2)), METRICS)["wall_ref_s"]
    assert out["change"]["failed"] > out["parent"]["failed"]
    assert out["gain_rule_met"]


def test_summary_lines_give_medians_change_wins_and_checks():
    summary = {
        "guess@1": bench_pair.summarize(_rows((2.0, 6, 0), (1.0, 6, 0)), METRICS),
        "curve@101": bench_pair.summarize(_rows((1.0, 6, 0), (0.95, 6, 0), spread=0.1), METRICS),
    }
    assert bench_pair.summary_lines(summary) == [
        "guess@1 wall_ref_s: parent 2.045 change 1.045 s, rel_change -48.9%, wins 10/10, "
        "within_bound True, unresolved False, gain_rule_met True",
        "curve@101 wall_ref_s: parent 1.45 change 1.4 s, rel_change -3.4%, wins 10/10, "
        "within_bound True, unresolved True, gain_rule_met False",
    ]
    assert bench_pair.summary_lines({}) == []


def test_side_lines_give_unscaled_frac_scaled_median_and_src_lines():
    unscaled = {"guess@1": {"parent": 0.0, "change": 0.25}, "ising@1": {"parent": 1.0, "change": 1.0}}
    scaled = {"guess@1": {"parent": 0.1277, "change": 0.11512}, "ising@1": {"parent": None, "change": None}}
    assert bench_pair.side_lines(unscaled, scaled, {"parent": 4390, "change": 4371}) == [
        "guess@1 unscaled_frac parent 0.000 change 0.250, scaled_median_s parent 0.1277 s change 0.1151 s",
        "ising@1 unscaled_frac parent 1.000 change 1.000, scaled_median_s parent None change None",
        "src_lines parent 4390 change 4371 (-19)",
    ]
    assert bench_pair.side_lines({}, {}, {"parent": 7, "change": 9}) == ["src_lines parent 7 change 9 (+2)"]


def test_unscaled_frac_counts_passes_returned_raw_per_side():
    def row(side, raw, ref):
        return {"side": side, "row": {"pass_s": raw, "pass_ref_s": ref}}

    rows = [
        # rescaled passes, then one returned raw
        row("parent", [0.12, 0.11], [0.06, 0.05]),
        row("parent", [0.04], [0.04]),
        row("change", [0.03, 0.04], [0.03, 0.04]),
        row("change", [0.05, 0.20], [0.05, 0.10]),
    ]
    assert bench_pair.unscaled_frac(rows) == {"parent": 1 / 3, "change": 0.75}
    assert bench_pair.unscaled_frac(rows[:2]) == {"parent": 1 / 3, "change": 0.0}


def test_scaled_median_leaves_out_passes_returned_raw():
    def row(side, raw, ref):
        return {"side": side, "row": {"pass_s": raw, "pass_ref_s": ref}}

    rows = [
        row("parent", [0.12, 0.11, 0.13], [0.06, 0.05, 0.07]),
        # a raw pass far below the rescaled ones does not pull the median down
        row("parent", [0.04, 0.03], [0.04, 0.03]),
        row("change", [0.03, 0.04], [0.03, 0.04]),
    ]
    assert bench_pair.scaled_median(rows) == {"parent": 0.06, "change": None}


def test_src_lines_counts_python_files_under_src(tmp_path):
    pkg = tmp_path / "src" / "pkg" / "sub"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "top.py").write_text("a = 1\n")
    (tmp_path / "src" / "pkg" / "mod.py").write_text("b = 2\nc = 3\n")
    (pkg / "deep.py").write_text("\n\nd = 4\n")
    (pkg / "notes.txt").write_text("not counted\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text("not counted\n")
    assert bench_pair.src_lines(tmp_path) == 6


def test_unresolved_when_parent_spread_exceeds_bound():
    # parent runs 1.0..1.9: interquartile range 0.45 over a median of 1.45 is 31%,
    # above the 25% bound
    out = bench_pair.summarize(_rows((1.0, 6, 0), (0.95, 6, 0), spread=0.1), METRICS)
    assert out["wall_ref_s"]["unresolved"]
    assert out["wall_ref_s"]["within_bound"]
    # the same parent spread, but every change run beats every parent run
    separated = _rows((1.0, 6, 0), (0.0, 6, 0), spread=0.1)
    assert not bench_pair.summarize(separated, METRICS)["wall_ref_s"]["unresolved"]
    # a higher-is-better metric: beating every parent run means lying above it
    higher = [{**METRICS[0], "better": "higher"}]
    assert bench_pair.summarize(separated, higher)["wall_ref_s"]["unresolved"]
    above = _rows((1.0, 6, 0), (2.0, 6, 0), spread=0.1)
    assert not bench_pair.summarize(above, higher)["wall_ref_s"]["unresolved"]


def test_resolved_when_parent_spread_is_inside_bound():
    out = bench_pair.summarize(_rows((2.0, 6, 0), (2.1, 6, 0)), METRICS)["wall_ref_s"]
    assert not out["unresolved"]
    assert out["within_bound"]


def test_runs_do_not_inherit_the_peak_rss_of_bench_pair(tmp_path):
    # a stand-in perfbench/run.py whose two result lines carry its own peak RSS
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, resource\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "print(json.dumps({'peak_rss_mb': peak}))\n"
        "print(json.dumps({'peak_rss_mb': peak}))\n"
    )
    with bench_pair.launcher() as pool:
        held = b"x" * (80 << 20)  # stands for the rows a long bench_pair run holds
        row, _ = bench_pair.run_once(pool, tmp_path, "curve", 1, 1)
        del held
    # started from this process, the run would report at least the 80 MB held
    assert row["peak_rss_mb"] < 60


def test_traced_pair_takes_the_median_of_alternating_runs(monkeypatch):
    # stubbed runs: each side reports exact.self_s in its own order, and
    # layer.calls on the parent side only
    seen = []
    reported = {"parent": [0.30, 0.10, 0.20], "change": [0.05, 0.25, 0.15]}

    def run_once(pool, tree, workload, seed, seconds, trace=0):
        assert (workload, seed, trace) == ("curve", 1, 1)
        seen.append(tree)
        value = reported[tree][sum(t == tree for t in seen) - 1]
        metrics = {"exact.self_s": {"value": value}}
        if tree == "parent":
            metrics["layer.calls"] = {"value": 63}
        return {"pass_s": [value]}, {"metrics": metrics}

    monkeypatch.setattr(bench_pair, "run_once", run_once)
    per_layer = [
        {"name": "exact.self_s", "unit": "s"},
        {"name": "layer.calls", "unit": "count"},
    ]
    trees = {"parent": "parent", "change": "change"}
    shas = {"parent": "p0", "change": "c0"}
    out = bench_pair.traced_pair(None, trees, shas, "curve", 1, 20, per_layer)
    assert seen == ["parent", "change", "change", "parent", "parent", "change"]
    assert out["layers"] == {
        "exact.self_s": {"unit": "s", "parent": 0.20, "change": 0.15},
        "layer.calls": {"unit": "count", "parent": 63, "change": None},
    }
    # every run keeps its row, with its side, run number and commit
    assert [(r["side"], r["run"], r["first"]) for r in out["rows"]] == [
        ("parent", 0, True), ("change", 0, False), ("change", 1, True),
        ("parent", 1, False), ("parent", 2, True), ("change", 2, False),
    ]
    assert [r["row"]["commit"] for r in out["rows"]] == ["p0", "c0", "c0", "p0", "p0", "c0"]
    assert [r["result"]["metrics"]["exact.self_s"]["value"] for r in out["rows"]] == [
        0.30, 0.05, 0.25, 0.10, 0.20, 0.15,
    ]
