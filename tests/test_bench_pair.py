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
