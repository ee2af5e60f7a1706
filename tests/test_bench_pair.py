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
