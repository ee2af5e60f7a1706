import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pair", Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

METRICS = [{"name": "wall_ref_s", "unit": "s", "bound": 0.25, "better": "lower"}]


def _rows(parent, change):
    """Ten pairs of synthetic results; each side is (wall, attempted, failed) per run."""
    rows = []
    for pair in range(10):
        for side, (wall, attempted, failed) in (("parent", parent), ("change", change)):
            rows.append({
                "pair": pair,
                "side": side,
                "result": {
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {"wall_ref_s": {"value": wall + 0.01 * pair}},
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
