import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


class TestSummarize:
    def test_higher_is_better(self):
        metric = {"unit": "1/s", "better": "higher", "bound": 0.25}
        got = bench_pairs.summarize(metric, [100.0, 110.0, 90.0, 105.0, 95.0],
                                    [120.0, 100.0, 130.0, 125.0, 118.0])
        assert got["parent"] == {"q1": 95.0, "median": 100.0, "q3": 105.0}
        assert got["change"] == {"q1": 118.0, "median": 120.0, "q3": 125.0}
        # pair 2 (110 against 100) is the parent's
        assert got["change_wins"] == "4/5"
        assert got["change_over_parent"] == pytest.approx(1.2)
        assert got["worse_by_fraction"] == pytest.approx(-0.2)
        assert got["within_bound"] and got["parent_iqr"] == 10.0
        assert not got["all_change_runs_better"]

    def test_lower_is_better_and_bound(self):
        metric = {"unit": "MB", "better": "lower", "bound": 0.1}
        got = bench_pairs.summarize(metric, [40.0, 40.0], [44.5, 43.5])
        assert got["change_wins"] == "0/2"
        assert got["worse_by_fraction"] == pytest.approx(0.1)
        assert got["within_bound"]
        got = bench_pairs.summarize(metric, [40.0, 40.0], [44.5, 44.5])
        assert not got["within_bound"]
        assert bench_pairs.summarize(metric, [40.0, 41.0], [39.0, 38.0])["all_change_runs_better"]

    def test_ties_are_not_wins(self):
        metric = {"unit": "s", "better": "lower", "bound": 0.25}
        assert bench_pairs.summarize(metric, [1.0], [1.0])["change_wins"] == "0/1"
