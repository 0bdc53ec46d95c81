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
        assert got["parent_spread"] == pytest.approx(0.1)
        assert not got["all_change_runs_better"] and not got["unresolved"]

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

    def test_spread_wider_than_bound_is_unresolved(self):
        # the parent's runs spread (1.5 - 1.0) / 1.2 = 0.42 of their median, past the bound
        metric = {"unit": "s", "better": "lower", "bound": 0.25}
        parent = [1.0, 1.0, 1.2, 1.5, 1.5]
        got = bench_pairs.summarize(metric, parent, [1.1, 1.3, 1.2, 1.0, 1.4])
        assert got["parent_spread"] == pytest.approx(0.5 / 1.2)
        assert got["within_bound"] and got["unresolved"]

    def test_wide_spread_is_resolved_when_every_change_run_is_better(self):
        metric = {"unit": "s", "better": "lower", "bound": 0.25}
        got = bench_pairs.summarize(metric, [1.0, 1.0, 1.2, 1.5, 1.5], [0.5, 0.6, 0.55, 0.7, 0.9])
        assert got["parent_spread"] > 0.25 and got["all_change_runs_better"]
        assert not got["unresolved"]


class TestClaimMet:
    P90 = {"unit": "ms", "better": "lower", "bound": 0.25}
    # a fit-typical p90 whose median falls 18.2 -> 16.2 ms (-11%) in every pair,
    # against a parent whose own IQR is 0.12 of its median
    NOISY = [16.6, 16.9, 17.1, 17.5, 18.1, 18.3, 19.1, 19.5, 19.9, 20.2]

    def test_gain_within_the_parents_iqr_is_not_met(self):
        change = [round(p - 2.0, 10) for p in self.NOISY]
        got = bench_pairs.summarize(self.P90, self.NOISY, change)
        assert got["change_wins"] == "10/10"
        assert got["parent"]["median"] == pytest.approx(18.2)
        assert got["change"]["median"] == pytest.approx(16.2)
        assert got["parent_iqr"] == pytest.approx(2.2)
        assert not got["claim_met"]

    def test_gain_past_the_parents_iqr_is_met(self):
        parent = [18.0, 18.1, 18.1, 18.2, 18.2, 18.2, 18.3, 18.3, 18.4, 18.5]
        got = bench_pairs.summarize(self.P90, parent, [p - 2.0 for p in parent])
        assert got["parent_iqr"] == pytest.approx(0.175) and got["claim_met"]

    @pytest.mark.parametrize(
        "ties, losses, met", [(1, 0, True), (0, 1, True), (2, 0, False), (1, 1, False)]
    )
    def test_nine_wins_in_ten_and_ties_count_for_neither(self, ties, losses, met):
        parent = [10.0] * 10
        change = [10.0] * ties + [11.0] * losses + [5.0] * (10 - ties - losses)
        got = bench_pairs.summarize({"unit": "1/s", "better": "lower", "bound": 0.25}, parent, change)
        assert got["change_wins"] == f"{10 - ties - losses}/10"
        assert got["claim_met"] is met

    def test_higher_is_better(self):
        metric = {"unit": "1/s", "better": "higher", "bound": 0.25}
        parent = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
        assert bench_pairs.summarize(metric, parent, [p + 10.0 for p in parent])["claim_met"]
        assert not bench_pairs.summarize(metric, parent, [p - 10.0 for p in parent])["claim_met"]
