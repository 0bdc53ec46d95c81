"""Tests of the benchmark's own arithmetic: self time, tail percentile, error accounting.

Run with: python3 -m pytest bench/tests -q
"""

import sys
import types
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calibrate  # noqa: E402
import spans as sp  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def span(name, parent, start, end):
    return [name, parent, start, end, "ops", "fit-moment"]


class TestSelfTime:
    def test_nested_spans_subtract_direct_children_only(self):
        spans = [
            span("root", -1, 0, 100),
            span("child", 0, 10, 40),
            span("grandchild", 1, 15, 25),
            span("sibling", 0, 50, 60),
        ]
        assert sp.self_times(spans) == [100 - 30 - 10, 30 - 10, 10, 10]

    def test_self_times_sum_to_root_duration(self):
        spans = [
            span("root", -1, 0, 1000),
            span("a", 0, 100, 600),
            span("b", 1, 150, 350),
            span("b", 1, 400, 450),
            span("c", 0, 700, 900),
        ]
        assert sum(sp.self_times(spans)) == 1000

    def test_summarize_groups_by_name(self):
        spans = [
            span("root", -1, 0, 100),
            span("b", 0, 10, 20),
            span("b", 0, 30, 50),
        ]
        assert sp.summarize(spans) == {"root": (1, 100, 70), "b": (2, 30, 30)}

    def test_wrapped_calls_nest(self):
        tracer = sp.Tracer()
        inner = tracer.wrap("inner", lambda: 1)
        outer = tracer.wrap("outer", lambda: inner() + inner())
        assert outer() == 2
        names = [s[sp.NAME] for s in tracer.spans]
        parents = [s[sp.PARENT] for s in tracer.spans]
        assert names == ["outer", "inner", "inner"]
        assert parents == [-1, 0, 0]
        selfs = sp.self_times(tracer.spans)
        outer_ns = tracer.spans[0][sp.END] - tracer.spans[0][sp.START]
        assert selfs[0] == outer_ns - sum(s[sp.END] - s[sp.START] for s in tracer.spans[1:])

    def test_span_closed_out_of_order_raises(self):
        tracer = sp.Tracer()
        a = tracer.begin("a")
        tracer.begin("b")
        with pytest.raises(RuntimeError):
            tracer.end(a)

    def test_bucket_suffix(self):
        assert sp.base_name("regions.b_star@n<=16") == "regions.b_star"
        tracer = sp.Tracer()
        f = tracer.wrap("f", lambda n: n, suffix=lambda n: f"@{n}")
        f(3)
        assert tracer.spans[0][sp.NAME] == "f@3"


class TestInstrument:
    def test_wraps_every_binding_and_restores(self):
        def f():
            return "f"

        owner = types.SimpleNamespace(f=f)
        user = types.ModuleType("user")
        user.g = f
        tracer = sp.Tracer()
        restore = sp.instrument(tracer, [user], [(owner, "f", "mod.f", {})])
        assert owner.f() == "f" and user.g() == "f"
        assert [s[sp.NAME] for s in tracer.spans] == ["mod.f", "mod.f"]
        restore()
        assert owner.f is f and user.g is f

    def test_counted_warnings_reach_the_caller(self):
        def noisy():
            warnings.warn("clamped", UserWarning)
            return 7

        tracer = sp.Tracer()
        wrapped = tracer.wrap("est.noisy", noisy, count_warnings=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert wrapped() == 7
        assert [str(w.message) for w in caught] == ["clamped"]
        assert tracer.counters["warning.est.noisy.UserWarning"] == 1


class TestPercentiles:
    @pytest.mark.parametrize(
        "count, expected",
        [(9, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
         (199, 90), (200, 95), (999, 95), (1000, 99), (10000, 99.9)],
    )
    def test_tail_is_highest_percentile_with_ten_samples_beyond(self, count, expected):
        assert worker.tail_percentile(count) == expected

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert worker.percentile(values, 50) == 50
        assert worker.percentile(values, 90) == 90
        assert worker.percentile([5.0], 90) == 5.0
        assert worker.percentile(list(range(1, 11)), 90) == 9


VALIDATE = wl.Op("homogeneous0", "validate", ["validate"], [("-", "validate-text")], units=1000)
FIT = wl.Op("t00.moment", "fit-moment", ["fit"], [("-", "fit-json")])


def validate_text(verdict):
    line = "b1: analytic=0.125000 mc=0.130000 se=0.001 |diff|=0.005000 tol=0.004953 "
    return (f"preset=homogeneous n=32 reps=1000 seed=1\n{line}{verdict}\n"
            f"{line.replace('b1', 'b2')}PASS\n{line.replace('b1', 'b3')}PASS\n{verdict}\n")


class TestErrorAccounting:
    def test_validate_fail_verdict_with_exit_1_is_expected_output(self):
        texts = [validate_text("FAIL")]
        first = wl.digest(1, texts)
        assert not wl.op_failed(VALIDATE, 1, texts, first, True)
        assert wl.check_outputs(VALIDATE, 1, texts, None) is None

    def test_validate_exit_code_must_match_verdict(self):
        assert wl.op_failed(VALIDATE, 1, [validate_text("PASS")], None, True)
        assert wl.op_failed(VALIDATE, 0, [validate_text("FAIL")], None, True)
        assert not wl.op_failed(VALIDATE, 0, [validate_text("PASS")], None, True)

    def test_other_ops_must_exit_0(self):
        assert wl.op_failed(FIT, 1, ["{}"], None, True)
        assert wl.op_failed(FIT, 4, ["{}"], None, True)
        assert not wl.op_failed(FIT, 0, ["{}"], None, True)

    def test_raise_mismatch_and_failed_first_run_count(self):
        assert wl.op_failed(FIT, None, [""], None, True)
        assert wl.op_failed(FIT, 0, ['{"a": 1}'], wl.digest(0, ['{"a": 2}']), True)
        assert wl.op_failed(FIT, 0, ["{}"], wl.digest(0, ["{}"]), False)

    def test_error_rate(self):
        assert wl.error_rate(4000, 1000) == 0.25
        assert wl.error_rate(36, 0) == 0.0
        with pytest.raises(ValueError):
            wl.error_rate(0, 0)

    def test_timed_loop_counts_units(self, capsys):
        """A validate FAIL with exit 1 is no failure; a raising op fails all its units."""
        calls = {"n": 0}

        def main(argv):
            calls["n"] += 1
            if argv[0] == "validate":
                sys.stdout.write(validate_text("FAIL"))
                return 1
            if calls["n"] > 2:
                raise RuntimeError("boom")
            sys.stdout.write("{}")
            return 0

        cli = types.SimpleNamespace(main=main)
        ops = [VALIDATE, FIT]
        first, problems = worker.warm_up(cli, ops, None)
        assert problems == []
        p = worker.timed_loop(cli, ops, 0.0, first)
        assert p.attempted == 1000 + 1
        assert p.failed == 1
        assert wl.error_rate(p.attempted, p.failed) == pytest.approx(1 / 1001)


class TestThroughput:
    def test_every_invocation_counts(self):
        p = worker.Pass()
        for units, wall in [(1, 10), (4, 100), (1, 30), (4, 100), (1, 20)]:
            p.kinds.append("fit-moment")
            p.units.append(units)
            p.wall_ns.append(wall * 1_000_000)
            p.cpu_ns.append(wall * 1_000_000)
            p.cal_ns.append(calibrate.CAL_REFERENCE_NS)
        p.attempted = 11
        e2e = worker.end_to_end(p)
        assert e2e["ops_per_s"] == pytest.approx(11 / 0.260)
        assert e2e["cpu_ms_per_op"] == pytest.approx(260 / 11)
        assert e2e["latency_ms_p50"] == 30.0 and e2e["latency_ms_p90"] == 100.0
        assert e2e["latency_samples"] == 5

    def test_times_are_scaled_by_the_calibration_in_force(self):
        """A machine running at half the reference speed doubles the calibration and halves every time."""
        p = worker.Pass()
        for wall, cal in [(40, 2.0), (20, 1.0), (40, 2.0)]:
            p.kinds.append("fit-moment")
            p.units.append(1)
            p.wall_ns.append(wall * 1_000_000)
            p.cpu_ns.append(wall * 1_000_000)
            p.cal_ns.append(cal * calibrate.CAL_REFERENCE_NS)
        assert worker.invocation_times(p) == ([20e6] * 3, [20e6] * 3)
        assert worker.invocation_times(p, adjust=False) == ([40e6, 20e6, 40e6], [40e6, 20e6, 40e6])


class TestReferenceComparison:
    def test_numbers_within_tolerance(self):
        assert wl.same_numbers({"a": [1.0, 2.0]}, {"a": [1.0 + 1e-13, 2.0]}) is None
        assert wl.same_numbers({"a": [1.0, 2.0]}, {"a": [1.0 + 1e-6, 2.0]}) is not None
        assert wl.same_numbers({"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 1.0}) is not None
        assert wl.same_numbers({"w": ["clamped"]}, {"w": []}) is not None

    def test_grid_hits_compare_exactly(self):
        head = "tau2,rho,n,reps,alpha,coverage_ncr,coverage_ccr,median_h,mean_i2,mc_se\n"
        a = wl._parse_grid(head + "0.2,0,8,20,0.05,0.9,0.95,0.3,0.5,0.0487\n")
        b = wl._parse_grid(head + "0.2,0,8,20,0.05,0.85,0.95,0.3,0.5,0.0487\n")
        assert a["rows"][0]["hits_ncr"] == "18"
        assert wl.same_numbers(a, b) is not None
