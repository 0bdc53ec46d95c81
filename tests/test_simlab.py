import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtameta import (
    AdjustmentMagnitudeWarning,
    GridResult,
    PsdProjectionWarning,
    Scenario,
    b_star,
    bias_corrected_sigma,
    chi2_quantile,
    confidence_region,
    gen_dataset,
    gen_within_variances,
    grid_to_csv,
    h_adjust,
    i_squared,
    region_contains,
    rep_stream,
    run_grid,
)
from dtameta import oracle, simlab
from dtameta.simlab import GRID_CSV_HEADER

VAR_LO, VAR_HI = 0.009, 0.6


def chi2_cdf_1(x):
    """Chi-square(1) CDF, erf closed form."""
    return math.erf(math.sqrt(x / 2.0))


def chi2_cdf_3(x):
    """Chi-square(3) CDF, erf closed form."""
    return math.erf(math.sqrt(x / 2.0)) - math.sqrt(2.0 / math.pi) * math.sqrt(x) * math.exp(
        -x / 2.0
    )


def truncated_variance_mean():
    """E[v] for v = X/4, X ~ chi-square(1) truncated to [4*lo, 4*hi].

    Uses the identity x f_1(x) = f_3(x), so the truncated first moment is a
    ratio of CDF differences.
    """
    a, b = 4.0 * VAR_LO, 4.0 * VAR_HI
    return 0.25 * (chi2_cdf_3(b) - chi2_cdf_3(a)) / (chi2_cdf_1(b) - chi2_cdf_1(a))


class TestScenarioValidation:
    def test_accepts_reasonable_cell(self):
        sc = Scenario(tau2=0.4, rho=0.4, n=8, reps=100, alpha=0.05, seed=1)
        assert sc.n == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tau2=-0.1, rho=0.0, n=8, reps=10),
            dict(tau2=0.1, rho=1.0, n=8, reps=10),
            dict(tau2=0.1, rho=-1.0, n=8, reps=10),
            dict(tau2=0.1, rho=0.0, n=1, reps=10),
            dict(tau2=0.1, rho=0.0, n=8, reps=0),
            dict(tau2=0.1, rho=0.0, n=8, reps=10, alpha=0.0),
            dict(tau2=math.nan, rho=0.0, n=8, reps=10),
            dict(tau2=math.inf, rho=0.0, n=8, reps=10),
            dict(tau2=math.nextafter(1e150, math.inf), rho=0.0, n=8, reps=10),
        ],
    )
    def test_rejects_bad_cells(self, kwargs):
        with pytest.raises(ValueError):
            Scenario(**kwargs)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            Scenario(tau2=0.1, rho=0.0, n=8, reps=10, seed=-1)

    def test_grid_result_range_check(self):
        sc = Scenario(tau2=0.1, rho=0.0, n=8, reps=10)
        with pytest.raises(ValueError):
            GridResult(sc, coverage_ncr=1.2, coverage_ccr=0.9, median_h=0.1,
                       mean_i2=0.5, mc_se=0.01)


class TestGenWithinVariances:
    def test_shape_and_range(self):
        sv = gen_within_variances(50, rep_stream(1, 0))
        assert sv.shape == (50, 2)
        assert np.all(sv >= VAR_LO)
        assert np.all(sv <= VAR_HI)

    def test_deterministic_for_equal_streams(self):
        a = gen_within_variances(20, rep_stream(9, 4))
        b = gen_within_variances(20, rep_stream(9, 4))
        np.testing.assert_array_equal(a, b)

    def test_mean_matches_truncated_moment(self):
        sv = gen_within_variances(250_000, rep_stream(99, 0))
        vals = sv.ravel()
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        expected = truncated_variance_mean()
        assert expected == pytest.approx(0.1732291633, abs=1e-9)
        assert abs(vals.mean() - expected) <= 4.0 * se

    def test_distribution_matches_truncated_chi_square(self):
        # one-sample Kolmogorov-Smirnov against the exact truncated CDF
        sv = gen_within_variances(50_000, rep_stream(123, 0))
        vals = np.sort(sv.ravel())
        a, b = 4.0 * VAR_LO, 4.0 * VAR_HI
        denom = chi2_cdf_1(b) - chi2_cdf_1(a)
        cdf = (np.vectorize(chi2_cdf_1)(4.0 * vals) - chi2_cdf_1(a)) / denom
        n_pts = vals.size
        grid = np.arange(n_pts)
        ks = max(
            float(np.max(cdf - grid / n_pts)),
            float(np.max((grid + 1) / n_pts - cdf)),
        )
        assert ks < 0.005

    def test_impossible_rejection_raises(self):
        class ZeroRng:
            def standard_normal(self, size):
                return np.zeros(size)

        with pytest.raises(RuntimeError):
            gen_within_variances(4, ZeroRng())

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            gen_within_variances(0, rep_stream(1, 0))

    def test_documented_acceptance_probability(self):
        # P(0.009 <= Z^2 / 4 <= 0.6) = 2 (Phi(sqrt 2.4) - Phi(sqrt 0.036))
        accept = chi2_cdf_1(4.0 * VAR_HI) - chi2_cdf_1(4.0 * VAR_LO)
        assert accept == pytest.approx(0.728, abs=5e-4)
        sv = 0.25 * rep_stream(5, 0).standard_normal(200_000) ** 2
        rate = np.mean((sv >= VAR_LO) & (sv <= VAR_HI))
        assert abs(rate - accept) <= 4.0 * math.sqrt(accept * (1.0 - accept) / sv.size)


class TestGenDataset:
    def test_deterministic_in_seed_and_rep(self):
        sc = Scenario(tau2=0.3, rho=0.5, n=6, reps=10, seed=7)
        y1, s1 = gen_dataset(sc, 3).arrays()
        y2, s2 = gen_dataset(sc, 3).arrays()
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(s1, s2)

    def test_distinct_reps_differ(self):
        sc = Scenario(tau2=0.3, rho=0.5, n=6, reps=10, seed=7)
        y1, _ = gen_dataset(sc, 0).arrays()
        y2, _ = gen_dataset(sc, 1).arrays()
        assert not np.array_equal(y1, y2)

    def test_study_ids_follow_convention(self):
        sc = Scenario(tau2=0.3, rho=0.5, n=12, reps=10, seed=7)
        d = gen_dataset(sc, 3)
        assert d.studies[0].id == "r3s01"
        assert d.studies[11].id == "r3s12"

    def test_zero_heterogeneity_leaves_only_within_noise(self):
        sc = Scenario(tau2=0.0, rho=0.0, n=20_000, reps=1, seed=5)
        y, s = gen_dataset(sc, 0).arrays()
        # each column's variance is the mean within variance; columns uncorrelated
        for col in range(2):
            assert y[:, col].var(ddof=1) == pytest.approx(s[:, col].mean(), rel=0.05)
        corr = np.corrcoef(y[:, 0], y[:, 1])[0, 1]
        assert abs(corr) < 0.025

    def test_correlation_attenuated_by_within_noise(self):
        # marginal correlation of y is tau2*rho / (tau2 + E[s]); with
        # tau2 = rho = 0.8 and E[s] = 0.17323 that is 0.64 / 0.97323
        sc = Scenario(tau2=0.8, rho=0.8, n=100_000, reps=1, seed=11)
        y, _ = gen_dataset(sc, 0).arrays()
        corr = float(np.corrcoef(y[:, 0], y[:, 1])[0, 1])
        expected = 0.64 / (0.8 + truncated_variance_mean())
        assert corr == pytest.approx(expected, abs=0.01)


def draw_per_rep(sc, reps, chol):
    """The replication stacks drawn one rep_stream at a time, as _draw does."""
    pairs = [simlab._draw(sc, r, chol) for r in reps]
    return np.stack([y for y, _ in pairs]), np.stack([s for _, s in pairs])


def draw_parts_per_rep(parts):
    """_draw_block's stacks of (scenario, reps) parts, drawn one rep_stream at a time."""
    stacks = [draw_per_rep(sc, reps, simlab._sigma_chol(sc.tau2, sc.rho)) for sc, reps in parts]
    return np.concatenate([y for y, _ in stacks]), np.concatenate([s for _, s in stacks])


# the fewest batches a block can hold: one per variance column, then 2n for
# mu and 2n for the noise; at this size almost every row takes the _draw path
MIN_BLOCK_BATCHES = 6


class TestBlockDraw:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 64),
        tau2=st.sampled_from([0.0, 0.05, 0.4]),
        rho=st.floats(-0.95, 0.95),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**33),
    )
    def test_matches_draw_bit_for_bit(self, n, tau2, rho, seed, start):
        sc = Scenario(tau2=tau2, rho=rho, n=n, reps=1, seed=seed)
        chol = simlab._sigma_chol(tau2, rho)
        reps = range(start, start + 9)
        y, s = simlab._draw_block([(sc, reps)])
        y_ref, s_ref = draw_per_rep(sc, reps, chol)
        assert y.tobytes() == y_ref.tobytes()
        assert s.tobytes() == s_ref.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_short_rows_match_draw(self, monkeypatch, n):
        monkeypatch.setattr(simlab, "_BLOCK_BATCHES", MIN_BLOCK_BATCHES)
        sc = Scenario(tau2=0.4, rho=0.4, n=n, reps=1, seed=3)
        chol = simlab._sigma_chol(0.4, 0.4)
        y, s = simlab._draw_block([(sc, range(200))])
        y_ref, s_ref = draw_per_rep(sc, range(200), chol)
        assert y.tobytes() == y_ref.tobytes()
        assert s.tobytes() == s_ref.tobytes()

    def test_grid_unchanged_by_block_size_and_per_rep_draws(self, monkeypatch):
        scenarios = [
            Scenario(tau2=0.4, rho=0.4, n=3, reps=300, seed=3),
            Scenario(tau2=0.0, rho=0.5, n=8, reps=300, seed=4),
            Scenario(tau2=0.2, rho=-0.3, n=16, reps=150, seed=5),
        ]
        default = run_grid(scenarios)
        monkeypatch.setattr(simlab, "_BLOCK_BATCHES", MIN_BLOCK_BATCHES)
        assert run_grid(scenarios) == default
        monkeypatch.setattr(simlab, "_draw_block", draw_parts_per_rep)
        assert run_grid(scenarios) == default

    @pytest.mark.parametrize("batches", [MIN_BLOCK_BATCHES, 10])
    def test_parts_match_draw_bit_for_bit(self, monkeypatch, batches):
        # parts of one n with their own Sigma, seed and replications, some adjacent in one scenario
        monkeypatch.setattr(simlab, "_BLOCK_BATCHES", batches)
        parts = [
            (Scenario(tau2=0.4, rho=0.4, n=3, reps=1, seed=3), range(0, 70)),
            (Scenario(tau2=0.0, rho=0.5, n=3, reps=1, seed=4), range(5, 6)),
            (Scenario(tau2=1.3, rho=-0.8, n=3, reps=1, seed=5), range(40, 110)),
            (Scenario(tau2=1.3, rho=-0.8, n=3, reps=1, seed=5), range(0, 40)),
        ]
        y, s = simlab._draw_block(parts)
        y_ref, s_ref = draw_parts_per_rep(parts)
        assert y.tobytes() == y_ref.tobytes()
        assert s.tobytes() == s_ref.tobytes()


def test_run_grid_builds_no_stream_per_replication(stream_builds, monkeypatch):
    # three scenarios of one n run as one group; at the default cap it has 3 chunks, and
    # the first two each span two scenarios
    grid = [Scenario(tau2=0.4, rho=0.4, n=8, reps=1500, seed=seed) for seed in (9, 10, 11)]
    short_rows = []

    def draw(sc, rep, chol, _draw=simlab._draw):
        short_rows.append((sc.seed, rep))
        return _draw(sc, rep, chol)

    monkeypatch.setattr(simlab, "_draw", draw)
    run_grid(grid)
    # at most one SeedSequence per scenario part of a chunk and one PCG64 per replication,
    # plus one rep_stream per rare short row
    chunks = math.ceil(sum(sc.reps for sc in grid) / (oracle._CHUNK_ROWS // 8))
    parts = chunks + len(grid) - 1
    assert stream_builds["PCG64"] == sum(sc.reps for sc in grid)
    assert stream_builds["default_rng"] == len(short_rows) <= 2
    assert stream_builds["SeedSequence"] <= parts + len(short_rows)


class TestRunGrid:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_grid([])

    def test_single_replication_coverage_is_binary(self):
        res = run_grid([Scenario(tau2=0.2, rho=0.0, n=6, reps=1, seed=2)])[0]
        assert res.coverage_ncr in (0.0, 1.0)
        assert res.coverage_ccr in (0.0, 1.0)
        assert res.mc_se == 0.0

    def test_fields_are_python_floats(self):
        res = run_grid([Scenario(tau2=0.2, rho=0.0, n=8, reps=100, seed=0)])[0]
        for name in ("coverage_ncr", "coverage_ccr", "median_h", "mean_i2", "mc_se"):
            assert type(getattr(res, name)) is float, name

    @pytest.mark.parametrize(
        "sc",
        [
            Scenario(tau2=0.2, rho=0.0, n=8, reps=1, seed=0),  # both regions cover
            Scenario(tau2=0.4, rho=0.4, n=4, reps=1, seed=1),  # only the corrected one covers
            Scenario(tau2=0.0, rho=0.5, n=5, reps=1, seed=11),  # the same, with tau2 = 0
            Scenario(tau2=0.2, rho=0.4, n=16, reps=1, seed=2),  # neither covers
            Scenario(tau2=0.0, rho=0.0, n=3, reps=40, seed=5),  # the clamp fires and |h| > 1
            Scenario(tau2=0.5, rho=-0.3, n=9, reps=25, seed=6),
        ],
    )
    def test_replication_matches_public_fit(self, sc):
        # the stacked fit of every replication against the public path on the same draws
        res = run_grid([sc])[0]
        x = chi2_quantile(sc.alpha, 2)
        hits_ncr = hits_ccr = 0
        h_values, i2_values = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for r in range(sc.reps):
                d = gen_dataset(sc, r)
                ncr, fit = confidence_region(d, "ncr", sc.alpha)
                hits_ncr += region_contains(ncr, (0.0, 0.0))
                h = h_adjust(b_star(d, fit.sigma), 2, x)
                h_values.append(h)
                ccr, fit = confidence_region(d, "ccr", sc.alpha)
                assert fit.h == h
                hits_ccr += region_contains(ccr, (0.0, 0.0))
                i2_values.append(i_squared(d.arrays()[1][:, 0], sc.tau2))
        assert res.coverage_ncr == hits_ncr / sc.reps
        assert res.coverage_ccr == hits_ccr / sc.reps
        assert res.median_h == pytest.approx(float(np.median(h_values)), rel=1e-12)
        assert res.mean_i2 == pytest.approx(float(np.mean(i2_values)), rel=1e-12)

    # ids count replications per chunk; a row cap below n still runs one
    @pytest.mark.parametrize("rows", [4, 6, 42, None], ids=["below_n", "1", "7", "None"])
    def test_results_independent_of_chunking(self, monkeypatch, rows):
        scenarios = [
            Scenario(tau2=0.3, rho=0.2, n=6, reps=40, seed=3),
            Scenario(tau2=0.0, rho=0.5, n=6, reps=40, seed=4),
        ]
        default = run_grid(scenarios)
        if rows is not None:
            monkeypatch.setattr(oracle, "_CHUNK_ROWS", rows)
        assert run_grid(scenarios) == default

    @pytest.mark.parametrize("batches", [MIN_BLOCK_BATCHES, 10])
    def test_groups_across_chunk_boundaries_match_scenarios_alone(self, monkeypatch, batches):
        # groups (n, alpha) = (3, 0.05), (5, 0.05) and (3, 0.1), interleaved; neighbours in a
        # group differ in Sigma, tau2 and seed
        grid = [
            Scenario(tau2=0.4, rho=0.4, n=3, reps=7, seed=1),
            Scenario(tau2=0.2, rho=-0.5, n=5, reps=5, seed=2),
            Scenario(tau2=0.6, rho=0.0, n=3, reps=6, alpha=0.1, seed=3),
            Scenario(tau2=0.0, rho=-0.6, n=3, reps=6, seed=4),
            Scenario(tau2=1.0, rho=0.7, n=5, reps=4, seed=5),
            Scenario(tau2=1.5, rho=0.8, n=3, reps=5, seed=6),
        ]
        alone = [run_grid([sc])[0] for sc in grid]
        # chunks of 4 replications at n = 3 and 2 at n = 5: some split a scenario, and the
        # chunks 4-7 and 12-15 of the first group and 4-5 of the second span two
        monkeypatch.setattr(oracle, "_CHUNK_ROWS", 12)
        # at the fewest batches most rows are short, so they fall on both sides of a boundary
        monkeypatch.setattr(simlab, "_BLOCK_BATCHES", batches)
        assert run_grid(grid) == alone
        assert run_grid(grid[::-1]) == alone[::-1]

    def test_runs_clean_under_warnings_as_errors(self):
        # on these draws the public path warns: the clamp fires and |h| > 1
        sc = Scenario(tau2=0.0, rho=0.0, n=3, reps=30, seed=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for r in range(sc.reps):
                d = gen_dataset(sc, r)
                h_adjust(b_star(d, bias_corrected_sigma(d)), 2)
        categories = {w.category for w in caught}
        assert {PsdProjectionWarning, AdjustmentMagnitudeWarning} <= categories
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_grid([sc])

    @pytest.mark.slow
    def test_smoke_grid_invariants(self):
        scenarios = [
            Scenario(tau2=0.4, rho=0.4, n=8, reps=200, seed=1),
            Scenario(tau2=0.4, rho=0.4, n=16, reps=200, seed=1),
        ]
        for res in run_grid(scenarios):
            assert res.coverage_ccr >= res.coverage_ncr - 2.0 * res.mc_se
            assert res.median_h >= 0.0
            assert 0.0 <= res.mean_i2 <= 1.0
            assert res.mc_se == pytest.approx(
                math.sqrt(res.coverage_ccr * (1.0 - res.coverage_ccr) / 200.0), rel=1e-12
            )

    def test_results_independent_of_grid_composition(self):
        a = Scenario(tau2=0.3, rho=0.2, n=6, reps=100, seed=3)
        b = Scenario(tau2=0.6, rho=0.2, n=6, reps=100, seed=4)
        combined = run_grid([a, b])
        assert combined[0] == run_grid([a])[0]
        assert combined[1] == run_grid([b])[0]

    def test_mean_i2_increases_with_tau2(self):
        # same seed means identical within-variance draws per replication,
        # so the heterogeneity fraction is pointwise increasing in tau2
        results = run_grid(
            [Scenario(tau2=t, rho=0.0, n=8, reps=150, seed=3) for t in (0.1, 0.4, 0.8)]
        )
        i2 = [r.mean_i2 for r in results]
        assert i2[0] < i2[1] < i2[2]


class TestGridCsv:
    @pytest.fixture
    def results(self):
        sc = Scenario(tau2=0.1, rho=0.25, n=8, reps=400, alpha=0.05, seed=6)
        return [
            GridResult(sc, coverage_ncr=0.8765432109, coverage_ccr=0.9512345678,
                       median_h=0.4321098765, mean_i2=0.5, mc_se=0.0106789012)
        ]

    def test_header_and_formatting(self, results):
        text = grid_to_csv(results)
        lines = text.strip().split("\n")
        assert lines[0] == GRID_CSV_HEADER
        assert lines[0] == "tau2,rho,n,reps,alpha,coverage_ncr,coverage_ccr,median_h,mean_i2,mc_se"
        row = lines[1].split(",")
        assert row[0] == "0.1"
        assert row[1] == "0.25"
        assert row[2] == "8"
        assert row[3] == "400"
        assert row[5] == "0.876543"
        assert row[6] == "0.951235"
        assert row[9] == "0.0106789"

    def test_round_trip_parse(self, results):
        reader = csv.DictReader(io.StringIO(grid_to_csv(results)))
        rows = list(reader)
        assert len(rows) == 1
        assert float(rows[0]["coverage_ccr"]) == pytest.approx(0.9512345678, rel=1e-5)
        assert int(rows[0]["n"]) == 8

