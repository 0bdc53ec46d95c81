import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.linalg import _umath_linalg

from dtameta import (
    BTerms,
    DataError,
    Dataset,
    OracleConfig,
    PsdProjectionWarning,
    Study,
    Sym2,
    b_star,
    bias_corrected_sigma,
    confidence_region,
    expansion_coverage,
    h_adjust,
    mc_b_moments,
    mc_coverage,
    rep_stream,
    reml_sigma,
    v_matrix,
)
from dtameta import estimators, oracle, regions
from dtameta.cli import DESIGN_SEED, read_table
from dtameta.estimators import _chol2, _d_stack
from dtameta.oracle import _draw_stack
from dtameta.regions import _rep_fit
from dtameta.simlab import gen_within_variances

X05 = 5.991464547107982


# a rank-one truth on which some replications' D_i or summed precision A round to singular
SINGULAR_A_TRUTH = OracleConfig(
    sigma_true=Sym2(411242653809478.8, 127270022277840.95, 39387107394035.56),
    within_vars=((0.07250840085041983, 0.2604907992106054),
                 (0.027343258573638195, 0.03825679791142379)),
    reps=100, seed=0,
)


def homogeneous_config(n, reps, seed, s_val=0.2, sigma=None):
    sigma = sigma if sigma is not None else Sym2(0.4, 0.0, 0.4)
    return OracleConfig(
        sigma_true=sigma, within_vars=tuple((s_val, s_val) for _ in range(n)),
        reps=reps, seed=seed,
    )


def frozen_heterogeneous_design(n=16):
    """The pinned irregular design used across validation tests."""
    sv = gen_within_variances(n, rep_stream(DESIGN_SEED, 0))
    return tuple((float(a), float(b)) for a, b in sv)


class TestOracleConfig:
    def test_coerces_variances_to_floats(self):
        cfg = homogeneous_config(3, 1000, 0, s_val=1)
        assert cfg.within_vars == ((1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
        assert cfg.s_array().dtype == float
        assert cfg.n == len(cfg.within_vars)

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_nonpositive_variance_rejected(self, bad):
        with pytest.raises(DataError):
            OracleConfig(sigma_true=Sym2(0.1, 0.0, 0.1),
                         within_vars=((bad, 0.1),), reps=1000, seed=0)

    def test_indefinite_sigma_rejected(self):
        with pytest.raises(ValueError):
            OracleConfig(sigma_true=Sym2(0.1, 0.5, 0.1),
                         within_vars=((0.1, 0.1),), reps=1000, seed=0)

    def test_rank_one_truths_accepted_at_any_scale(self):
        # Sym2.is_psd's tolerance is relative to the larger |eigenvalue|, so a
        # rank-one truth of scale 1e4 to 1e10, whose smaller eigenvalue rounds
        # to about -1e-10, is PSD at every scale
        rng = np.random.default_rng(2)
        scale = 10.0 ** rng.uniform(4.0, 10.0, 2000)
        theta = rng.uniform(0.0, 2.0 * math.pi, 2000)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        for m in scale[:, None, None] * u[:, :, None] * u[:, None, :]:
            OracleConfig(sigma_true=Sym2.from_array(m),
                         within_vars=((0.1, 0.1),), reps=1000, seed=0)

    def test_tiny_indefinite_truth_rejected(self):
        # eigenvalues (-5e-11, 1e-12): indefinite whatever its scale
        sigma = Sym2(1e-12, 0.0, -5e-11)
        assert not sigma.is_psd()
        with pytest.raises(ValueError, match="sigma_true must be PSD"):
            OracleConfig(sigma_true=sigma, within_vars=((0.1, 0.1),), reps=1000, seed=0)
        assert Sym2(0.0, 0.0, 0.0).is_psd()

    def test_nonpositive_reps_rejected(self):
        with pytest.raises(ValueError):
            homogeneous_config(2, 0, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            homogeneous_config(2, 1000, -1)


class TestRepStream:
    def test_same_rep_reproduces(self):
        a = rep_stream(42, 7).standard_normal(5)
        b = rep_stream(42, 7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_reps_differ(self):
        a = rep_stream(42, 0).standard_normal(5)
        b = rep_stream(42, 1).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = rep_stream(1, 0).standard_normal(5)
        b = rep_stream(2, 0).standard_normal(5)
        assert not np.array_equal(a, b)


def states_of(seed, reps):
    return [rep_stream(seed, r).bit_generator.state for r in reps]


def bulk_states_of(seed, reps):
    return [
        {"bit_generator": "PCG64", "state": {"state": s, "inc": i}, "has_uint32": 0, "uinteger": 0}
        for s, i in oracle._stream_states(seed, reps)
    ]


class TestBulkStreams:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**192 - 1),
        start=st.integers(0, 2**40 - 6),
        count=st.integers(0, 5),
    )
    def test_states_match_rep_stream(self, seed, start, count):
        reps = range(start, start + count)
        assert bulk_states_of(seed, reps) == states_of(seed, reps)

    @pytest.mark.parametrize(
        "seed", [0, 2**32 - 1, 2**32, 2**96 - 1, 2**128 - 1, 2**128, 2**160 + 3, 2**191]
    )
    @pytest.mark.parametrize(
        "reps", [range(0, 3), range(2**32 - 2, 2**32 + 2), range(2**40 - 1, 2**40)]
    )
    def test_states_at_word_boundaries(self, seed, reps):
        # run entropy of 1 to 6 words, spawn keys of 1 and 2 words, and a chunk spanning both
        assert bulk_states_of(seed, reps) == states_of(seed, reps)

    def test_negative_seed_raises_like_rep_stream(self):
        with pytest.raises(ValueError) as expected:
            rep_stream(-1, 0)
        with pytest.raises(ValueError) as got:
            oracle._stream_states(-1, range(4))
        assert str(got.value) == str(expected.value)

    def test_normal_blocks_are_rep_stream_draws(self):
        # a call rewrites its one state dict per row, so calls alternating seeds and
        # widths, an empty range among them, must each give exactly their own streams
        calls = [
            (11, range(5, 9), 7), (2**64 + 3, range(2**32 - 2, 2**32 + 1), 32), (11, range(4, 4), 9)
        ]
        for seed, reps, width in calls * 2:
            z = oracle._normal_blocks(seed, reps, width)
            assert z.shape == (len(reps), width)
            for row, r in zip(z, reps):
                assert row.tobytes() == rep_stream(seed, r).standard_normal(width).tobytes()


class TestMcBMoments:
    def test_rejects_small_rep_counts(self):
        with pytest.raises(ValueError):
            mc_b_moments(homogeneous_config(4, 999, 0))

    def test_override_with_truth_gives_exact_zeros(self):
        cfg = homogeneous_config(8, 1000, 3)
        bt, ses = mc_b_moments(cfg, sigma_hat_override=cfg.sigma_true)
        assert (bt.b1, bt.b2, bt.b3) == (0.0, 0.0, 0.0)
        assert ses == (0.0, 0.0, 0.0)

    def test_override_matches_direct_computation(self):
        cfg = homogeneous_config(6, 1000, 3, s_val=0.25)
        override = Sym2(0.5, 0.1, 0.3)
        bt, ses = mc_b_moments(cfg, sigma_hat_override=override)
        assert ses == (0.0, 0.0, 0.0)

        s = cfg.s_array()
        def v_of(sig):
            d = [sig.as_array() + np.diag(s[i]) for i in range(cfg.n)]
            return np.linalg.inv(sum(np.linalg.inv(m) for m in d))
        v_true = v_of(cfg.sigma_true)
        k = (v_of(override) - v_true) @ np.linalg.inv(v_true)
        assert bt.b3 == pytest.approx(float(np.trace(k)), rel=1e-13)
        assert bt.b1 == pytest.approx(float(np.trace(k)) ** 2, rel=1e-13)
        assert bt.b2 == pytest.approx(float(np.trace(k @ k)), rel=1e-13)

    def test_deterministic_given_config(self):
        cfg = homogeneous_config(6, 1000, 9)
        first = mc_b_moments(cfg)
        second = mc_b_moments(cfg)
        assert first == second

    def test_seed_choice_shifts_estimate_within_noise(self):
        bt_a, se_a = mc_b_moments(homogeneous_config(8, 2000, 1))
        bt_b, se_b = mc_b_moments(homogeneous_config(8, 2000, 2))
        pairs = zip(
            (bt_a.b1, bt_a.b2, bt_a.b3), (bt_b.b1, bt_b.b2, bt_b.b3), se_a, se_b
        )
        for va, vb, sa, sb in pairs:
            assert abs(va - vb) <= 4.0 * (sa + sb)

    def test_matches_public_api_reimplementation(self):
        # same estimand assembled rep by rep from exported pieces only
        cfg = homogeneous_config(6, 1000, 13, s_val=0.3, sigma=Sym2(0.5, 0.15, 0.45))
        bt, _ = mc_b_moments(cfg)

        s = cfg.s_array()
        chols = [np.linalg.cholesky(cfg.sigma_true.as_array() + np.diag(s[i]))
                 for i in range(cfg.n)]
        dummy = Dataset(
            Study(y_a=0.0, y_b=0.0, s_a=s[i, 0], s_b=s[i, 1]) for i in range(cfg.n)
        )
        v_true = v_matrix(dummy, cfg.sigma_true).as_array()
        v_true_inv = np.linalg.inv(v_true)
        acc = np.zeros(3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for r in range(cfg.reps):
                z = rep_stream(cfg.seed, r).standard_normal((cfg.n, 2))
                y = np.stack([chols[i] @ z[i] for i in range(cfg.n)])
                d = Dataset(
                    Study(y_a=y[i, 0], y_b=y[i, 1], s_a=s[i, 0], s_b=s[i, 1])
                    for i in range(cfg.n)
                )
                sig_hat = bias_corrected_sigma(d)
                k = (v_matrix(d, sig_hat).as_array() - v_true) @ v_true_inv
                tr = float(np.trace(k))
                acc += (tr * tr, float(np.trace(k @ k)), tr)
        expected = acc / cfg.reps
        assert bt.b1 == pytest.approx(expected[0], rel=1e-10)
        assert bt.b2 == pytest.approx(expected[1], rel=1e-10)
        assert bt.b3 == pytest.approx(expected[2], rel=1e-10, abs=1e-12)

    @pytest.mark.slow
    def test_homogeneous_moments_match_closed_forms(self):
        # the exact moments for equal studies differ from the O(1/n) terms by
        # 4/n^2, 6/n^2 and -2/n^2 at leading order (b1, b2, b3), so the
        # deterministic slack is 8/n^2 on top of Monte Carlo noise
        n = 16
        bt, ses = mc_b_moments(homogeneous_config(n, 20_000, 7))
        slack = 8.0 / n**2
        assert abs(bt.b1 - 4.0 / n) <= 3.0 * ses[0] + slack
        assert abs(bt.b2 - 6.0 / n) <= 3.0 * ses[1] + slack
        assert abs(bt.b3 - 0.0) <= 3.0 * ses[2] + slack

    @pytest.mark.slow
    def test_heterogeneous_moments_match_analytic_terms(self):
        n = 16
        design = frozen_heterogeneous_design(n)
        sigma = Sym2(0.4, 0.08, 0.4)
        cfg = OracleConfig(sigma_true=sigma, within_vars=design, reps=20_000, seed=7)
        bt, ses = mc_b_moments(cfg)

        dummy = Dataset(
            Study(y_a=0.0, y_b=0.0, s_a=a, s_b=b) for a, b in design
        )
        analytic = b_star(dummy, sigma)
        slack = 8.5 / n**2
        assert abs(bt.b1 - analytic.b1) <= 3.0 * ses[0] + slack
        assert abs(bt.b2 - analytic.b2) <= 3.0 * ses[1] + slack
        assert abs(bt.b3 - analytic.b3) <= 3.0 * ses[2] + slack

    @pytest.mark.slow
    def test_scaled_discrepancy_shrinks_as_n_grows(self):
        # the analytic terms are accurate to o(1/n): n * |mc - analytic|
        # must head to zero along n = 16, 32, 64
        scaled = {}
        for n in (16, 32, 64):
            bt, _ = mc_b_moments(homogeneous_config(n, 100_000, 5))
            scaled[n] = (n * abs(bt.b1 - 4.0 / n), n * abs(bt.b2 - 6.0 / n))
        assert scaled[16][1] > scaled[32][1] > scaled[64][1]
        assert scaled[64][0] < scaled[16][0]


class TestExpansionCoverage:
    def test_null_terms_reproduce_nominal_coverage(self):
        assert expansion_coverage(BTerms(0.0, 0.0, 0.0), 0.0, X05) == pytest.approx(
            0.95, abs=1e-15
        )

    def test_frozen_uncorrected_value(self):
        # b = (0.5, 0.75, 0), h = 0; densities evaluated by hand:
        # 0.95 - 0.25 * x exp(-x/2)/4 - 0.5 * x^2 exp(-x/2)/16 at x = -2 log .05
        got = expansion_coverage(BTerms(0.5, 0.75, 0.0), 0.0, X05)
        assert got == pytest.approx(0.87518660, abs=1e-8)
        e = math.exp(-0.5 * X05)
        by_hand = (1.0 - e) - 0.25 * (X05 * e / 4.0) - 0.5 * (X05 * X05 * e / 16.0)
        assert got == pytest.approx(by_hand, abs=1e-15)

    def test_cancellation_with_matching_h(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            b = BTerms(*rng.uniform(0.0, 0.6, size=3))
            x = float(rng.uniform(2.0, 12.0))
            alpha_equiv = math.exp(-0.5 * x)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                h = h_adjust(b, 2, x)
            cov = expansion_coverage(b, h, x)
            assert cov == pytest.approx(1.0 - alpha_equiv, abs=1e-12)

    def test_rejects_nonpositive_threshold(self):
        for x in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                expansion_coverage(BTerms(0.1, 0.1, 0.0), 0.0, x)
        for h in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="h finite"):
                expansion_coverage(BTerms(0.1, 0.1, 0.0), h, 1.0)


PINNED_COVERAGE_CFG = OracleConfig(
    sigma_true=Sym2(0.4, 0.16, 0.4),
    within_vars=frozen_heterogeneous_design(8),
    reps=1000,
    seed=42,
)


class TestMcCoverage:
    def test_rejects_small_rep_counts(self):
        with pytest.raises(ValueError):
            mc_coverage(homogeneous_config(4, 99, 0))

    def test_method_and_alpha_validation(self):
        cfg = homogeneous_config(4, 100, 0)
        with pytest.raises(ValueError):
            mc_coverage(cfg, method="bootstrap")
        with pytest.raises(ValueError):
            mc_coverage(cfg, alpha=1.0)

    @pytest.mark.parametrize("estimate", [mc_coverage, mc_b_moments])
    def test_singular_truth_rejected_before_the_cholesky(self, estimate):
        # Sigma passes OracleConfig's PSD tolerance, yet D_1 = Sigma + S_1 has a11 < 0
        cfg = OracleConfig(
            sigma_true=Sym2(-5e-11, 0.0, 1.0), within_vars=((1e-12, 1.0),) * 2,
            reps=1000, seed=0,
        )
        with pytest.raises(ValueError, match="singular or indefinite marginal covariance D_i"):
            estimate(cfg)

    @pytest.mark.slow
    def test_small_n_coverage_profile(self):
        # n = 8 with strong heterogeneity: the naive region undercovers badly
        # and the corrected one lands near nominal
        ncr, _, med_ncr = mc_coverage(PINNED_COVERAGE_CFG, method="ncr")
        ccr, se, med_ccr = mc_coverage(PINNED_COVERAGE_CFG, method="ccr")
        assert ncr < 0.93
        assert 0.93 <= ccr <= 0.98
        assert ccr >= ncr
        assert med_ncr == 0.0
        assert med_ccr > 0.0
        assert se == pytest.approx(math.sqrt(ccr * (1.0 - ccr) / 1000.0), rel=1e-12)

    def test_huge_threshold_covers_everything(self):
        cfg = homogeneous_config(8, 100, 4)
        for method in ("ncr", "ccr"):
            cov, se, _ = mc_coverage(cfg, method=method, alpha=1e-300)
            assert cov == 1.0
            assert se == 0.0

    def test_deterministic_given_config(self):
        cfg = homogeneous_config(6, 100, 8)
        assert mc_coverage(cfg) == mc_coverage(cfg)

    def test_ncr_skips_the_trace_kernel(self, monkeypatch):
        def fail(*args):
            raise AssertionError("trace kernel called for the naive region")

        monkeypatch.setattr(regions, "_b_star_kernel", fail)
        cov, _, _ = mc_coverage(homogeneous_config(6, 100, 8), method="ncr")
        assert 0.0 < cov <= 1.0

    def test_callers_that_drop_v_never_form_it(self, monkeypatch, fixtures_dir):
        # REML's objective and both Monte Carlo regions read the summed precision
        # A, never V = A^{-1}: only the (..., n, 2, 2) D stacks, whitened or not,
        # are inverted, by LAPACK's inv gufunc (which np.linalg.inv wraps) or by
        # the closed-form _inv2; mc_coverage reads the truth's D_i uninverted,
        # so it inverts only one chunk of 100 replications' D stack (and for
        # the corrected region the trace kernel's whitened one)
        shapes = []

        def counting(inv):
            def counted(a, **kwargs):
                shapes.append(np.shape(a))
                return inv(a, **kwargs)

            return counted

        d = read_table(fixtures_dir / "synthetic14.csv")
        monkeypatch.setattr(_umath_linalg, "inv", counting(_umath_linalg.inv))
        inv2 = counting(estimators._inv2)
        for module in (estimators, oracle, regions):
            monkeypatch.setattr(module, "_inv2", inv2)
        reml_sigma(d)
        assert shapes and (2, 2) not in shapes
        for method, chunk_stacks in (("ncr", 1), ("ccr", 2)):
            shapes.clear()
            mc_coverage(homogeneous_config(6, 100, 8), method=method)
            assert shapes == [(100, 6, 2, 2)] * chunk_stacks

    @pytest.mark.parametrize("method", ["ncr", "ccr"])
    def test_runs_clean_under_warnings_as_errors(self, method):
        # tau2 = 0 and n = 3: the clamp fires and |h| > 1 on most replications
        cfg = OracleConfig(
            sigma_true=Sym2(0.0, 0.0, 0.0),
            within_vars=((0.05, 0.3), (0.2, 0.1), (0.4, 0.25)), reps=100, seed=3,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, median_h = mc_coverage(cfg, method=method)
        assert median_h > 1.0 if method == "ccr" else median_h == 0.0

    @pytest.mark.parametrize("method", ["ncr", "ccr"])
    def test_singular_replication_precision_is_refused(self, method):
        # replication 1's clamped estimate leaves a D_i that rounds to singular:
        # the lab refuses it with the public fit's error rather than count it a miss
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="singular or indefinite marginal covariance D_i") as got:
                mc_coverage(SINGULAR_A_TRUTH, method)
        assert type(got.value) is ValueError

    @pytest.mark.parametrize(
        "rep, message",
        [(1, "singular or indefinite marginal covariance D_i"),
         (46, "accumulated precision is singular")],
    )
    def test_lab_and_public_fit_refuse_the_same_draw(self, rep, message):
        # replication 46's D_i pass and its summed precision A rounds to singular
        cfg = SINGULAR_A_TRUTH
        s = cfg.s_array()
        y = _draw_stack(cfg, range(rep, rep + 1), _chol2(_d_stack(s, cfg.sigma_true.as_array())))
        for x in (None, X05):
            with pytest.raises(ValueError, match=message):
                _rep_fit(y, s, x)
        d = Dataset(Study(*y[0, i], *s[i]) for i in range(cfg.n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", PsdProjectionWarning)
            for method in ("ncr", "ccr"):
                with pytest.raises(ValueError, match=message) as got:
                    confidence_region(d, method)
                assert type(got.value) is ValueError

    @pytest.mark.parametrize(
        "estimate",
        [lambda cfg: mc_coverage(cfg, "ncr"), lambda cfg: mc_coverage(cfg, "ccr"), mc_b_moments],
        ids=["mc_coverage_ncr", "mc_coverage_ccr", "mc_b_moments"],
    )
    def test_one_study_is_refused_as_the_fit_refuses_it(self, estimate):
        # the study count is checked in the moment kernel the lab and the fit share
        cfg = OracleConfig(
            sigma_true=Sym2(0.3, 0.0, 0.3), within_vars=((0.2, 0.2),), reps=1000, seed=0
        )
        with pytest.raises(DataError) as fit:
            bias_corrected_sigma(Dataset([Study(0.0, 0.0, 0.2, 0.2)]))
        with pytest.raises(DataError) as lab:
            estimate(cfg)
        assert str(lab.value) == str(fit.value)

    @pytest.mark.parametrize("method", ["ncr", "ccr"])
    def test_returns_python_floats(self, method):
        result = mc_coverage(homogeneous_config(6, 100, 8), method=method)
        assert [type(v) for v in result] == [float, float, float]

    def test_ncr_median_h_is_zero(self):
        cfg = homogeneous_config(6, 100, 8)
        _, _, med = mc_coverage(cfg, method="ncr")
        assert med == 0.0


# a rank-one truth whose D_i pass model._all_pd but whose first D_i LAPACK's
# Cholesky refuses; a replication's Sigma_hat then makes a D_i fail the rule
RANK_ONE_TRUTH = Sym2(7.271121008453897e17, -9.191167182965154e16, 1.161822971822313e16)
RANK_ONE_DESIGN = (
    (0.004978732110473153, 0.2544730154631358),
    (0.5896448087486738, 0.006286237960711253),
    (0.04138121356739469, 0.021294060661170462),
    (0.6209433036483197, 0.001322915587268277),
)


class TestDrawFactor:
    # the draws are colored by the fit's closed-form factor _chol2, so every
    # truth whose D_i pass the one positive-definiteness rule draws, and a
    # refusal is the rule's own ValueError (LinAlgError is a subclass of it)
    @pytest.mark.parametrize("estimate", [mc_coverage, mc_b_moments])
    def test_rank_one_truth_gets_the_rules_error(self, estimate):
        cfg = OracleConfig(
            sigma_true=RANK_ONE_TRUTH, within_vars=RANK_ONE_DESIGN, reps=1000, seed=0
        )
        _d_stack(cfg.s_array(), RANK_ONE_TRUTH.as_array())  # the truth's D_i pass
        with pytest.raises(ValueError, match="singular or indefinite marginal") as got:
            estimate(cfg)
        assert type(got.value) is ValueError

    @settings(max_examples=100, deadline=None)
    @given(
        log_scale=st.floats(8.0, 20.0),
        angle=st.floats(0.0, math.pi),
        log_s=st.lists(st.tuples(*[st.floats(-3.0, 0.0)] * 2), min_size=2, max_size=4),
    )
    def test_rank_one_truths_draw_or_get_the_rules_error(self, log_scale, angle, log_s):
        u = np.array([math.cos(angle), math.sin(angle)])
        sigma = Sym2.from_array(10.0**log_scale * np.outer(u, u))
        s = 10.0 ** np.array(log_s)
        assume(sigma.is_psd())
        try:
            _d_stack(s, sigma.as_array())
        except ValueError:
            assume(False)
        cfg = OracleConfig(
            sigma_true=sigma, within_vars=tuple(map(tuple, s)), reps=100, seed=0
        )
        try:
            with warnings.catch_warnings():
                # a replication's A may round to singular: the rule refuses it
                warnings.simplefilter("error")
                mc_coverage(cfg, "ncr")
        except ValueError as exc:
            assert type(exc) is ValueError, repr(exc)

    @pytest.mark.parametrize("estimate", [mc_coverage, mc_b_moments])
    def test_truth_whose_determinant_overflows_gets_the_rules_error(self, monkeypatch, estimate):
        # det D_i = 1e600 rounds to inf: the rule refuses D_i before any draw,
        # which an infinite factor would color
        def fail(*args):
            raise AssertionError("a refused truth was drawn")

        monkeypatch.setattr(oracle, "_draw_stack", fail)
        cfg = OracleConfig(
            sigma_true=Sym2(1e300, 0.0, 1e300), within_vars=((0.1, 0.1),) * 3,
            reps=1000, seed=0,
        )
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="singular or indefinite marginal covariance D_i"):
                estimate(cfg)

    def test_estimates_need_no_lapack_cholesky(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("LAPACK's Cholesky called")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        cfg = homogeneous_config(6, 1000, 8, sigma=Sym2(0.3, 0.1, 0.2))
        bt, _ = mc_b_moments(cfg)
        assert all(map(math.isfinite, (bt.b1, bt.b2, bt.b3)))
        for method in ("ncr", "ccr"):
            assert 0.0 < mc_coverage(cfg, method)[0] <= 1.0


class TestChunking:
    # ids count replications per chunk; a row cap below n still runs one
    @pytest.mark.parametrize("rows", [3, 5, 35, None], ids=["below_n", "1", "7", "None"])
    def test_results_independent_of_chunking(self, monkeypatch, rows):
        moments_cfg = homogeneous_config(5, 1000, 21, sigma=Sym2(0.3, 0.1, 0.2))
        coverage_cfg = OracleConfig(
            sigma_true=Sym2(0.3, 0.1, 0.2), within_vars=frozen_heterogeneous_design(5),
            reps=150, seed=22,
        )

        def run():
            return (
                mc_b_moments(moments_cfg),
                mc_coverage(coverage_cfg, "ncr"),
                mc_coverage(coverage_cfg, "ccr"),
            )

        default = run()
        if rows is not None:
            monkeypatch.setattr(oracle, "_CHUNK_ROWS", rows)
        assert run() == default

    def test_default_cap_spans_chunks_bit_for_bit(self, monkeypatch):
        cfg = homogeneous_config(32, 1000, 24, sigma=Sym2(0.3, 0.1, 0.2))
        steps = []

        def recording_draw(cfg, reps, chol):
            steps.append(len(reps) * cfg.n)
            return _draw_stack(cfg, reps, chol)

        monkeypatch.setattr(oracle, "_draw_stack", recording_draw)
        default = mc_b_moments(cfg)
        assert len(steps) >= 2 and max(steps) <= oracle._CHUNK_ROWS
        monkeypatch.setattr(oracle, "_CHUNK_ROWS", cfg.n - 1)
        assert mc_b_moments(cfg) == default


def draw_stack_per_rep(cfg, reps, chol):
    """The y stack drawn one rep_stream at a time and colored per replication."""
    y = np.empty((len(reps), cfg.n, 2))
    for j, r in enumerate(reps):
        z = rep_stream(cfg.seed, r).standard_normal((cfg.n, 2))
        y[j] = np.einsum("iab,ib->ia", chol, z)
    return y


class TestBlockDraw:
    @pytest.mark.parametrize("n", [1, 3, 16, 64])
    @pytest.mark.parametrize("sigma", [Sym2(0.4, 0.08, 0.4), Sym2(0.0, 0.0, 0.0)])
    def test_draw_stack_matches_per_rep_draws(self, n, sigma):
        cfg = OracleConfig(
            sigma_true=sigma, within_vars=frozen_heterogeneous_design(n), reps=1000, seed=31
        )
        chol = np.linalg.cholesky(_d_stack(cfg.s_array(), sigma.as_array()))
        reps = range(40, 140)
        expected = draw_stack_per_rep(cfg, reps, chol)
        assert oracle._draw_stack(cfg, reps, chol).tobytes() == expected.tobytes()

    def test_results_match_per_rep_draws(self, monkeypatch):
        moments_cfg = homogeneous_config(5, 1000, 21, sigma=Sym2(0.3, 0.1, 0.2))
        coverage_cfg = OracleConfig(
            sigma_true=Sym2(0.3, 0.1, 0.2), within_vars=frozen_heterogeneous_design(7),
            reps=300, seed=22,
        )

        def run():
            return (
                mc_b_moments(moments_cfg),
                mc_coverage(coverage_cfg, "ncr"),
                mc_coverage(coverage_cfg, "ccr"),
            )

        default = run()
        monkeypatch.setattr(oracle, "_draw_stack", draw_stack_per_rep)
        assert run() == default

    def test_builds_no_stream_per_replication(self, stream_builds):
        cfg = homogeneous_config(4, 1000, 23, sigma=Sym2(0.3, 0.1, 0.2))
        mc_coverage(cfg, "ccr")
        mc_b_moments(cfg)
        # one SeedSequence and one PCG64 per chunk of each call
        chunks = math.ceil(cfg.reps / (oracle._CHUNK_ROWS // cfg.n))
        assert stream_builds == {"SeedSequence": 2 * chunks, "PCG64": 2 * chunks, "default_rng": 0}
