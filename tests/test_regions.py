import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dtameta import (
    AdjustmentMagnitudeWarning,
    BTerms,
    ConfidenceRegion,
    Dataset,
    RegionUndefinedError,
    Study,
    Sym2,
    b_star,
    chi2_quantile,
    confidence_region,
    h_adjust,
    region_boundary,
    region_contains,
    v_matrix,
)
from dtameta import estimators, regions
from dtameta.cli import read_table
from dtameta.estimators import (
    _checked_precisions, _d_stack, _gls_mean, _moment_bc_array, _precisions, _psd_clamp,
)
from dtameta.oracle import _CHUNK_ROWS, OracleConfig, _by_chunk, _draw_stack
from dtameta.regions import _b_star_kernel, _h_value, _rep_fit

X05 = 5.991464547107982  # -2 log 0.05


def make_dataset(y, s):
    return Dataset(
        Study(y_a=ya, y_b=yb, s_a=sa, s_b=sb)
        for (ya, yb), (sa, sb) in zip(y, s)
    )


def random_dataset(rng, n, lo=0.05, hi=0.5):
    y = rng.standard_normal((n, 2))
    s = rng.uniform(lo, hi, size=(n, 2))
    return make_dataset(y, s)


def chi2_cdf_even(x, k):
    """Closed-form chi-square CDF for even k: 1 - exp(-x/2) sum_{j<k/2} (x/2)^j / j!."""
    half = x / 2.0
    tail = sum(half**j / math.factorial(j) for j in range(k // 2))
    return 1.0 - math.exp(-half) * tail


class TestChi2Quantile:
    def test_two_dof_closed_form_is_exact(self):
        assert chi2_quantile(0.05) == X05
        assert chi2_quantile(0.5, 2) == -2.0 * math.log(0.5)

    @pytest.mark.parametrize("k", [2])
    @pytest.mark.parametrize("alpha", [0.5, 0.1, 0.05, 0.01])
    def test_cdf_roundtrip(self, k, alpha):
        x = chi2_quantile(alpha, k)
        assert chi2_cdf_even(x, k) == pytest.approx(1.0 - alpha, abs=1e-8)

    def test_monotone_in_alpha(self):
        qs = [chi2_quantile(a, 2) for a in (0.2, 0.1, 0.05, 0.01)]
        assert qs == sorted(qs)

    def test_validation(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                chi2_quantile(bad)
        for k in (0, 4):
            with pytest.raises(ValueError, match="bivariate"):
                chi2_quantile(0.05, k)


def b_star_reference(d: Dataset, sigma: Sym2):
    """Literal triple-index implementation of the three trace statistics.

    Written directly from the definitions with U_{jik} = G_j D_i G_k and no
    contraction shortcuts, as an independent check of the moment-sum kernel.
    """
    _, s = d.arrays()
    n = d.n
    dm = [sigma.as_array() + np.diag(s[i]) for i in range(n)]
    g = [np.linalg.inv(m) for m in dm]
    v = np.linalg.inv(sum(g))

    def u(j, i, k):
        return g[j] @ dm[i] @ g[k]

    b1 = 0.0
    t2 = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                b1 += np.trace(v @ u(j, i, k) @ v @ u(k, i, j))
                t2 += np.trace(v @ u(j, i, k)) * np.trace(v @ u(k, i, j))
    b1 *= 2.0 / n**2
    t2 /= n**2

    t1 = 0.0
    for i in range(n):
        w_i = sum(u(j, i, j) for j in range(n))
        t1 += np.trace(w_i @ v @ w_i @ v)
    t1 /= n**2
    b2 = t1 + t2

    c1 = 0.0
    c2 = 0.0
    for i in range(n):
        for j in range(n):
            c1 += np.trace(v @ u(i, j, i) @ dm[j] @ g[i])
            c2 += np.trace(g[i] @ dm[j]) * np.trace(v @ u(i, j, i))
    b3 = b2 - c1 / n**2 - c2 / n**2
    return float(b1), float(b2), float(b3)


def _mul(*ms):
    """Product of 2 x 2 matrices held as (m11, m12, m21, m22) tuples."""
    out = ms[0]
    for m in ms[1:]:
        out = (
            out[0] * m[0] + out[1] * m[2],
            out[0] * m[1] + out[1] * m[3],
            out[2] * m[0] + out[3] * m[2],
            out[2] * m[1] + out[3] * m[3],
        )
    return out


def _add(ms):
    return tuple(map(sum, zip(*ms)))


def _inv(m):
    det = m[0] * m[3] - m[1] * m[2]
    return (m[3] / det, -m[1] / det, -m[2] / det, m[0] / det)


def _tr(m):
    return m[0] + m[3]


def b_star_exact(sigma: Sym2, s) -> tuple[Fraction, Fraction, Fraction]:
    """The three trace statistics in exact rational arithmetic, from the definitions.

    Every float is an exact rational and every step is +, -, x or / of 2 x 2
    matrices, so this is the exact value for D_i = Sigma + diag(s_i), with no
    round-off to cancel. Index sums move inside a trace only where the
    definitions allow it, as P = sum_j G_j V G_j and W_i = sum_j U_{jij}.
    """
    a11, a12, a22 = map(Fraction, (sigma.a11, sigma.a12, sigma.a22))
    dm = [(a11 + Fraction(sa), a12, a12, a22 + Fraction(sb)) for sa, sb in s]
    g = [_inv(m) for m in dm]
    v = _inv(_add(g))
    n = len(dm)
    p = _add([_mul(gj, v, gj) for gj in g])
    b1 = 2 * sum(_tr(_mul(p, di, p, di)) for di in dm)
    # tr(V U_{jik}) = tr(D_i M_jk) = tr(V U_{kij}) with M_jk = G_k V G_j, as D_i is symmetric
    m = [_mul(gk, v, gj) for gj in g for gk in g]
    t2 = sum(_tr(_mul(di, mjk)) ** 2 for di in dm for mjk in m)
    t1 = sum(_tr(_mul(w, v, w, v)) for w in (_add([_mul(gj, di, gj) for gj in g]) for di in dm))
    c = sum(
        _tr(_mul(v, gi, dj, gi, dj, gi)) + _tr(_mul(gi, dj)) * _tr(_mul(v, gi, dj, gi))
        for gi in g for dj in dm
    )
    return b1 / n**2, (t1 + t2) / n**2, (t1 + t2 - c) / n**2


def h_exact(b: tuple[Fraction, Fraction, Fraction], x: float) -> Fraction:
    b1, b2, b3 = b
    return -(b1 / 4 - b2 / 2 + 2 * b3) / 2 + Fraction(x) * (b1 / 4 + b2 / 2) / 8


def rank_one_tables() -> dict[str, tuple[Sym2, np.ndarray]]:
    """Rank-one Sigma over precise studies: 14 tables of 3 to 8 studies from default_rng(11).

    s is log-uniform in [0.01, 1] and Sigma = c u u' with u a random unit
    vector and c 1e3 to 1e7 times the geometric mean of s, so the largest
    cond(D_i) runs from about 1e4 to 1e7.
    """
    rng = np.random.default_rng(11)
    tables = {}
    for k in range(14):
        n = int(rng.integers(3, 9))
        ratio = 10.0 ** rng.uniform(3, 7)
        s = 10.0 ** rng.uniform(-2, 0, size=(n, 2))
        theta = rng.uniform(0, math.pi)
        u = np.array([math.cos(theta), math.sin(theta)]) * math.sqrt(
            ratio * float(np.exp(np.log(s).mean()))
        )
        tables[f"rank_one_{k:02d}"] = (Sym2.from_array(np.outer(u, u)), s)
    return tables


RANK_ONE = rank_one_tables()


class TestExactTraceTerms:
    def test_exact_reference_matches_literal_triple_sum(self):
        rng = np.random.default_rng(101)
        d = random_dataset(rng, 5)
        sigma = Sym2(0.4, 0.1, 0.3)
        for exact, ref in zip(b_star_exact(sigma, d.arrays()[1]), b_star_reference(d, sigma)):
            assert float(exact) == pytest.approx(ref, rel=1e-12)

    # the tables of the set on which contracting unwhitened D and G moments
    # with V misses h by 4e-7 to 0.16
    @pytest.mark.parametrize(
        "name", ["rank_one_01", "rank_one_02", "rank_one_04", "rank_one_05", "rank_one_07",
                 "rank_one_08", "rank_one_09", "rank_one_11", "rank_one_12"]
    )
    def test_h_on_rank_one_sigma(self, name):
        # bound fixed in advance: |h / h_exact - 1| <= 1e-7 up to cond(D_i) = 1e8
        sigma, s = RANK_ONE[name]
        d = make_dataset(np.zeros_like(s), s)
        assert np.linalg.cond(_d_stack(s, sigma.as_array())).max() <= 1e8
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdjustmentMagnitudeWarning)
            h = h_adjust(b_star(d, sigma), x=X05)
        assert abs(h / float(h_exact(b_star_exact(sigma, s), X05)) - 1.0) <= 1e-7

    def test_synthetic14_within_round_off(self, fixtures_dir):
        d = read_table(str(fixtures_dir / "synthetic14.csv"))
        sigma = estimators.bias_corrected_sigma(d)
        exact = b_star_exact(sigma, d.arrays()[1])
        b = b_star(d, sigma)
        for got, ref in zip((b.b1, b.b2, b.b3), exact):
            assert abs(Fraction(got) - ref) <= 1e-14 * abs(exact[1])

    def test_barely_positive_definite_precision_factors(self):
        # det A is 2e-16 a11 a22 after round-off, so A passes the singularity
        # guard by a hair and a LAPACK Cholesky of A may refuse it; the closed
        # form factor, l22 = sqrt(det A / a11), takes every A the guard accepts
        sigma = Sym2(855403538552451.6, -487955578312950.06, 278348914489702.78)
        s = [(0.06434972802953318, 0.09233432782774748), (0.5508993857305967, 0.001569680449865254)]
        d = make_dataset([(0.0, 0.0)] * 2, s)
        _, _, a = _checked_precisions(d, sigma)
        assert 0.0 < a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0] < 1e-15 * a[0, 0] * a[1, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = b_star(d, sigma)
        assert all(map(math.isfinite, (b.b1, b.b2, b.b3)))


class TestBStar:
    @pytest.mark.parametrize("n,seed", [(5, 101), (7, 102)])
    def test_matches_literal_triple_sum(self, n, seed):
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, n)
        sigma = Sym2(0.4, 0.1, 0.3)
        b = b_star(d, sigma)
        r1, r2, r3 = b_star_reference(d, sigma)
        assert b.b1 == pytest.approx(r1, rel=1e-10)
        assert b.b2 == pytest.approx(r2, rel=1e-10)
        assert b.b3 == pytest.approx(r3, rel=1e-10, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.integers(2, 10).flatmap(
            lambda n: st.lists(
                st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)), min_size=n, max_size=n
            )
        ),
        rank=st.sampled_from([0, 1, 2]),
        l11=st.floats(0.05, 1.0),
        l21=st.floats(-1.0, 1.0),
        l22=st.floats(0.05, 1.0),
    )
    def test_matches_literal_triple_sum_on_psd_sigma(self, s, rank, l11, l21, l22):
        # Sigma = L L' of rank 0 (the clamped zero estimate), 1 or 2
        l = np.array([[l11, 0.0], [l21, l22]])
        l[:, rank:] = 0.0
        sigma = Sym2.from_array(l @ l.T)
        d = make_dataset([(0.0, 0.0)] * len(s), s)
        b = b_star(d, sigma)
        r1, r2, r3 = b_star_reference(d, sigma)
        assert b.b1 == pytest.approx(r1, rel=1e-10)
        assert b.b2 == pytest.approx(r2, rel=1e-10)
        assert b.b3 == pytest.approx(r3, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 4096])
    def test_homogeneous_closed_forms(self, n):
        # identical studies: b1 = 4/n, b2 = 6/n, b3 = 0 regardless of D
        d = make_dataset([(0.0, 0.0)] * n, [(0.2, 0.35)] * n)
        b = b_star(d, Sym2(0.4, 0.12, 0.5))
        assert b.b1 == pytest.approx(4.0 / n, rel=1e-10)
        assert b.b2 == pytest.approx(6.0 / n, rel=1e-10)
        assert b.b3 == pytest.approx(0.0, abs=1e-12)

    def test_memory_does_not_grow_with_the_cube_of_n(self):
        # an (n, n, n) float tensor alone would need about 550 GB at n = 4096
        rng = np.random.default_rng(104)
        d = random_dataset(rng, 4096)
        tracemalloc.start()
        try:
            b_star(d, Sym2(0.3, 0.05, 0.25))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.integers(1, 5),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    # stacks as tall as one Monte Carlo chunk, where batched matmuls run on full size
    @example(r=_CHUNK_ROWS // 8, n=8, seed=106)
    @example(r=_CHUNK_ROWS // 16, n=16, seed=107)
    def test_stacked_kernel_equals_single_calls(self, r, n, seed):
        # each replication of a stack gets the bits it gets alone
        rng = np.random.default_rng(seed)
        s = rng.uniform(0.01, 1.0, size=(r, n, 2))
        l = np.tril(rng.uniform(-1.0, 1.0, size=(r, 2, 2)))
        d, _, a = _precisions(s, l @ np.swapaxes(l, -1, -2))
        stacked = _b_star_kernel(d, a)
        for i in range(r):
            single = _b_star_kernel(d[i : i + 1], a[i : i + 1])
            for term_stack, term_single in zip(stacked, single):
                assert term_stack[i] == term_single[0]

    def test_stack_matches_literal_triple_sum(self):
        # one row per dataset, each with its own sigma (full, rank one, zero)
        rng = np.random.default_rng(108)
        sigmas = [Sym2(0.4, 0.1, 0.3), Sym2(0.25, -0.15, 0.09), Sym2(0.0, 0.0, 0.0)]
        datasets = [random_dataset(rng, 6) for _ in sigmas]
        s = np.stack([d.arrays()[1] for d in datasets])
        d, _, a = _precisions(s, np.stack([sigma.as_array() for sigma in sigmas]))
        stacked = _b_star_kernel(d, a)
        for i, (dataset, sigma) in enumerate(zip(datasets, sigmas)):
            for term, ref in zip(stacked, b_star_reference(dataset, sigma)):
                assert term[i] == pytest.approx(ref, rel=1e-12)

    def test_nonnegative_square_terms(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            d = random_dataset(rng, 6)
            b = b_star(d, Sym2(0.3, 0.05, 0.25))
            assert b.b1 >= -1e-12
            assert b.b2 >= -1e-12


class TestHAdjust:
    def test_zero_terms_give_zero(self):
        assert h_adjust(BTerms(0.0, 0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_homogeneous_closed_form(self, n):
        x = X05
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdjustmentMagnitudeWarning)
            h = h_adjust(BTerms(4.0 / n, 6.0 / n, 0.0), 2, x)
        assert h == pytest.approx((1.0 + x / 2.0) / n, rel=1e-12)

    def test_default_threshold_is_alpha_05(self):
        b = BTerms(0.5, 0.75, 0.0)
        assert h_adjust(b) == h_adjust(b, 2, chi2_quantile(0.05, 2))

    def test_large_adjustment_warns(self):
        with pytest.warns(AdjustmentMagnitudeWarning):
            h = h_adjust(BTerms(0.0, 8.0, 0.0))
        assert h > 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        log_s=st.integers(2, 8).flatmap(
            lambda n: st.lists(
                st.tuples(st.floats(-2.0, 0.0), st.floats(-2.0, 0.0)), min_size=n, max_size=n
            )
        ),
        l11=st.floats(0.0, 1.5),
        l21=st.floats(-1.5, 1.5),
        l22=st.floats(0.0, 1.5),
        x=st.floats(0.1, 20.0),
    )
    def test_never_below_the_equal_studies_value(self, log_s, l11, l21, l22, x):
        # n h >= 1 + x/2, with equality for n equal studies; so 1 + h > 0 here,
        # and the region is undefined only through round-off on extreme inputs
        n = len(log_s)
        l = np.array([[l11, 0.0], [l21, l22]])
        d = make_dataset([(0.0, 0.0)] * n, 10.0 ** np.array(log_s))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdjustmentMagnitudeWarning)
            h = h_adjust(b_star(d, Sym2.from_array(l @ l.T)), 2, x)
        assert n * h >= (1.0 + x / 2.0) * (1.0 - 1e-6)

    def test_validation(self):
        for k in (0, 4):
            with pytest.raises(ValueError, match="bivariate"):
                h_adjust(BTerms(0.1, 0.1, 0.0), k=k)
        for x in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                h_adjust(BTerms(0.1, 0.1, 0.0), x=x)


def equal_studies_coverage(n: int, t: float) -> float:
    """Exact P(W <= t) for the region statistic W of n equal studies, unclamped moment fit.

    With one common S, D_hat = (1 + 1/n) M where n M ~ Wishart_2(D, n - 1) is
    independent of the mean, so W = T^2 n^2 / ((n + 1)(n - 1)) with T^2
    Hotelling's, and T^2 (n - 2) / (2 (n - 1)) ~ F(2, n - 2) (Hotelling 1931),
    whose CDF is closed form: P(W <= t) = 1 - (1 + t (n + 1) / n^2)^(-(n - 2)/2).
    """
    return -math.expm1(-(n - 2) / 2 * math.log1p(t * (n + 1) / n**2))


class TestEqualStudiesExactCoverage:
    SIZES = [2**k for k in range(3, 11)]

    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    def test_naive_region_misses_by_order_one_over_n(self, alpha):
        # n (NCR - (1 - alpha)) -> -(1 + x/2) x f_2(x), the term h removes, at rate O(1/n)
        x = chi2_quantile(alpha)
        limit = -(1.0 + x / 2.0) * x * 0.5 * math.exp(-x / 2.0)
        for n in self.SIZES:
            scaled = n * (equal_studies_coverage(n, x) - (1.0 - alpha))
            assert scaled < 0.5 * limit
            assert n * abs(scaled - limit) <= 3.0

    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    def test_corrected_region_misses_by_order_one_over_n_squared(self, alpha):
        x = chi2_quantile(alpha)
        for n in self.SIZES:
            ccr = equal_studies_coverage(n, x * (1.0 + (1.0 + x / 2.0) / n))
            assert n**2 * abs(ccr - (1.0 - alpha)) <= 4.0

    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_h_of_equal_studies(self, alpha, n):
        x = chi2_quantile(alpha)
        d = make_dataset([(0.0, 0.0)] * n, [(0.2, 0.35)] * n)
        h = h_adjust(b_star(d, Sym2(0.4, 0.12, 0.5)), x=x)
        assert h == pytest.approx((1.0 + x / 2.0) / n, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_monte_carlo_matches_where_unclamped(self, n):
        # On the oracle's own equal-study draws (seed and replication count fixed
        # before the first run), the unclamped fit's NCR and CCR coverage match the
        # formula at 3 SE. The clamp changes only the clamped replications, so it
        # moves each coverage by at most the run's clamp rate.
        x = chi2_quantile(0.05)
        cfg = OracleConfig(
            sigma_true=Sym2(0.4, 0.1, 0.3), within_vars=((0.2, 0.35),) * n,
            reps=30_000, seed=1400 + n,
        )
        s = cfg.s_array()
        chol = np.linalg.cholesky(_d_stack(s, cfg.sigma_true.as_array()))

        def step(reps):
            y = _draw_stack(cfg, reps, chol)
            sig = _moment_bc_array(y, s)
            d, g, a = _precisions(s, sig)
            beta = _gls_mean(g, a, y)[..., None]
            q = (np.swapaxes(beta, -1, -2) @ a @ beta)[:, 0, 0]
            h = _h_value(*_b_star_kernel(d, a), x)
            q_c, h_c = _rep_fit(y, s, x)
            return q <= x, q <= x * (1 + h), q_c <= x, q_c <= x * (1 + h_c), _psd_clamp(sig)[1]

        ncr, ccr, ncr_c, ccr_c, clamp_rate = _by_chunk(cfg.reps, n, 5, step).mean(axis=0)
        for got, t in ((ncr, x), (ccr, x * (1.0 + (1.0 + x / 2.0) / n))):
            p = equal_studies_coverage(n, t)
            assert abs(got - p) <= 3.0 * math.sqrt(p * (1.0 - p) / cfg.reps)
        assert abs(ncr_c - ncr) <= clamp_rate
        assert abs(ccr_c - ccr) <= clamp_rate


class TestConfidenceRegion:
    @pytest.fixture
    def dataset(self):
        rng = np.random.default_rng(201)
        return random_dataset(rng, 12)

    def test_builds_the_d_stack_once(self, monkeypatch, fixtures_dir):
        # the corrected region takes beta, V and the trace terms from one checked fit
        d = read_table(str(fixtures_dir / "synthetic14.csv"))
        builds = []

        def counted(s, sigma):
            builds.append(s.shape)
            return _d_stack(s, sigma)

        monkeypatch.setattr(estimators, "_d_stack", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            confidence_region(d, "ccr")
        assert builds == [(14, 2)]

    def test_ncr_threshold_is_plain_quantile(self, dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            region, fit = confidence_region(dataset, method="ncr")
        assert region.method == "ncr"
        assert region.h == 0.0
        assert region.threshold == X05
        assert fit.h is None
        assert fit.b is None

    def test_ccr_inflates_by_one_plus_h(self, dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ncr, _ = confidence_region(dataset, method="ncr")
            ccr, fit = confidence_region(dataset, method="ccr")
        assert fit.h is not None and fit.b is not None
        assert ccr.threshold == pytest.approx(X05 * (1.0 + fit.h), rel=1e-14)
        assert ccr.center == ncr.center
        assert ccr.shape == ncr.shape
        # same-shape ellipses: area ratio equals the threshold ratio
        assert ccr.threshold / ncr.threshold == pytest.approx(1.0 + fit.h, rel=1e-14)

    def test_ccr_with_reml_rejected(self, dataset):
        with pytest.raises(ValueError):
            confidence_region(dataset, method="ccr", estimator="reml")

    def test_ncr_with_reml_allowed(self, dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            region, fit = confidence_region(dataset, method="ncr", estimator="reml")
        assert fit.estimator == "reml"
        assert region.threshold == X05

    def test_alpha_changes_threshold(self, dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            narrow, _ = confidence_region(dataset, method="ncr", alpha=0.2)
            wide, _ = confidence_region(dataset, method="ncr", alpha=0.01)
        assert narrow.threshold < wide.threshold

    def test_validation(self, dataset):
        with pytest.raises(ValueError):
            confidence_region(dataset, method="banana")
        with pytest.raises(ValueError):
            confidence_region(dataset, estimator="mle")
        with pytest.raises(ValueError):
            confidence_region(dataset, alpha=0.0)

    # h_adjust returns inf on finite trace terms near DBL_MAX, such as (1e308, 1e308, -1e308)
    @pytest.mark.parametrize("h", [-1.0, -1.5, math.inf])
    def test_nonpositive_factor_leaves_region_undefined(self, monkeypatch, dataset, h):
        # ConfidenceRegion's threshold check is the one test that 1 + h is positive and finite
        monkeypatch.setattr(regions, "h_adjust", lambda b, x: h)
        with pytest.raises(RegionUndefinedError, match=rf"threshold factor 1 \+ h = {1.0 + h:g}\)"):
            confidence_region(dataset, method="ccr")

    def test_shape_is_decided_before_the_trace_terms(self, monkeypatch):
        # A passes the rule by a hair and V = A^{-1} rounds to singular: the
        # corrected region is refused for its shape with no warning about an h
        # (3.655 here) of a region that does not exist
        sigma = Sym2(2.0021037411870544e17, 6.812351480629964e16, 2.3179684319517696e16)
        d = make_dataset([(0.0, 0.0)], [(0.026525941113256582, 0.43226149285673376)])
        monkeypatch.setattr(regions, "bias_corrected_sigma", lambda data: sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="region shape matrix must be positive definite"):
                confidence_region(d, "ccr")

    def test_shape_whose_determinant_overflows_is_refused(self):
        # det = 1e400 rounds to inf, so the closed-form factor would read
        # inf / 1e200 and draw a NaN boundary
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="region shape matrix must be positive definite"):
                ConfidenceRegion((0.0, 0.0), Sym2(1e200, 0.0, 1e200), 5.99, 0.0, 0.05, "ncr")

    def test_model_level_region_validation(self):
        with pytest.raises(RegionUndefinedError):
            ConfidenceRegion((0.0, 0.0), Sym2(1.0, 0.0, 1.0), 0.0, 0.0, 0.05, "ccr")
        with pytest.raises(ValueError):
            ConfidenceRegion((0.0, 0.0), Sym2(1.0, 2.0, 1.0), 1.0, 0.0, 0.05, "ccr")
        with pytest.raises(ValueError):
            ConfidenceRegion((0.0, 0.0), Sym2(1.0, 0.0, 1.0), 1.0, 0.1, 0.05, "ncr")

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_nonfinite_threshold_leaves_region_undefined(self, threshold):
        # a NaN threshold would contain no point and an infinite one draw inf or
        # NaN boundary rows
        with pytest.raises(RegionUndefinedError, match="is not a positive finite number"):
            ConfidenceRegion((0.0, 0.0), Sym2(1.0, 0.0, 1.0), threshold, 0.0, 0.05, "ncr")


def recipe_tables(count):
    """(y, s) of the first count random tables drawn in turn from default_rng(7).

    Each has n in 3..29 studies, tau2 in (0, 0.6), rho in (-0.9, 0.9) and
    within-study variances in (0.02, 0.5).
    """
    rng = np.random.default_rng(7)
    for _ in range(count):
        n = int(rng.integers(3, 30))
        tau2, rho = rng.uniform(0, 0.6), rng.uniform(-0.9, 0.9)
        s = rng.uniform(0.02, 0.5, (n, 2))
        sigma = tau2 * np.array([[1.0, rho], [rho, 1.0]])
        y = rng.multivariate_normal([0, 0], sigma, n) + np.sqrt(s) * rng.standard_normal((n, 2))
        yield y, s


class TestRepFitIsTheFit:
    def test_lab_fit_equals_public_fit_bit_for_bit(self):
        # the first 300 tables of the recipe, fixed before the first run: 138
        # clamp, and eigh's rebuild of 40 of those (table 7 the first) has
        # off-diagonals that differ in the last bit before the clamp symmetrizes it
        clamped = asymmetric = 0
        for y, s in recipe_tables(300):
            d = make_dataset(y, s)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, fit = confidence_region(d, "ccr")
            raw = _moment_bc_array(y[None], s[None])
            sig_hat, changed = _psd_clamp(raw)
            q, h = _rep_fit(y[None], s[None], X05)
            beta = np.array(fit.beta)[None, :, None]
            a = _checked_precisions(d, fit.sigma)[2][None]
            assert np.array_equal(sig_hat[0], fit.sigma.as_array())
            assert q[0] == (np.swapaxes(beta, -1, -2) @ a @ beta)[0, 0, 0]
            assert h[0] == fit.h
            if changed[0]:
                clamped += 1
                w, v = np.linalg.eigh(raw)
                r = (v * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(v, -1, -2)
                asymmetric += bool(r[0, 0, 1] != r[0, 1, 0])
        assert (clamped, asymmetric) == (138, 40)


UNIT_REGION = ConfidenceRegion(
    center=(0.0, 0.0), shape=Sym2(1.0, 0.0, 1.0), threshold=4.0, h=0.0, alpha=0.05, method="ncr"
)


class TestRegionContains:
    def test_center_inside(self):
        assert region_contains(UNIT_REGION, (0.0, 0.0))

    def test_boundary_point_inclusive(self):
        assert region_contains(UNIT_REGION, (2.0, 0.0))
        assert not region_contains(UNIT_REGION, (2.0 + 1e-9, 0.0))

    def test_far_point_outside(self):
        assert not region_contains(UNIT_REGION, (10.0, 10.0))

    def test_bad_point_shape(self):
        with pytest.raises(ValueError):
            region_contains(UNIT_REGION, (1.0, 2.0, 3.0))


class TestRegionBoundary:
    def test_cardinal_points_for_identity_shape(self):
        r = ConfidenceRegion((1.0, 1.0), Sym2(1.0, 0.0, 1.0), 4.0, 0.0, 0.05, "ncr")
        pts = region_boundary(r, m=4)
        expected = np.array([[3.0, 1.0], [1.0, 3.0], [-1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(pts, expected, rtol=0, atol=1e-12)

    def test_points_satisfy_boundary_equation(self):
        rng = np.random.default_rng(301)
        for _ in range(5):
            a = rng.standard_normal((2, 2))
            shape = Sym2.from_array(a @ a.T + 0.05 * np.eye(2))
            r = ConfidenceRegion(
                (rng.standard_normal(), rng.standard_normal()),
                shape,
                float(rng.uniform(1.0, 9.0)),
                0.0,
                0.05,
                "ncr",
            )
            pts = region_boundary(r, m=64)
            assert pts.shape == (64, 2)
            vinv = np.linalg.inv(shape.as_array())
            diff = pts - np.asarray(r.center)
            q = np.einsum("ia,ab,ib->i", diff, vinv, diff)
            np.testing.assert_allclose(q, r.threshold, rtol=0, atol=1e-9)

    def test_boundary_straddles_membership_cutoff(self):
        # boundary points carry rounding of order one ulp, so containment is
        # checked just inside and just outside instead of exactly on the rim
        center = np.asarray(UNIT_REGION.center)
        for p in region_boundary(UNIT_REGION, m=16):
            inside = center + (p - center) * (1.0 - 1e-9)
            outside = center + (p - center) * (1.0 + 1e-9)
            assert region_contains(UNIT_REGION, inside)
            assert not region_contains(UNIT_REGION, outside)

    def test_minimum_point_count(self):
        with pytest.raises(ValueError):
            region_boundary(UNIT_REGION, m=2)


def barely_positive_definite(e11, e22, u, negative):
    """Sym2 with a11 = 10^e11, a22 = 10^e22 and a12 = +-sqrt(a11 a22) (1 - u)."""
    a11, a22 = 10.0**e11, 10.0**e22
    return Sym2(a11, (-1.0 if negative else 1.0) * math.sqrt(a11 * a22) * (1.0 - u), a22)


BARELY_PD = st.builds(
    barely_positive_definite,
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 4e-16), st.booleans(),
)


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def passes_rule(m: Sym2) -> bool:
    """The positive-definiteness rule, written out: a11 > 0 and det > 0."""
    return m.a11 > 0 and m.det() > 0


class TestOnePositiveDefinitenessRule:
    def test_predicate_on_stacks(self):
        from dtameta.model import _all_pd

        good = np.array([[2.0, 1.0], [1.0, 1.0]])
        assert _all_pd(good) and _all_pd(np.stack([good, np.eye(2)]))
        assert _all_pd(np.empty((0, 2, 2)))
        for bad in (np.ones((2, 2)), -np.eye(2), np.diag([math.nan, 1.0])):
            assert not _all_pd(np.stack([good, bad]))

    @settings(max_examples=300, deadline=None)
    @given(shape=BARELY_PD)
    # shapes that pass by a hair: the closed-form smaller eigenvalue rounds to
    # a negative number on the first, and LAPACK's Cholesky refuses the second
    @example(shape=barely_positive_definite(0.75, 2.38, 3.102742760980774e-16, True))
    @example(shape=barely_positive_definite(0.6, -2.6, 9.462023056240869e-17, False))
    def test_every_shape_that_passes_has_a_region(self, shape):
        # each passing shape builds a region whose boundary points satisfy
        # w' adj(V) w = x det V, with w = p - c, to the rounding of its terms
        if not passes_rule(shape):
            return
        r = ConfidenceRegion((0.0, 0.0), shape, X05, 0.0, 0.05, "ncr")
        w = region_boundary(r, m=64)
        assert np.isfinite(w).all()
        w1, w2 = w.T
        terms = np.stack([shape.a22 * w1**2, -2.0 * shape.a12 * w1 * w2, shape.a11 * w2**2])
        rounding = 64 * np.finfo(float).eps * abs(terms).sum(axis=0)
        assert (abs(terms.sum(axis=0) - X05 * shape.det()) <= rounding).all()

    @settings(max_examples=300, deadline=None)
    @given(
        shape=BARELY_PD,
        scale=log_uniform(12.0, 17.0),
        s=st.lists(st.tuples(*[log_uniform(-2.0, 0.0)] * 2), min_size=1, max_size=2),
    )
    # A passes by a hair, and its closed-form inverse rounds det V to 0
    @example(
        shape=Sym2(2.0021037411870544e17, 6.812351480629964e16, 2.3179684319517696e16),
        scale=1.0,
        s=[(0.026525941113256582, 0.43226149285673376)],
    )
    @example(
        shape=Sym2(1455226655245197.2, -929396371561686.2, 593569127090024.9),
        scale=1.0,
        s=[
            (0.018663473021727158, 0.022866217707125845),
            (0.08507498662777674, 0.06822775227462999),
        ],
    )
    def test_v_matrix_returns_only_a_passing_v(self, shape, scale, s):
        sigma = Sym2(scale * shape.a11, scale * shape.a12, scale * shape.a22)
        try:
            v = v_matrix(make_dataset([(0.0, 0.0)] * len(s), s), sigma)
        except ValueError:
            return
        assert passes_rule(v)
        r = ConfidenceRegion((0.0, 0.0), v, X05, 0.0, 0.05, "ncr")
        assert np.isfinite(region_boundary(r)).all()


class TestRegionArea:
    def test_monte_carlo_area_matches_closed_form(self):
        shape = Sym2(0.04, 0.01, 0.03)
        thr = X05
        r = ConfidenceRegion((0.3, -0.2), shape, thr, 0.0, 0.05, "ncr")
        analytic = math.pi * thr * math.sqrt(shape.det())

        pts = region_boundary(r, m=512)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        box_area = float(np.prod(hi - lo))

        rng = np.random.default_rng(555)
        n_pts = 100_000
        sample = lo + rng.uniform(size=(n_pts, 2)) * (hi - lo)
        vinv = np.linalg.inv(shape.as_array())
        diff = sample - np.asarray(r.center)
        q = np.einsum("ia,ab,ib->i", diff, vinv, diff)
        mc_area = box_area * float(np.mean(q <= thr))

        assert mc_area == pytest.approx(analytic, rel=0.01)
        # membership rule used above agrees with region_contains
        for idx in range(0, n_pts, 4000):
            assert region_contains(r, sample[idx]) == bool(q[idx] <= thr)
