import math
import tracemalloc
import warnings

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
)
from dtameta import estimators
from dtameta.cli import read_table
from dtameta.estimators import _d_stack, _precisions
from dtameta.regions import _CHUNK_ROWS, _b_star_kernel

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
        d, g, a = _precisions(s, l @ np.swapaxes(l, -1, -2))
        v = np.linalg.inv(a)
        stacked = _b_star_kernel(d, g, v)
        for i in range(r):
            single = _b_star_kernel(d[i : i + 1], g[i : i + 1], v[i : i + 1])
            for term_stack, term_single in zip(stacked, single):
                assert term_stack[i] == term_single[0]

    def test_stack_matches_literal_triple_sum(self):
        # one row per dataset, each with its own sigma (full, rank one, zero)
        rng = np.random.default_rng(108)
        sigmas = [Sym2(0.4, 0.1, 0.3), Sym2(0.25, -0.15, 0.09), Sym2(0.0, 0.0, 0.0)]
        datasets = [random_dataset(rng, 6) for _ in sigmas]
        s = np.stack([d.arrays()[1] for d in datasets])
        d, g, a = _precisions(s, np.stack([sigma.as_array() for sigma in sigmas]))
        stacked = _b_star_kernel(d, g, np.linalg.inv(a))
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

    def test_validation(self):
        for k in (0, 4):
            with pytest.raises(ValueError, match="bivariate"):
                h_adjust(BTerms(0.1, 0.1, 0.0), k=k)
        for x in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                h_adjust(BTerms(0.1, 0.1, 0.0), x=x)


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

    def test_model_level_region_validation(self):
        with pytest.raises(RegionUndefinedError):
            ConfidenceRegion((0.0, 0.0), Sym2(1.0, 0.0, 1.0), 0.0, 0.0, 0.05, "ccr")
        with pytest.raises(ValueError):
            ConfidenceRegion((0.0, 0.0), Sym2(1.0, 2.0, 1.0), 1.0, 0.0, 0.05, "ccr")
        with pytest.raises(ValueError):
            ConfidenceRegion((0.0, 0.0), Sym2(1.0, 0.0, 1.0), 1.0, 0.1, 0.05, "ncr")


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
