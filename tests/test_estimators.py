import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dtameta import (
    DataError,
    Dataset,
    PsdProjectionWarning,
    RemlConvergenceWarning,
    Study,
    Sym2,
    b_star,
    bias_corrected_sigma,
    confidence_region,
    gls_beta,
    i_squared,
    reml_sigma,
    v_matrix,
)
from dtameta import estimators, oracle, regions
from dtameta.cli import read_table
from dtameta.estimators import _inv2, _moment_raw, _psd_clamp, _restricted_nll, _sigma_of


def make_dataset(y, s):
    return Dataset(
        Study(y_a=ya, y_b=yb, s_a=sa, s_b=sb)
        for (ya, yb), (sa, sb) in zip(y, s)
    )


def pre_projection(d):
    """The bias-corrected moment estimate before its PSD clamp, the kernel the Monte Carlo loops call."""
    return Sym2.from_array(estimators._moment_bc_array(*d.arrays()))


def draw_dataset(rng, n, sigma, s_val, beta=(0.0, 0.0)):
    d_mat = sigma.as_array() + s_val * np.eye(2)
    l = np.linalg.cholesky(d_mat)
    y = np.asarray(beta) + rng.standard_normal((n, 2)) @ l.T
    return make_dataset(y, [(s_val, s_val)] * n)


# Two studies at (1, 0) and (-1, 0) with all within variances 0.5.
# Residual second moment is [[1, 0], [0, 0]]; subtracting the mean within
# variance gives the raw moment matrix below, and the finite-sample
# correction adds (n*S0 + diag(sum s)) / n^2 = [[0.5, 0], [0, 0]].
HAND_Y = [(1.0, 0.0), (-1.0, 0.0)]
HAND_S = [(0.5, 0.5), (0.5, 0.5)]


class TestMomentEstimators:
    def test_moment_sigma0_hand_value(self):
        m = Sym2.from_array(_moment_raw(*make_dataset(HAND_Y, HAND_S).arrays()))
        assert m.a11 == pytest.approx(0.5, abs=1e-15)
        assert m.a12 == pytest.approx(0.0, abs=1e-15)
        assert m.a22 == pytest.approx(-0.5, abs=1e-15)

    def test_bias_corrected_pre_projection_hand_value(self):
        m = pre_projection(make_dataset(HAND_Y, HAND_S))
        assert m.a11 == pytest.approx(1.0, abs=1e-15)
        assert m.a12 == pytest.approx(0.0, abs=1e-15)
        assert m.a22 == pytest.approx(-0.5, abs=1e-15)

    def test_projection_clamps_and_warns(self):
        with pytest.warns(PsdProjectionWarning):
            m = bias_corrected_sigma(make_dataset(HAND_Y, HAND_S))
        assert m.a11 == pytest.approx(1.0, abs=1e-15)
        assert m.a12 == pytest.approx(0.0, abs=1e-15)
        assert m.a22 == pytest.approx(0.0, abs=1e-15)
        assert m.is_psd()

    def test_no_warning_when_already_psd(self):
        rng = np.random.default_rng(3)
        d = draw_dataset(rng, 40, Sym2(1.0, 0.3, 1.0), 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = bias_corrected_sigma(d)
        assert m.is_psd()

    def test_needs_two_studies(self):
        one = make_dataset([(0.0, 0.0)], [(0.1, 0.1)])
        with pytest.raises(DataError):
            _moment_raw(*one.arrays())
        with pytest.raises(DataError):
            bias_corrected_sigma(one)

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((9, 2))
        s = rng.uniform(0.05, 0.4, size=(9, 2))
        base = pre_projection(make_dataset(y, s))
        shifted = pre_projection(make_dataset(y + np.array([3.5, -2.0]), s))
        assert shifted.a11 == pytest.approx(base.a11, abs=1e-12)
        assert shifted.a12 == pytest.approx(base.a12, abs=1e-12)
        assert shifted.a22 == pytest.approx(base.a22, abs=1e-12)

    def test_sign_flip_flips_covariance_only(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal((9, 2))
        s = rng.uniform(0.05, 0.4, size=(9, 2))
        base = pre_projection(make_dataset(y, s))
        flipped_y = y * np.array([-1.0, 1.0])
        flipped = pre_projection(make_dataset(flipped_y, s))
        assert flipped.a11 == pytest.approx(base.a11, abs=1e-12)
        assert flipped.a22 == pytest.approx(base.a22, abs=1e-12)
        assert flipped.a12 == pytest.approx(-base.a12, abs=1e-12)

    @pytest.mark.parametrize("n", [8, 16])
    def test_pre_projection_estimator_is_unbiased(self, n):
        # Monte Carlo check of the defining property: the mean of the
        # uncorrected-by-projection estimate matches the generating Sigma
        # within 3 standard errors, componentwise.
        sigma = Sym2(0.4, 0.08, 0.4)
        reps = 2000
        rng = np.random.default_rng(314 + n)
        comps = np.empty((reps, 3))
        for r in range(reps):
            d = draw_dataset(rng, n, sigma, 0.2)
            m = pre_projection(d)
            comps[r] = (m.a11, m.a12, m.a22)
        mean = comps.mean(axis=0)
        se = comps.std(axis=0, ddof=1) / math.sqrt(reps)
        truth = np.array([sigma.a11, sigma.a12, sigma.a22])
        assert np.all(np.abs(mean - truth) <= 3.0 * se), (mean, truth, se)


class TestPooledMeans:
    def test_ols_is_componentwise_mean(self):
        d = make_dataset([(1.0, 4.0), (3.0, 0.0)], [(0.1, 0.1), (0.2, 0.3)])
        assert d.arrays()[0].mean(axis=0) == pytest.approx(np.array([2.0, 2.0]))

    def test_gls_collapses_to_ols_under_equal_weights(self):
        rng = np.random.default_rng(21)
        y = rng.standard_normal((7, 2))
        d = make_dataset(y, [(0.3, 0.15)] * 7)
        sigma = Sym2(0.5, 0.2, 0.4)
        np.testing.assert_allclose(gls_beta(d, sigma), y.mean(axis=0), rtol=0, atol=1e-13)

    def test_gls_translation_equivariance(self):
        rng = np.random.default_rng(22)
        y = rng.standard_normal((6, 2))
        s = rng.uniform(0.05, 0.5, size=(6, 2))
        sigma = Sym2(0.5, 0.2, 0.4)
        shift = np.array([1.25, -0.75])
        b0 = gls_beta(make_dataset(y, s), sigma)
        b1 = gls_beta(make_dataset(y + shift, s), sigma)
        np.testing.assert_allclose(b1, b0 + shift, rtol=0, atol=1e-12)

    def test_homogeneous_v_is_common_covariance_over_n(self):
        n = 10
        sigma = Sym2(0.4, 0.1, 0.3)
        d = make_dataset([(0.0, 0.0)] * n, [(0.2, 0.25)] * n)
        v = v_matrix(d, sigma)
        expected = (sigma.as_array() + np.diag([0.2, 0.25])) / n
        np.testing.assert_allclose(v.as_array(), expected, rtol=1e-12, atol=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            gls_beta(Dataset(()), Sym2(0.1, 0.0, 0.1))

    def test_indefinite_sigma_rejected(self, monkeypatch):
        # every public entry to the GLS fit checks D_i = Sigma + S_i
        d = make_dataset([(0.0, 0.0), (1.0, 1.0)], [(0.1, 0.1), (0.1, 0.1)])
        bad = Sym2(-1.0, 0.0, -1.0)
        for entry in (gls_beta, v_matrix, b_star):
            with pytest.raises(ValueError, match="indefinite marginal covariance"):
                entry(d, bad)
        monkeypatch.setattr(regions, "bias_corrected_sigma", lambda data: bad)
        for method in ("ncr", "ccr"):
            with pytest.raises(ValueError, match="indefinite marginal covariance"):
                confidence_region(d, method)

    def test_singular_accumulated_precision_rejected(self):
        # each D_i = Sigma + S_i passes the positive-definite check, but the
        # rank-one Sigma dwarfs the S_i, so det A of sum_i D_i^{-1} rounds to <= 0
        c = 34281083603.818615
        d = make_dataset(
            [(0.0, 0.0)] * 3,
            [
                (1.3322918882610562e-05, 1.761409507927805e-08),
                (1.9511598183515372e-10, 4.898456353312426e-06),
                (0.005200521515139688, 0.00024864548638454064),
            ],
        )
        for entry in (gls_beta, v_matrix, b_star):
            with pytest.raises(ValueError, match="accumulated precision is singular"):
                entry(d, Sym2(c, c, c))

    def test_only_the_readers_of_v_refuse_a_v_that_rounds_to_singular(self, monkeypatch):
        # A passes the positive-definiteness rule by a hair and its closed-form
        # inverse rounds det V to 0: the pooled mean and the trace terms read
        # only D and A, so they are finite, and v_matrix and the region refuse V
        sigma = Sym2(2.0021037411870544e17, 6.812351480629964e16, 2.3179684319517696e16)
        d = make_dataset([(0.0, 0.0)], [(0.026525941113256582, 0.43226149285673376)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(gls_beta(d, sigma)).all()
            b = b_star(d, sigma)
            assert all(map(math.isfinite, (b.b1, b.b2, b.b3)))
            with pytest.raises(ValueError, match="accumulated precision is singular"):
                v_matrix(d, sigma)
        monkeypatch.setattr(regions, "bias_corrected_sigma", lambda data: sigma)
        with pytest.raises(ValueError, match="region shape matrix must be positive definite"):
            confidence_region(d, "ncr")


def eigh_clamp(m):
    """The PSD clamp with eigh on every matrix of a (k, 2, 2) stack, rebuilt ones symmetrized.

    Returns (clamped, mask); a rebuilt matrix r is 0.5 (r + r'), as Sym2.from_array forms it.
    """
    w, q = np.linalg.eigh(m)
    neg = w[:, 0] < 0
    out = m.copy()
    r = (q[neg] * np.maximum(w[neg], 0.0)[..., None, :]) @ np.swapaxes(q[neg], -1, -2)
    out[neg] = 0.5 * (r + np.swapaxes(r, -1, -2))
    return out, neg


# entries are 0 or of magnitude 1e-50 to 1e50, so no product underflows
_ENTRY = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0).filter(lambda m: abs(m) >= 1.0),
              st.integers(-50, 49)),
)
_SYM2 = st.one_of(
    st.tuples(_ENTRY, _ENTRY, _ENTRY),  # any symmetric (a11, a12, a22)
    st.tuples(_ENTRY, st.just(0.0), _ENTRY),  # diagonal
    st.just((0.0, 0.0, 0.0)),
    st.tuples(_ENTRY, _ENTRY).map(lambda u: (u[0] * u[0], u[0] * u[1], u[1] * u[1])),  # rank one
)
# u u' with u = (0.1, 1.5): the determinant rounds to exactly 0.0, yet eigh
# finds an eigenvalue of -1.7e-18, so a plain det >= 0 test would pass a
# matrix that the eigh clamp rebuilds
_RANK_ONE_DET_ZERO = (0.1 * 0.1, 0.1 * 1.5, 1.5 * 1.5)


class TestClosedForms:
    @pytest.mark.parametrize("shape", [(), (7,), (5, 9)])
    def test_inverse_matches_lapack(self, shape):
        rng = np.random.default_rng(111)
        l = np.tril(rng.uniform(-1.0, 1.0, size=shape + (2, 2)))
        m = l @ np.swapaxes(l, -1, -2)
        m[..., 0, 0] += rng.uniform(0.01, 1.0, size=shape)
        m[..., 1, 1] += rng.uniform(0.01, 1.0, size=shape)
        got, ref = _inv2(m), np.linalg.inv(m)
        assert got.shape == m.shape
        scale = np.abs(ref).max(axis=(-2, -1))
        assert (np.abs(got - ref).max(axis=(-2, -1)) <= 1e-13 * scale).all()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SYM2, min_size=1, max_size=12))
    @example([_RANK_ONE_DET_ZERO])
    @example([(1.0, 2.0, 1.0), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
    def test_clamp_mask_is_eighs(self, entries):
        # the elementwise test only lets through what eigh would leave alone
        m = np.array([[[a11, a12], [a12, a22]] for a11, a12, a22 in entries])
        out, changed = _psd_clamp(m)
        ref_out, ref_changed = eigh_clamp(m)
        assert changed.shape == (len(entries),)
        assert np.array_equal(changed, ref_changed)
        assert np.array_equal(out, ref_out)

    def test_plain_determinant_test_misjudges_rank_one(self):
        a11, a12, a22 = _RANK_ONE_DET_ZERO
        assert a11 * a22 - a12 * a12 == 0.0
        m = np.array([[a11, a12], [a12, a22]])
        assert np.linalg.eigh(m)[0][0] < 0
        assert _psd_clamp(m)[1]

    @pytest.mark.parametrize(
        "m", [[[1.0, 2.0], [2.0, 1.0]], [[0.5, 0.1], [0.1, 0.3]], [[0.0, 0.0], [0.0, 0.0]]]
    )
    def test_single_matrix(self, m):
        # one (2, 2) matrix, as bias_corrected_sigma passes it: a 0-d mask
        m = np.array(m)
        out, changed = _psd_clamp(m)
        ref_out, ref_changed = eigh_clamp(m[None])
        assert out.shape == (2, 2) and changed.shape == ()
        assert bool(changed) == ref_changed[0]
        assert np.array_equal(out, ref_out[0])


def study_entries(rng, shape):
    """Magnitudes 1e-12 to 1e12 of either sign, about one entry in ten an exact zero of either sign."""
    x = 10.0 ** rng.uniform(-12.0, 12.0, shape) * rng.choice([-1.0, 1.0], shape)
    zero = rng.random(shape) < 0.1
    x[zero] = np.copysign(0.0, x[zero])
    return x


STUDY_COUNTS = [2, 3, 9, 16, 33, 4096]


def study_stacks(n):
    """(shape, study axis) of a table's and of stacked replications' layouts, R up to one chunk."""
    cap = oracle._CHUNK_ROWS // n
    stacks = [((n, 2), -2), ((n, 2, 2), -3)]
    for r in sorted({1, min(7, cap), cap}):
        stacks += [((r, n, 2), -2), ((r, n, 3), -2), ((r, n, 4), -2), ((r, n, 2, 2), -3)]
    return stacks


def assert_same_bits(got, ref):
    assert got.shape == ref.shape
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64), ref.view(np.uint64))


class TestStudySumOrder:
    # The lab equals the fit bit for bit, and chunking never changes a result,
    # because every sum over studies adds them one at a time in table order.
    # numpy does not document that order for einsum or reduce, so a numpy
    # that changes it must fail here.
    @pytest.mark.parametrize("n", STUDY_COUNTS)
    def test_study_sum_is_add_reduce(self, n):
        rng = np.random.default_rng(n)
        for shape, axis in study_stacks(n):
            x = study_entries(rng, shape)
            assert_same_bits(estimators._study_sum(x, axis), np.add.reduce(x, axis=axis))

    @pytest.mark.parametrize("n", STUDY_COUNTS)
    def test_moment_product_sums_are_the_einsum(self, n):
        rng = np.random.default_rng(n)
        for shape, _ in study_stacks(n):
            if shape[-2:] != (n, 2):
                continue
            y = study_entries(rng, shape)
            r = y - y.mean(axis=-2, keepdims=True)
            ref = np.einsum("...ia,...ib->...ab", r, r) / n
            assert_same_bits(estimators._moment_raw(y, np.zeros(shape)), ref)

    @pytest.mark.parametrize("n", STUDY_COUNTS)
    def test_gls_sums_are_the_einsum(self, n):
        # at A = I, Cramer's rule returns sum_i G_i y_i itself
        rng = np.random.default_rng(n)
        for shape, axis in study_stacks(n):
            if axis != -3:
                continue
            g, y = study_entries(rng, shape), study_entries(rng, shape[:-1])
            ref = np.einsum("...iab,...ib->...a", g, y)
            eye = np.broadcast_to(np.eye(2), ref.shape + (2,))
            assert_same_bits(estimators._gls_mean(g, eye, y), ref)


def restricted_nll_reference(sigma_arr, y, s):
    """Independent restricted negative log-likelihood, written from the model."""
    n = y.shape[0]
    total_logdet = 0.0
    a = np.zeros((2, 2))
    gy = np.zeros(2)
    gmats = []
    for i in range(n):
        d_i = sigma_arr + np.diag(s[i])
        total_logdet += math.log(np.linalg.det(d_i))
        g_i = np.linalg.inv(d_i)
        gmats.append(g_i)
        a += g_i
        gy += g_i @ y[i]
    beta = np.linalg.solve(a, gy)
    quad = sum(float((y[i] - beta) @ gmats[i] @ (y[i] - beta)) for i in range(n))
    return 0.5 * (total_logdet + quad + math.log(np.linalg.det(a)))


def restricted_nll_frozen(theta, y, s):
    """The REML objective as it was before it became a per-fit closure, kept verbatim."""
    l11, l21, l22 = math.exp(theta[0]), theta[1], math.exp(theta[2])
    s12 = l11 * l21
    d = np.empty((len(s), 2, 2))
    np.add(s[:, 0], l11 * l11, out=d[:, 0, 0])
    d[:, 0, 1] = d[:, 1, 0] = s12
    np.add(s[:, 1], l21 * l21 + l22 * l22, out=d[:, 1, 1])
    try:
        g = np.linalg.inv(d)
    except np.linalg.LinAlgError:
        return math.inf
    a = g.sum(axis=-3)
    det = d[:, 0, 0] * d[:, 1, 1] - s12 * s12
    (a11, a12), (_, a22) = a.tolist()
    det_a = a11 * a22 - a12**2
    if det_a <= 0 or np.count_nonzero(det <= 0):
        return math.inf
    beta = np.linalg.solve(a, np.einsum("...iab,...ib->...a", g, y))
    r = y - beta
    quad = float(np.einsum("ia,iab,ib->", r, g, r))
    return 0.5 * (float(np.log(det).sum()) + quad + math.log(det_a))


# Sigma = 1e16 [[1, 1], [1, 1]] swamps s = 0.01, so every D_i rounds to a singular matrix
SINGULAR_Y = np.array([[0.1, 0.2], [0.3, 0.1], [0.0, 0.5]])
SINGULAR_S = np.full((3, 2), 0.01)
SINGULAR_THETA = [math.log(1e8), 1e8, -50.0]


def boundary_tables():
    """Tables drawn at tau2 = 0 (n = 3 and 5) and at a correlation of 0.999 (n = 12)."""
    tables = []
    for n in (3, 5):
        rng = np.random.default_rng(n)
        s = rng.uniform(0.02, 0.5, size=(n, 2))
        tables.append((np.sqrt(s) * rng.standard_normal((n, 2)), s))
    rng = np.random.default_rng(12)
    s = rng.uniform(0.001, 0.01, size=(12, 2))
    chol = np.linalg.cholesky(np.array([[0.5, 0.4995], [0.4995, 0.5]]))
    tables.append((rng.standard_normal((12, 2)) @ chol.T + np.sqrt(s) * rng.standard_normal((12, 2)), s))
    return tables


# reml_sigma runs its simplex, and so every evaluation of the objective, under this errstate
REML_ERRSTATE = {"invalid": "raise", "divide": "raise", "over": "raise"}


def reml_objective(y, s):
    """_restricted_nll(y, s) evaluated as reml_sigma evaluates it, with every warning an error."""
    nll = _restricted_nll(y, s)

    def f(theta):
        with warnings.catch_warnings(), np.errstate(**REML_ERRSTATE):
            warnings.simplefilter("error")
            return nll(theta)

    return f


class TestRestrictedNll:
    """The per-fit objective against the frozen one: equal floats where that is finite, else +inf."""

    def test_equal_to_frozen_objective(self):
        tables = [seeded_table(seed).arrays() for seed in range(26)]
        tables += boundary_tables() + [(SINGULAR_Y, SINGULAR_S)]
        rng = np.random.default_rng(2024)
        nans = 0
        for y, s in tables:
            nll = reml_objective(y, s)
            thetas = [SINGULAR_THETA] + [list(rng.normal(-1.0, 2.0, 3)) for _ in range(120)]
            thetas += [list(rng.uniform(-40.0, 40.0, 3)) for _ in range(40)]
            for _ in range(39):  # log-diagonal up to 700, |l21| up to 1e300
                l21 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0)
                thetas.append([rng.uniform(-700.0, 700.0), l21, rng.uniform(-700.0, 700.0)])
            for theta in thetas:
                new = nll(theta)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    ref = restricted_nll_frozen(theta, y, s)
                nans += math.isnan(ref)
                assert new == (ref if math.isfinite(ref) else math.inf), (theta, new, ref)
        assert nans > 0  # the frozen objective's NaNs are among the points

    @pytest.mark.parametrize("fixture", [None, "huge_logits.csv", "tiny_variances.csv"])
    def test_finite_or_infinite_and_silent(self, fixtures_dir, fixture):
        # seeded theta with |theta| up to 1e3: past exp's overflow, and l21 past squaring's
        if fixture is None:
            tables = [seeded_table(seed).arrays() for seed in range(4)] + boundary_tables()
        else:
            tables = [read_table(fixtures_dir / fixture).arrays()]
        rng = np.random.default_rng(39)
        values = []
        for y, s in tables:
            nll = reml_objective(y, s)
            thetas = rng.uniform(-1e3, 1e3, (60, 3)).tolist() + rng.normal(0.0, 3.0, (60, 3)).tolist()
            thetas += (rng.choice([-1.0, 1.0], (60, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (60, 3))).tolist()
            values += [nll(theta) for theta in thetas]
        assert all(math.isfinite(v) or v == math.inf for v in values)
        assert any(map(math.isfinite, values)) and math.inf in values

    def test_infinite_and_silent_where_d_is_singular(self):
        assert reml_objective(SINGULAR_Y, SINGULAR_S)(SINGULAR_THETA) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert restricted_nll_frozen(SINGULAR_THETA, SINGULAR_Y, SINGULAR_S) == math.inf

    @pytest.mark.parametrize("theta", [[710.0, 0.0, 0.0], [0.0, 0.0, 710.0]])
    def test_infinite_where_exp_overflows(self, fixtures_dir, theta):
        # math.exp raises OverflowError past 709.78; the simplex must see +inf instead
        y, s = read_table(fixtures_dir / "synthetic14.csv").arrays()
        assert reml_objective(y, s)(theta) == math.inf


class TestReml:
    def test_converges_on_fixture(self, fixtures_dir):
        d = read_table(fixtures_dir / "synthetic14.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RemlConvergenceWarning)
            sig = reml_sigma(d)
        assert sig.is_psd()
        assert sig.a11 > 0 and sig.a22 > 0
        rho = sig.a12 / math.sqrt(sig.a11 * sig.a22)
        assert rho == pytest.approx(0.938, abs=0.01)

    def test_objective_at_estimate_beats_alternatives(self):
        rng = np.random.default_rng(77)
        sigma_true = Sym2(0.5, 0.2, 0.6)
        d = draw_dataset(rng, 24, sigma_true, 0.15, beta=(1.0, 2.0))
        y, s = d.arrays()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sig = reml_sigma(d)
            moment = bias_corrected_sigma(d)
        nll_hat = restricted_nll_reference(sig.as_array(), y, s)
        assert nll_hat <= restricted_nll_reference(sigma_true.as_array(), y, s) + 1e-9
        assert nll_hat <= restricted_nll_reference(moment.as_array(), y, s) + 1e-9

    def test_objective_is_infinite_where_d_is_singular(self):
        # the simplex must see +inf, not a LinAlgError
        theta = np.array(SINGULAR_THETA)
        assert reml_objective(SINGULAR_Y, SINGULAR_S)(theta) == math.inf

    def test_needs_three_studies(self):
        with pytest.raises(DataError):
            reml_sigma(make_dataset(HAND_Y, HAND_S))

    def test_identical_summaries_rejected(self):
        d = make_dataset([(1.0, 2.0)] * 5, [(0.1, 0.2)] * 5)
        with pytest.raises(DataError):
            reml_sigma(d)

    def test_iteration_cap_warns_and_returns(self):
        rng = np.random.default_rng(78)
        d = draw_dataset(rng, 12, Sym2(0.5, 0.2, 0.6), 0.15)
        with pytest.warns(RemlConvergenceWarning):
            sig = reml_sigma(d, max_iter=2)
        assert sig.is_psd()

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_max_iter_below_one(self, fixtures_dir, max_iter):
        d = read_table(fixtures_dir / "synthetic14.csv")
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            reml_sigma(d, max_iter=max_iter)

    def test_result_fields_are_plain_floats(self):
        rng = np.random.default_rng(79)
        d = draw_dataset(rng, 10, Sym2(0.5, 0.2, 0.6), 0.15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sig = reml_sigma(d)
        assert type(sig.a11) is float
        assert type(sig.a12) is float
        assert type(sig.a22) is float


def seeded_table(seed):
    """A random table of 3 to 60 studies with unequal within-study variances."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 61))
    s = rng.uniform(0.02, 0.5, size=(n, 2))
    mu = rng.standard_normal((n, 2)) @ np.array([[0.6, 0.0], [0.3, rng.uniform(0.0, 0.5)]])
    return make_dataset(mu + np.sqrt(s) * rng.standard_normal((n, 2)), s)


class TestNelderMeadMatchesScipy:
    """reml_sigma's in-house simplex against scipy's, which stays installed as the reference."""

    def run_both(self, monkeypatch, d, max_iter):
        from scipy.optimize import minimize

        thetas = []

        def counted(y, s):
            nll = _restricted_nll(y, s)

            def f(theta):
                thetas.append(list(theta))
                return nll(theta)

            return f

        monkeypatch.setattr(estimators, "_restricted_nll", counted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sig = reml_sigma(d, max_iter=max_iter)
        monkeypatch.undo()
        y, s = d.arrays()
        # the first evaluation is at the start vertex
        res = minimize(
            np.errstate(**REML_ERRSTATE)(_restricted_nll(y, s)),
            np.array(thetas[0]),
            method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": max_iter, "maxfev": 4 * max_iter},
        )
        messages = [str(w.message) for w in caught if w.category is RemlConvergenceWarning]
        return sig, len(thetas), messages, res

    @pytest.mark.parametrize("seed", [None, *range(50)])
    def test_estimate_is_scipy_bit_for_bit(self, monkeypatch, fixtures_dir, seed):
        d = read_table(fixtures_dir / "synthetic14.csv") if seed is None else seeded_table(seed)
        sig, nfev, _, res = self.run_both(monkeypatch, d, 500)
        assert np.array_equal(sig.as_array(), Sym2(*_sigma_of(res.x)).as_array())
        assert nfev == res.nfev

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 5, 10, 40])
    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
    def test_capped_runs_match_scipy(self, monkeypatch, fixtures_dir, seed, max_iter):
        d = read_table(fixtures_dir / "synthetic14.csv") if seed is None else seeded_table(seed)
        sig, nfev, messages, res = self.run_both(monkeypatch, d, max_iter)
        assert np.array_equal(sig.as_array(), Sym2(*_sigma_of(res.x)).as_array())
        assert nfev == res.nfev
        expected = [] if res.success else [f"REML simplex stopped before convergence: {res.message}"]
        assert messages == expected

    def test_cap_inside_an_iteration_matches_scipy(self, monkeypatch):
        # a hash of x ranks vertices at random, forcing contractions and shrinks,
        # so some runs spend the evaluation budget partway through an iteration
        from scipy.optimize import minimize

        def f(x):
            return zlib.crc32(np.asarray(x, float).tobytes()) % 10007 / 10007

        class Counted(estimators._OutOfEvaluations):
            raised = 0

            def __init__(self):
                Counted.raised += 1

        monkeypatch.setattr(estimators, "_OutOfEvaluations", Counted)
        rng = np.random.default_rng(0)
        for x0 in rng.standard_normal((10, 3)).tolist():
            for max_iter in range(2, 7):
                x, message = estimators._nelder_mead(f, x0, max_iter)
                res = minimize(
                    f,
                    np.array(x0),
                    method="Nelder-Mead",
                    options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": max_iter,
                             "maxfev": 4 * max_iter},
                )
                assert x == res.x.tolist()
                assert message == (None if res.success else res.message)
        assert Counted.raised > 0


class TestDatasetArrays:
    def test_built_once_and_read_only(self):
        d = make_dataset(HAND_Y, HAND_S)
        y, s = d.arrays()
        assert d.arrays()[0] is y and d.arrays()[1] is s
        np.testing.assert_array_equal(y, np.array(HAND_Y))
        np.testing.assert_array_equal(s, np.array(HAND_S))
        for a in (y, s):
            with pytest.raises(ValueError):
                a[0, 0] = 9.0
        np.testing.assert_array_equal(d.arrays()[0], np.array(HAND_Y))

    def test_empty_dataset_gives_empty_columns(self):
        y, s = Dataset([]).arrays()
        assert y.shape == (0, 2) and s.shape == (0, 2)

    def test_cache_leaves_equality_and_hash_alone(self):
        a = make_dataset(HAND_Y, HAND_S)
        b = make_dataset(HAND_Y, HAND_S)
        a.arrays()
        assert a == b and hash(a) == hash(b)


class TestISquared:
    def test_equal_variances_at_matching_tau2_give_half(self):
        assert i_squared([0.3, 0.3, 0.3, 0.3], 0.3) == pytest.approx(0.5, abs=1e-15)

    def test_zero_tau2_gives_zero(self):
        assert i_squared([0.1, 0.2, 0.3], 0.0) == 0.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(0.05, 0.5, size=12)
        tau2 = 0.27
        w = 1.0 / v
        q = (v.size - 1) * w.sum() / (w.sum() ** 2 - (w**2).sum())
        assert i_squared(v, tau2) == pytest.approx(tau2 / (q + tau2), rel=1e-14)

    def test_weights_scaled_exactly(self):
        # the weights' power-of-two scaling gives the unscaled formula's bits wherever it is finite
        rng = np.random.default_rng(39)
        for scale in (1e-100, 1e-3, 1.0, 1e3, 1e100):
            v = scale * rng.uniform(0.02, 0.5, size=(50, 12))
            tau2 = scale * rng.uniform(0.0, 0.8, size=50)
            w = 1.0 / v
            q = (v.shape[-1] - 1) * w.sum(axis=-1) / (w.sum(axis=-1) ** 2 - (w * w).sum(axis=-1))
            np.testing.assert_array_equal(estimators._i2_array(v, tau2), tau2 / (q + tau2))

    def test_tiny_variances_are_finite_and_silent(self, fixtures_dir):
        # 1/v squared overflows for variances below about 1e-154
        _, s = read_table(fixtures_dir / "tiny_variances.csv").arrays()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [i_squared(s[:, k], tau2) for k in (0, 1) for tau2 in (0.0, 1e-160, 0.4)]
        assert values[0] == 0.0 and all(0.0 <= x <= 1.0 for x in values)
        assert values[2] == 1.0

    def test_monotone_in_tau2(self):
        v = [0.1, 0.2, 0.15, 0.3]
        vals = [i_squared(v, t) for t in (0.0, 0.1, 0.5, 2.0)]
        assert vals == sorted(vals)
        assert all(0.0 <= x < 1.0 for x in vals)

    def test_validation(self):
        with pytest.raises(DataError):
            i_squared([0.1], 0.2)
        with pytest.raises(ValueError):
            i_squared([0.1, -0.1], 0.2)
        with pytest.raises(ValueError):
            i_squared([0.1, 0.2], -0.2)
        with pytest.raises(ValueError):
            i_squared([math.inf, 0.1, 0.2], 0.1)
        with pytest.raises(ValueError):
            i_squared([math.nan, 0.1, 0.2], 0.1)
        with pytest.raises(ValueError):
            i_squared([0.1, 0.2], math.nan)
        with pytest.raises(ValueError):
            i_squared([0.1, 0.2], math.inf)
