"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Each test prints an ACCEPTANCE line with the measured numbers, so a failing
criterion shows exactly which quantity missed by how much.
"""

import math
import time
import warnings

import numpy as np
import pytest

from dtameta import (
    Dataset,
    OracleConfig,
    RemlConvergenceWarning,
    BTerms,
    Scenario,
    Study,
    Sym2,
    b_star,
    chi2_quantile,
    confidence_region,
    expansion_coverage,
    gls_beta,
    h_adjust,
    mc_b_moments,
    region_boundary,
    reml_sigma,
    run_grid,
)
from dtameta.cli import main, validation_preset
from dtameta.estimators import _moment_bc_array

X05 = 5.991464547107982

# published mean heterogeneity percentages, rows n = 8, 16, 24,
# columns tau2 = 0.1 .. 0.8, all at rho = 0
I2_TABLE = {
    8: (27.2, 63.4, 75.1, 81.4, 85.0, 87.2, 89.1, 90.8),
    16: (49.0, 74.9, 83.1, 87.4, 89.7, 91.6, 92.7, 93.7),
    24: (56.2, 78.0, 85.4, 88.9, 91.2, 92.7, 93.7, 94.6),
}
TAU2_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


@pytest.fixture(scope="module")
def anchor_results():
    """Three coverage anchor scenarios shared by criteria 2 and 3."""
    scenarios = [
        Scenario(tau2=0.4, rho=0.4, n=n, reps=1000, alpha=0.05, seed=42)
        for n in (8, 16, 24)
    ]
    return run_grid(scenarios)


def test_acceptance_1_heterogeneity_table():
    scenarios = [
        Scenario(tau2=t, rho=0.0, n=n, reps=1000, alpha=0.05, seed=42)
        for n in (8, 16, 24)
        for t in TAU2_GRID
    ]
    results = run_grid(scenarios)
    failures = []
    for res in results:
        sc = res.scenario
        expected = I2_TABLE[sc.n][TAU2_GRID.index(sc.tau2)]
        got = 100.0 * res.mean_i2
        status = "ok" if abs(got - expected) <= 3.0 else "MISS"
        print(
            f"ACCEPTANCE 1 cell n={sc.n} tau2={sc.tau2}: "
            f"mean_i2={got:.1f} expected={expected} tol=3.0 {status}"
        )
        if status == "MISS":
            failures.append((sc.n, sc.tau2, got, expected))
    assert not failures, f"{len(failures)}/24 cells outside +-3 points: {failures}"


def test_acceptance_2_coverage_anchors(anchor_results):
    for res in anchor_results:
        print(
            f"ACCEPTANCE 2 n={res.scenario.n}: ncr={res.coverage_ncr:.3f} "
            f"ccr={res.coverage_ccr:.3f} mc_se={res.mc_se:.4f}"
        )
    by_n = {res.scenario.n: res for res in anchor_results}
    assert by_n[8].coverage_ncr < 0.93
    for res in anchor_results:
        assert 0.93 <= res.coverage_ccr <= 0.98
        assert res.coverage_ccr >= res.coverage_ncr - 2.0 * res.mc_se


def test_acceptance_3_adjustment_monotonicity(anchor_results):
    medians = [res.median_h for res in anchor_results]
    print(f"ACCEPTANCE 3: median h by n=8,16,24 -> {medians}")
    assert all(m > 0.0 for m in medians)
    assert medians[0] > medians[1] > medians[2]


def test_acceptance_4_homogeneous_closed_forms():
    rng = np.random.default_rng(4444)
    checked = 0
    for _ in range(5):
        a = rng.standard_normal((2, 2))
        d_mat = Sym2.from_array(a @ a.T + 0.05 * np.eye(2))
        # split the common D into a between part and a positive within part
        s_val = 0.04
        sigma = Sym2(d_mat.a11 - s_val, d_mat.a12, d_mat.a22 - s_val)
        for n in (2, 8, 64):
            d = Dataset(
                Study(y_a=0.0, y_b=0.0, s_a=s_val, s_b=s_val) for _ in range(n)
            )
            b = b_star(d, sigma)
            assert b.b1 == pytest.approx(4.0 / n, rel=1e-10)
            assert b.b2 == pytest.approx(6.0 / n, rel=1e-10)
            assert abs(b.b3) <= 1e-10 * (6.0 / n)
            checked += 1
    print(f"ACCEPTANCE 4: {checked} (D, n) combinations at 1e-10 relative")


# Exact finite-n moments for n equal studies, as coefficients of
# (1/n, 1/n^2, 1/n^3, 1/n^4). Before the PSD clamp the estimate is
# D_hat = (1 + 1/n) M with n M ~ Wishart_2(D, n - 1), so tr(D_hat D^{-1}) is a
# scaled chi-square(2(n - 1)) and E[tr K^2] follows from the Wishart moment
# E[tr W^2] = 2 m (m + 3). The 1/n column is the analytic (4/n, 6/n, 0); the
# O(n^-2) remainder starts at 4/n^2, 6/n^2 and -2/n^2. The oracle clamps, but
# at n = 32 the clamp fires in about 0.15% of replications and moves each
# moment by under 7e-5, less than a fifth of the Monte Carlo SE at 200,000
# replications.
HOMOGENEOUS_EXACT = {
    "b1": (4.0, 4.0, -4.0, 0.0),
    "b2": (6.0, 6.0, -6.0, -4.0),
    "b3": (0.0, -2.0, 0.0, 0.0),
}

# (k, seed): the heterogeneous preset's 16-study design repeated k times, one
# seed per size so the three Monte Carlo estimates are independent. The sweep
# starts at n = 32: at n = 16 the PSD clamp fires in about 6% of replications
# and n^2 (mc - analytic) bends away from its large-n value, which would bias
# the straight-line extrapolation below by about 2 SE.
SWEEP = ((2, 11), (4, 12), (8, 13))


def _fit_first_order(ns, diffs, ses):
    """Weighted least squares of n * d = a + c / n; returns (a, SE(a), c).

    a is the first-order error of the analytic term (zero if it is right to
    O(1/n)); c is the coefficient of the O(n^-2) remainder.
    """
    ns = np.asarray(ns, dtype=float)
    x = np.column_stack([np.ones_like(ns), 1.0 / ns])
    y = ns * np.asarray(diffs)
    w = 1.0 / (ns * np.asarray(ses)) ** 2
    cov = np.linalg.inv(x.T @ (w[:, None] * x))
    a, c = cov @ x.T @ (w * y)
    return float(a), math.sqrt(cov[0, 0]), float(c)


@pytest.mark.slow
def test_acceptance_5_oracle_equivalence():
    failures = []
    names = ("b1", "b2", "b3")

    # homogeneous: the oracle against the exact moments, no n^-2 slack
    cfg, _, expected = validation_preset("homogeneous", 200_000, seed=11)
    n = cfg.n
    est, ses = mc_b_moments(cfg)
    for name, mc, se, ana in zip(names, (est.b1, est.b2, est.b3), ses, expected):
        coeffs = HOMOGENEOUS_EXACT[name]
        assert ana == pytest.approx(coeffs[0] / n, abs=1e-15)
        exact = sum(c / n**p for p, c in enumerate(coeffs, start=1))
        z = (mc - exact) / se
        status = "ok" if abs(z) <= 3.0 else "MISS"
        print(
            f"ACCEPTANCE 5 homogeneous {name}: mc={mc:.6f} exact={exact:.6f} "
            f"analytic={ana:.6f} z={z:+.2f} {status}"
        )
        if status == "MISS":
            failures.append(("homogeneous", name, z))

    # heterogeneous: n * (mc - analytic) must extrapolate to zero as n grows
    base, _, _ = validation_preset("heterogeneous", 200_000, seed=11)
    ns, diffs, diff_ses = [], [], []
    for k, seed in SWEEP:
        design = base.within_vars * k
        cfg = OracleConfig(
            sigma_true=base.sigma_true, within_vars=design,
            reps=base.reps, seed=seed,
        )
        est, ses = mc_b_moments(cfg)
        dummy = Dataset(Study(0.0, 0.0, a, b) for a, b in design)
        ana = b_star(dummy, cfg.sigma_true)
        ns.append(cfg.n)
        diffs.append((est.b1 - ana.b1, est.b2 - ana.b2, est.b3 - ana.b3))
        diff_ses.append(ses)
        print(
            f"ACCEPTANCE 5 heterogeneous n={cfg.n} seed={seed}: n*(mc - analytic) = "
            + ", ".join(
                f"{name} {cfg.n * d:+.3f} +- {cfg.n * se:.3f}"
                for name, d, se in zip(names, diffs[-1], ses)
            )
        )
    for j, name in enumerate(names):
        a, se_a, c = _fit_first_order(
            ns, [d[j] for d in diffs], [s[j] for s in diff_ses]
        )
        status = "ok" if abs(a) <= 3.0 * se_a else "MISS"
        print(
            f"ACCEPTANCE 5 heterogeneous {name}: first-order a={a:+.3f} +- {se_a:.3f} "
            f"remainder c={c:+.2f} {status}"
        )
        if status == "MISS":
            failures.append(("heterogeneous", name, a, se_a))
    assert not failures, f"first-order mismatch beyond 3 SE: {failures}"


def test_acceptance_6_expansion_cancellation():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(100):
        b = BTerms(*rng.uniform(0.0, 0.8, size=3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            h = h_adjust(b, 2, X05)
        worst = max(worst, abs(expansion_coverage(b, h, X05) - 0.95))
    print(f"ACCEPTANCE 6: worst |coverage - 0.95| = {worst:.3g}")
    assert worst <= 1e-12


def test_acceptance_7_invariance_suite():
    rng = np.random.default_rng(77)
    y = rng.standard_normal((10, 2))
    s = rng.uniform(0.05, 0.4, size=(10, 2))

    def dataset(yy, ss):
        return Dataset(
            Study(y_a=a, y_b=b, s_a=sa, s_b=sb)
            for (a, b), (sa, sb) in zip(yy, ss)
        )

    def pre_projection(dd):
        # the bias-corrected moment estimate before its PSD clamp
        return Sym2.from_array(_moment_bc_array(*dd.arrays()))

    d = dataset(y, s)
    base = pre_projection(d)

    # translation leaves the covariance estimate untouched
    shifted = pre_projection(dataset(y + np.array([2.0, -3.0]), s))
    assert shifted.a11 == pytest.approx(base.a11, abs=1e-12)
    assert shifted.a12 == pytest.approx(base.a12, abs=1e-12)
    assert shifted.a22 == pytest.approx(base.a22, abs=1e-12)

    # flipping one component's sign flips only the cross term
    flipped = pre_projection(dataset(y * np.array([1.0, -1.0]), s))
    assert flipped.a11 == pytest.approx(base.a11, abs=1e-12)
    assert flipped.a22 == pytest.approx(base.a22, abs=1e-12)
    assert flipped.a12 == pytest.approx(-base.a12, abs=1e-12)

    # equal weights collapse the GLS mean to the plain mean
    d_eq = dataset(y, [(0.2, 0.3)] * 10)
    np.testing.assert_allclose(
        gls_beta(d_eq, Sym2(0.4, 0.1, 0.3)), y.mean(axis=0), rtol=0, atol=1e-13
    )

    # region geometry: boundary residual and area ratio
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ncr, _ = confidence_region(d, "ncr")
        ccr, fit = confidence_region(d, "ccr")
    pts = region_boundary(ccr, 256)
    vinv = np.linalg.inv(ccr.shape.as_array())
    diff = pts - np.asarray(ccr.center)
    q = np.einsum("ia,ab,ib->i", diff, vinv, diff)
    residual = float(np.max(np.abs(q - ccr.threshold)))
    assert residual <= 1e-9

    def area(r):
        v = r.shape
        return math.pi * r.threshold * math.sqrt(v.a11 * v.a22 - v.a12 * v.a12)

    ratio = area(ccr) / area(ncr)
    assert ratio == pytest.approx(1.0 + fit.h, rel=1e-12)

    # chi-square quantile closed form
    for alpha in (0.5, 0.1, 0.05, 0.01):
        assert chi2_quantile(alpha, 2) == -2.0 * math.log(alpha)

    print(
        f"ACCEPTANCE 7: residual={residual:.2e}, area ratio={ratio:.6f} "
        f"vs 1+h={1.0 + fit.h:.6f}"
    )


def test_acceptance_8_fixture_fit(fixtures_dir, tmp_path):
    path = str(fixtures_dir / "synthetic14.csv")
    from dtameta.cli import read_table

    d = read_table(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RemlConvergenceWarning)
        reml_sigma(d)  # must converge without a warning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ncr, _ = confidence_region(d, "ncr")
        ccr, fit = confidence_region(d, "ccr")
    ratio = ccr.threshold / ncr.threshold
    assert ratio == pytest.approx(1.0 + fit.h, rel=1e-14)
    assert ratio > 1.0

    start = time.perf_counter()
    code = main([
        "fit", "--input", path, "--estimator", "both",
        "--json", str(tmp_path / "rep.json"), "--svg", str(tmp_path / "rep.svg"),
    ])
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 8: threshold ratio={ratio:.4f}, full fit in {elapsed:.3f}s")
    assert code == 0
    assert elapsed < 1.0
