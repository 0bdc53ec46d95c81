"""Confidence regions for the pooled mean, with a second-order correction.

The naive region treats the estimated between-study covariance as known and
compares the Mahalanobis distance of the pooled mean to a chi-square
quantile. That understates the noise in the covariance estimate, so the
corrected region inflates the threshold by a factor 1 + h built from three
trace statistics of the precision weights (b1, b2, b3 below). For n
identical studies the trio collapses to (4/n, 6/n, 0) and h to (1 + x/2)/n.

Public calls (once per confidence_region) and Monte Carlo replications
(_rep_fit) take D, G and A from one precision kernel in estimators; only
the corrected region inverts A into V. Every matrix here is 2 x 2, so the
algebra is closed form: each inverse is the adjugate over the determinant
(estimators._inv2), the pooled mean solves its 2 x 2 system by Cramer's
rule, and the PSD clamp calls eigh only on estimates that an elementwise
determinant test cannot pass.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .estimators import (
    _checked_precisions,
    _gls_mean,
    _inv2,
    _moment_bc_array,
    _precisions,
    _psd_clamp,
    bias_corrected_sigma,
    reml_sigma,
)
from .model import (
    AdjustmentMagnitudeWarning,
    BTerms,
    ConfidenceRegion,
    Dataset,
    FitResult,
    RegionUndefinedError,
    Sym2,
)

__all__ = [
    "chi2_quantile",
    "b_star",
    "h_adjust",
    "confidence_region",
    "region_contains",
    "region_boundary",
]


def chi2_quantile(alpha: float, k: int = 2) -> float:
    """Upper-alpha quantile of chi-square with 2 degrees of freedom: exactly -2 log(alpha).

    k stays, positional after alpha, because bench/worker.py passes 2; no other value is accepted.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if k != 2:
        raise ValueError("the model is bivariate: k must be 2")
    return -2.0 * math.log(alpha)


def b_star(d: Dataset, sigma: Sym2) -> BTerms:
    """Trace statistics of the precision weights driving the threshold correction.

    With G_i = D_i^{-1}, V = (sum G)^{-1}, and U_{ijk} = G_i D_j G_k:

      b1 = (2/n^2) sum_{ijk} tr(V U_{jik} V U_{kij})
      b2 = (1/n^2) sum_i tr{(sum_j U_{jij} V)^2}
           + (1/n^2) sum_{ijk} tr(V U_{jik}) tr(V U_{kij})
      b3 = b2 - (1/n^2) sum_{ij} tr(V U_{iji} D_j G_i)
              - (1/n^2) sum_{ij} tr(G_i D_j) tr(V U_{iji})

    Each study index in these products labels only its own two or three
    factors, so summing it out first leaves 4 x 4 moments of the stack:
    DD = sum_i vec(D_i) vec(D_i)', the Kronecker sums Kg = sum_i G_i (x) G_i
    and Kd = sum_i D_i (x) D_i, and sum_i vec(Q_i) vec(G_i)' with
    Q_i = G_i V G_i. Building them is the only O(n) work; every trace is
    then a product of 4 x 4 matrices, so time is linear in n and memory
    constant.
    """
    dmats, g, _, v = _checked_precisions(d, sigma)
    return _b_terms(dmats, g, v)


def _b_terms(dmats: np.ndarray, g: np.ndarray, v: Sym2) -> BTerms:
    """b_star of one dataset from its checked D, G and V."""
    b1, b2, b3 = _b_star_kernel(dmats[None], g[None], v.as_array()[None])
    return BTerms(float(b1[0]), float(b2[0]), float(b3[0]))


def _b_star_kernel(
    dmats: np.ndarray, g: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace core of b_star on R stacked replications: (b1, b2, b3), each (R,).

    Takes D (R, n, 2, 2), G = D^{-1} and V (R, 2, 2); the leading axis
    only indexes replications, so each row is computed as it would be alone.
    With row-major vec, G_i, D_i and V symmetric, P = sum_i Q_i and <X, Y>
    the sum of the elementwise product, the terms are 4 x 4 matrix products:
      b1 = 2 <Kd, vec(P) vec(P)'> / n^2
      b2 = (<Kg (V (x) V) Kg, DD> + <Kg Kd Kg, V (x) V>) / n^2
      b3 = b2 - <sum_i vec(Q_i) vec(G_i)', Kd + DD> / n^2
    Each Kronecker product or sum is an axis permutation of a vec outer
    product or sum, and the only per-study work is Q_i and those sums.
    """
    r, n = g.shape[:2]
    d4, g4, v4 = dmats.reshape(r, n, 4), g.reshape(r, n, 4), v.reshape(r, 1, 4)
    q4 = (g @ v[:, None] @ g).reshape(r, n, 4)
    p4 = q4.sum(axis=1, keepdims=True)
    gg, dd, vo, pp, qg = (
        np.swapaxes(x, 1, 2) @ y for x, y in ((g4, g4), (d4, d4), (v4, v4), (p4, p4), (q4, g4))
    )
    kg, kd, vv = (m.reshape(r, 2, 2, 2, 2).swapaxes(2, 3).reshape(r, 4, 4) for m in (gg, dd, vo))

    b1 = 2.0 * (kd * pp).sum(axis=(1, 2)) / n**2
    b2 = (((kg @ vv @ kg) * dd).sum(axis=(1, 2)) + ((kg @ kd @ kg) * vv).sum(axis=(1, 2))) / n**2
    b3 = b2 - (qg * (kd + dd)).sum(axis=(1, 2)) / n**2
    return b1, b2, b3


# Bound on the replication x study rows one stacked fit holds, so Monte Carlo
# memory stays flat in the replication count.
_CHUNK_ROWS = 2048


def _chunks(reps: int, n: int) -> list[range]:
    """Consecutive replication ranges of at most _CHUNK_ROWS study rows, at least one each."""
    step = max(1, _CHUNK_ROWS // n)
    return [range(lo, min(lo + step, reps)) for lo in range(0, reps, step)]


def _rep_fit(
    y: np.ndarray, s: np.ndarray, x: float | None
) -> tuple[np.ndarray, np.ndarray | float]:
    """Moment and GLS fit of R stacked Monte Carlo replications.

    y is (R, n, 2) and s (R, n, 2), or one (n, 2) design for every
    replication. Returns (q, h) from the same precision kernel as the public
    fit: q (R,) is the quadratic form of the pooled mean about (0, 0), and h
    (R,) the threshold adjustment at x. With x None (the naive region) the
    trace terms are skipped and h is 0. Nothing is checked: the clamped
    estimate plus positive s_i is positive definite.
    """
    sig_hat, _ = _psd_clamp(_moment_bc_array(y, s))
    d, g, a = _precisions(s, sig_hat)
    beta = _gls_mean(g, a, y)[..., None]
    q = (np.swapaxes(beta, -1, -2) @ a @ beta)[:, 0, 0]
    if x is None:
        return q, 0.0
    return q, _h_value(*_b_star_kernel(d, g, _inv2(a)), x)


def _coverage(q: np.ndarray, h, x: float) -> tuple[float, float]:
    """(coverage, binomial SE) of R replications' quadratic forms q against thresholds x (1 + h).

    h is (R,) or a scalar (0 for the naive region). A replication whose
    factor 1 + h is not positive counts as a miss: no region exists to cover.
    """
    coverage = float(np.count_nonzero((1.0 + h > 0.0) & (q <= x * (1.0 + h))) / q.size)
    return coverage, math.sqrt(coverage * (1.0 - coverage) / q.size)


def _h_value(b1, b2, b3, x: float):
    """The h_adjust formula on floats or on arrays of trace terms, unvalidated and silent."""
    return -(b1 / 4.0 - b2 / 2.0 + 2.0 * b3) / 2 + x * (b1 / 4.0 + b2 / 2.0) / 8.0


def h_adjust(b: BTerms, k: int = 2, x: float | None = None) -> float:
    """Relative threshold inflation for the bivariate region at threshold x.

    h = -(1/2) (b1/4 - b2/2 + 2 b3) + (x/8) (b1/4 + b2/2)

    k stays, positional after b, because bench/worker.py passes 2; no other value is accepted.
    Warns when |h| > 1: the correction is asymptotic in n and a value that
    large means the expansion is being used far outside its accuracy range.
    """
    if k != 2:
        raise ValueError("the model is bivariate: k must be 2")
    if x is None:
        x = chi2_quantile(0.05)
    if not 0 < x < math.inf:
        raise ValueError("threshold x must be finite and positive")
    h = _h_value(b.b1, b.b2, b.b3, x)
    if abs(h) > 1.0:
        warnings.warn(
            f"threshold adjustment h = {h:.4g} exceeds 1 in magnitude; "
            "the second-order expansion is unreliable this far from its center",
            AdjustmentMagnitudeWarning,
            stacklevel=2,
        )
    return float(h)


def confidence_region(
    d: Dataset,
    method: str = "ccr",
    alpha: float = 0.05,
    estimator: str = "moment_bc",
) -> tuple[ConfidenceRegion, FitResult]:
    """Elliptical confidence region for the pooled mean.

    method "ncr" uses the plain chi-square threshold; "ccr" inflates it by
    1 + h. The corrected region is tied to the bias-corrected moment
    estimator that its expansion assumes, so method="ccr" with
    estimator="reml" is rejected rather than silently recomputed.

    Raises RegionUndefinedError when 1 + h <= 0 (no ellipse exists).
    """
    if method not in ("ncr", "ccr"):
        raise ValueError(f"unknown method {method!r}")
    if estimator not in ("moment_bc", "reml"):
        raise ValueError(f"unknown estimator {estimator!r}")
    x = chi2_quantile(alpha)
    if method == "ccr" and estimator == "reml":
        raise ValueError(
            "the corrected region is defined around the moment estimator; "
            "use estimator='moment_bc' or method='ncr'"
        )

    sigma = reml_sigma(d) if estimator == "reml" else bias_corrected_sigma(d)
    dmats, g, a, v = _checked_precisions(d, sigma)
    beta = _gls_mean(g, a, d.arrays()[0])

    b, h = None, 0.0
    if method == "ccr":
        b = _b_terms(dmats, g, v)
        h = h_adjust(b, x=x)
        if 1.0 + h <= 0.0:
            raise RegionUndefinedError(
                f"corrected threshold factor 1 + h = {1.0 + h:.4g} is not positive"
            )

    region = ConfidenceRegion(
        center=(float(beta[0]), float(beta[1])),
        shape=v,
        threshold=x * (1.0 + h),
        h=h,
        alpha=alpha,
        method=method,
    )
    fit = FitResult(
        beta=(float(beta[0]), float(beta[1])),
        sigma=sigma,
        v=v,
        estimator=estimator,
        h=h if method == "ccr" else None,
        b=b,
    )
    return region, fit


def region_contains(r: ConfidenceRegion, beta0) -> bool:
    """Boundary-inclusive membership test: quadratic form <= threshold."""
    c = np.asarray(r.center, dtype=float)
    p = np.asarray(beta0, dtype=float)
    if p.shape != (2,):
        raise ValueError("beta0 must be a length-2 point")
    diff = p - c
    vinv = np.linalg.inv(r.shape.as_array())
    q = float(diff @ vinv @ diff)
    return q <= r.threshold


def region_boundary(r: ConfidenceRegion, m: int = 256) -> np.ndarray:
    """m points on the boundary ellipse, ordered by angle, shape (m, 2).

    Points are center + sqrt(threshold) * L [cos t, sin t]' with L the
    Cholesky factor of the shape matrix, so each satisfies the boundary
    equation to rounding error.
    """
    if m < 3:
        raise ValueError("need at least 3 boundary points")
    l = np.linalg.cholesky(r.shape.as_array())
    t = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    circle = np.stack([np.cos(t), np.sin(t)])
    pts = np.asarray(r.center) + math.sqrt(r.threshold) * (l @ circle).T
    return pts
