"""Confidence regions for the pooled mean, with a second-order correction.

The naive region treats the estimated between-study covariance as known and
compares the Mahalanobis distance of the pooled mean to a chi-square
quantile. That understates the noise in the covariance estimate, so the
corrected region inflates the threshold by a factor 1 + h built from three
trace statistics of the precision weights (b1, b2, b3 below). For n
identical studies the trio collapses to (4/n, 6/n, 0) and h to (1 + x/2)/n.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .estimators import (
    _d_stack,
    _inverse_precision,
    _moment_bc_array,
    _precisions,
    bias_corrected_sigma,
    gls_beta,
    reml_sigma,
    v_matrix,
)
from .model import (
    AdjustmentMagnitudeWarning,
    BTerms,
    ConfidenceRegion,
    DataError,
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
    """Upper-alpha quantile of chi-square with k degrees of freedom.

    For k = 2 the survival function is exp(-x/2), so the quantile is exactly
    -2 log(alpha); other k go through the inverse incomplete gamma.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if k < 1:
        raise ValueError("degrees of freedom must be a positive integer")
    if k == 2:
        return -2.0 * math.log(alpha)
    # imported here: scipy.special is most of the package's import time
    from scipy.special import gammainccinv

    return float(2.0 * gammainccinv(k / 2.0, alpha))


def b_star(d: Dataset, sigma: Sym2) -> BTerms:
    """Trace statistics of the precision weights driving the threshold correction.

    With G_i = D_i^{-1}, V = (sum G)^{-1}, and U_{ijk} = G_i D_j G_k:

      b1 = (2/n^2) sum_{ijk} tr(V U_{jik} V U_{kij})
      b2 = (1/n^2) sum_i tr{(sum_j U_{jij} V)^2}
           + (1/n^2) sum_{ijk} tr(V U_{jik}) tr(V U_{kij})
      b3 = b2 - (1/n^2) sum_{ij} tr(V U_{iji} D_j G_i)
              - (1/n^2) sum_{ij} tr(G_i D_j) tr(V U_{iji})

    Each study index in these products labels only its own two or three
    factors (G_i G_i, D_i D_i or G_i G_i G_i), so summing it out first gives
    one of three Kronecker moment sums, GG = sum_i G_i (x) G_i,
    DD = sum_i D_i (x) D_i and GGG = sum_i G_i (x) G_i (x) G_i. Building
    them is the only O(n) work. Every trace is then a contraction of V with
    2^4- and 2^6-entry tensors, so time is linear in n and memory constant.
    """
    _, s = d.arrays()
    if d.n == 0:
        raise DataError("empty dataset")
    dmats, g, a = _precisions(s, sigma)
    v = _inverse_precision(a).as_array()
    b1, b2, b3 = _b_star_kernel(dmats[None], g[None], v[None])
    return BTerms(float(b1[0]), float(b2[0]), float(b3[0]))


def _b_star_kernel(
    dmats: np.ndarray, g: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contraction core of b_star on R stacked replications: (b1, b2, b3), each (R,).

    Takes D (R, n, 2, 2), G = D^{-1} and V (R, 2, 2); the leading axis
    only indexes replications, so each row is computed as it would be alone.
    The einsums run without path optimization: the operands are at most
    2^6 entries per replication, and the path search would cost more than
    the contraction.
    """
    n2 = dmats.shape[-3] ** 2
    gg = np.einsum("riab,ricd->rabcd", g, g)
    dd = np.einsum("riab,ricd->rabcd", dmats, dmats)
    ggg = np.einsum("riab,ricd,rief->rabcdef", g, g, g)

    p = np.einsum("rabcd,rbc->rad", gg, v)
    b1 = 2.0 * np.einsum("rab,rcd,rbcda->r", p, p, dd) / n2

    t1 = np.einsum("rabcd,rde,refgh,rha,rbcfg->r", gg, v, gg, v, dd) / n2
    t2 = np.einsum("rab,ref,rbche,rcdgh,rdafg->r", v, v, gg, dd, gg) / n2
    b2 = t1 + t2

    c1 = np.einsum("rab,rbxycda,rxycd->r", v, ggg, dd) / n2
    c2 = np.einsum("rab,rpqbxya,rqpxy->r", v, ggg, dd) / n2
    b3 = b2 - c1 - c2

    return b1, b2, b3


# Bound on the replication x study rows one stacked fit holds, so Monte Carlo
# memory stays flat in the replication count.
_CHUNK_ROWS = 2048


def _chunks(reps: int, n: int) -> list[range]:
    """Consecutive replication ranges of at most _CHUNK_ROWS study rows, at least one each."""
    step = max(1, _CHUNK_ROWS // n)
    return [range(lo, min(lo + step, reps)) for lo in range(0, reps, step)]


def _rep_fit(
    y: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Moment and GLS fit of R stacked Monte Carlo replications.

    y is (R, n, 2) and s (R, n, 2), or one (n, 2) design for every
    replication. Returns (q, D, G, A = sum G): q (R,) is the quadratic form
    of the pooled mean about (0, 0), D and G are (R, n, 2, 2), A is (R, 2, 2).
    D is not checked: the clamped estimate plus positive s_i is positive definite.
    """
    sig_hat, _ = _moment_bc_array(y, s)
    d = _d_stack(s, sig_hat)
    g = np.linalg.inv(d)
    a = g.sum(axis=-3)
    beta = np.linalg.solve(a, np.einsum("riab,rib->ra", g, y)[..., None])
    q = (np.swapaxes(beta, -1, -2) @ a @ beta)[:, 0, 0]
    return q, d, g, a


def _rep_h(d: np.ndarray, g: np.ndarray, a: np.ndarray, x: float) -> np.ndarray:
    """Threshold adjustment h at x, shape (R,), for the stacks from _rep_fit."""
    return _h_value(*_b_star_kernel(d, g, np.linalg.inv(a)), 2, x)


def _h_value(b1, b2, b3, k: int, x: float):
    """The h_adjust formula on floats or on arrays of trace terms, unvalidated and silent."""
    return -(b1 / 4.0 - b2 / 2.0 + 2.0 * b3) / k + x * (b1 / 4.0 + b2 / 2.0) / (k * (k + 2.0))


def h_adjust(b: BTerms, k: int = 2, x: float | None = None) -> float:
    """Relative threshold inflation for a k-variate region at threshold x.

    h = -(1/k) (b1/4 - b2/2 + 2 b3) + x / (k (k + 2)) * (b1/4 + b2/2)

    Warns when |h| > 1: the correction is asymptotic in n and a value that
    large means the expansion is being used far outside its accuracy range.
    """
    if x is None:
        x = chi2_quantile(0.05, k)
    if k < 1:
        raise ValueError("dimension k must be a positive integer")
    if x <= 0:
        raise ValueError("threshold x must be positive")
    h = _h_value(b.b1, b.b2, b.b3, k, x)
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
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if method == "ccr" and estimator == "reml":
        raise ValueError(
            "the corrected region is defined around the moment estimator; "
            "use estimator='moment_bc' or method='ncr'"
        )

    sigma = reml_sigma(d) if estimator == "reml" else bias_corrected_sigma(d)
    beta = gls_beta(d, sigma)
    v = v_matrix(d, sigma)
    x = chi2_quantile(alpha, 2)

    if method == "ncr":
        b = None
        h = 0.0
        threshold = x
    else:
        b = b_star(d, sigma)
        h = h_adjust(b, 2, x)
        if 1.0 + h <= 0.0:
            raise RegionUndefinedError(
                f"corrected threshold factor 1 + h = {1.0 + h:.4g} is not positive"
            )
        threshold = x * (1.0 + h)

    region = ConfidenceRegion(
        center=(float(beta[0]), float(beta[1])),
        shape=v,
        threshold=threshold,
        h=h if method == "ccr" else 0.0,
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
