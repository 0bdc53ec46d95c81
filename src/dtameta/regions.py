"""Confidence regions for the pooled mean, with a second-order correction.

The naive region treats the estimated between-study covariance as known and
compares the Mahalanobis distance of the pooled mean to a chi-square
quantile. That understates the noise in the covariance estimate, so the
corrected region inflates the threshold by a factor 1 + h built from three
trace statistics of the precision weights (b1, b2, b3 below). For n
identical studies the trio collapses to (4/n, 6/n, 0) and h to (1 + x/2)/n.

One positive-definiteness rule (model._all_pd) checks each D_i where
estimators builds it, A where the precision kernel sums it, and a region's
shape: confidence_region inverts A into V, and ConfidenceRegion decides V
before any trace term is computed. The rule asks a11 > 0 and 0 < det < inf
of model._det2, the determinant the closed-form Cholesky factor
estimators._chol2 reads too, so every matrix the rule passes has a finite
factor, which whitens A in the trace kernel (it reads only D and A) and
draws the region boundary.

_rep_fit runs confidence_region's kernels (moment estimate, _psd_clamp,
_precisions, GLS, trace kernel, h) on R stacked replications, so the Monte
Carlo coverage of oracle and simlab is that of the public fit, bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np

from .estimators import (
    _checked_precisions, _chol2, _gls_mean, _inv2, _moment_bc_array, _precisions, _psd_clamp,
    _study_sum, bias_corrected_sigma, reml_sigma,
)
from .model import (
    AdjustmentMagnitudeWarning,
    BTerms,
    ConfidenceRegion,
    Dataset,
    FitResult,
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

    Each study index labels only its own two or three factors, so summing it
    out first leaves 4 x 4 moments of the whitened stack (_b_star_kernel).
    Building them is the only O(n) work, so time and memory are linear in n:
    the whitened stacks are (R, n, 4).
    """
    dmats, _, a = _checked_precisions(d, sigma)
    return _b_terms(dmats, a)


def _b_terms(dmats: np.ndarray, a: np.ndarray) -> BTerms:
    """b_star of one dataset from its checked D and A."""
    b1, b2, b3 = _b_star_kernel(dmats[None], a[None])
    return BTerms(float(b1[0]), float(b2[0]), float(b3[0]))


def _b_star_kernel(dmats: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace core of b_star on R stacked replications: (b1, b2, b3), each (R,).

    Takes D (R, n, 2, 2) and A = sum_i D_i^{-1} (R, 2, 2); the leading axis
    only indexes replications, so each row is computed as it would be alone.
    The traces are unchanged by D_i -> L' D_i L, or vec(D_i)' -> vec(D_i)'
    (L (x) L), with A = L L', which makes V = I; unwhitened, the moment sums
    cancel and h is noise by cond(D_i) 1e6. L = _chol2(A), which factors
    every A that passes model._all_pd.
    With row-major vec, D_i and G_i = D_i^{-1} whitened, DD = sum_i vec(D_i)
    vec(D_i)', Kg = sum_i G_i (x) G_i, Kd = sum_i D_i (x) D_i, P = sum_i G_i^2
    and <X, Y> the elementwise product's sum (each Kronecker product or sum
    an axis permutation of vec outer products):
      b1 = 2 <Kd, vec(P) vec(P)'> / n^2
      b2 = <Kg Kg, Kd + DD> / n^2
      b3 = b2 - <sum_i vec(G_i^2) vec(G_i)', Kd + DD> / n^2
    """
    r, n = dmats.shape[:2]
    l = _chol2(a)
    lk = (l[:, :, None, :, None] * l[:, None, :, None, :]).reshape(r, 4, 4)
    d4 = dmats.reshape(r, n, 4) @ lk
    g = _inv2(d4.reshape(r, n, 2, 2))
    g4, q4 = g.reshape(r, n, 4), (g @ g).reshape(r, n, 4)
    p4 = _study_sum(q4, -2)[:, None]
    gg, dd, pp, qg = (np.swapaxes(x, 1, 2) @ y for x, y in ((g4, g4), (d4, d4), (p4, p4), (q4, g4)))
    kg, kd = (m.reshape(r, 2, 2, 2, 2).swapaxes(2, 3).reshape(r, 4, 4) for m in (gg, dd))

    b1 = 2.0 * (kd * pp).sum(axis=(1, 2)) / n**2
    b2 = ((kg @ kg) * (kd + dd)).sum(axis=(1, 2)) / n**2
    b3 = b2 - (qg * (kd + dd)).sum(axis=(1, 2)) / n**2
    return b1, b2, b3


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

    ConfidenceRegion refuses a shape V failing the positive-definiteness
    rule before any trace term is computed, and raises RegionUndefinedError
    when x (1 + h) is not a positive finite number (at 1 + h <= 0 no ellipse exists).
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
    dmats, g, a = _checked_precisions(d, sigma)
    beta = _gls_mean(g, a, d.arrays()[0])
    center, v = (float(beta[0]), float(beta[1])), Sym2.from_array(_inv2(a))
    region = ConfidenceRegion(center, v, x, 0.0, alpha, "ncr")
    b = h = None
    if method == "ccr":
        b = _b_terms(dmats, a)
        h = h_adjust(b, x=x)
        region = replace(region, threshold=x * (1.0 + h), h=h, method="ccr")
    return region, FitResult(center, sigma, v, estimator, h, b)


def _rep_fit(y: np.ndarray, s: np.ndarray, x: float | None) -> tuple[np.ndarray, np.ndarray]:
    """confidence_region's moment fit of R stacked Monte Carlo replications, warning-free.

    y is (R, n, 2) and s (R, n, 2), or one (n, 2) design for every
    replication. Runs the kernels confidence_region runs, on the stack:
    the clamped moment estimate, _precisions, GLS, the trace kernel and h.
    Returns (q, h): q (R,) is the quadratic form beta' A beta of the pooled
    mean about (0, 0), and h (R,) the threshold adjustment at x. With x None
    (the naive region) the trace terms are skipped and h is zeros.
    """
    sig_hat, _ = _psd_clamp(_moment_bc_array(y, s))
    d, g, a = _precisions(s, sig_hat)
    beta = _gls_mean(g, a, y)[..., None]
    q = (np.swapaxes(beta, -1, -2) @ a @ beta)[:, 0, 0]
    if x is None:
        return q, np.zeros_like(q)
    return q, _h_value(*_b_star_kernel(d, a), x)


def region_contains(r: ConfidenceRegion, beta0) -> bool:
    """Boundary-inclusive membership test: quadratic form <= threshold."""
    c = np.asarray(r.center, dtype=float)
    p = np.asarray(beta0, dtype=float)
    if p.shape != (2,):
        raise ValueError("beta0 must be a length-2 point")
    diff = p - c
    q = float(diff @ _inv2(r.shape.as_array()) @ diff)
    return q <= r.threshold


def region_boundary(r: ConfidenceRegion, m: int = 256) -> np.ndarray:
    """m points on the boundary ellipse, ordered by angle, shape (m, 2).

    Points are center + sqrt(threshold) * L [cos t, sin t]' with L = _chol2 of
    the shape matrix, which every shape ConfidenceRegion accepts has, so each
    satisfies the boundary equation to rounding error.
    """
    if m < 3:
        raise ValueError("need at least 3 boundary points")
    l = _chol2(r.shape.as_array())
    t = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    circle = np.stack([np.cos(t), np.sin(t)])
    return np.asarray(r.center) + math.sqrt(r.threshold) * (l @ circle).T
