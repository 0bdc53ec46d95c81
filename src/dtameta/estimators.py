"""Pooled-mean and between-study covariance estimators.

The marginal model for each study is y_i ~ N2(beta, D_i) with
D_i = Sigma + S_i, where S_i = diag(s_a, s_b) is the known within-study
covariance and Sigma the unknown between-study covariance. Everything here
is a pure function of a Dataset (plus, where relevant, a candidate Sigma).
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .model import (
    DataError,
    Dataset,
    PsdProjectionWarning,
    RemlConvergenceWarning,
    Sym2,
)

__all__ = [
    "ols_beta",
    "gls_beta",
    "v_matrix",
    "moment_sigma0",
    "bias_corrected_sigma",
    "reml_sigma",
    "i_squared",
]


def _d_stack(s: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Marginal covariances D_i = Sigma + diag(s_i), shape (..., n, 2, 2).

    sigma is (..., 2, 2) and s (..., n, 2) with the same leading axes, or one
    (n, 2) design shared by every Sigma in the stack.
    """
    d = np.repeat(sigma[..., None, :, :], s.shape[-2], axis=-3)
    d[..., 0, 0] += s[..., 0]
    d[..., 1, 1] += s[..., 1]
    return d


def _precisions(s: np.ndarray, sigma: Sym2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated stacks (D, G = D^{-1}, A = sum_i G_i) at a candidate Sigma."""
    d = _d_stack(s, sigma.as_array())
    det = d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0]
    if np.any(det <= 0) or np.any(d[:, 0, 0] <= 0):
        raise ValueError("singular or indefinite marginal covariance D_i")
    g = np.linalg.inv(d)
    return d, g, g.sum(axis=0)


def ols_beta(d: Dataset) -> np.ndarray:
    """Componentwise mean of the study summaries (the design is an intercept)."""
    if d.n == 0:
        raise DataError("empty dataset")
    y, _ = d.arrays()
    return y.mean(axis=0)


def gls_beta(d: Dataset, sigma: Sym2) -> np.ndarray:
    """Precision-weighted pooled mean with weights (Sigma + S_i)^{-1}."""
    y, s = d.arrays()
    if d.n == 0:
        raise DataError("empty dataset")
    _, g, a = _precisions(s, sigma)
    return np.linalg.solve(a, np.einsum("iab,ib->a", g, y))


def v_matrix(d: Dataset, sigma: Sym2) -> Sym2:
    """Covariance of the GLS pooled mean: the inverse of the summed precisions."""
    _, s = d.arrays()
    if d.n == 0:
        raise DataError("empty dataset")
    _, _, a = _precisions(s, sigma)
    return _inverse_precision(a)


def _inverse_precision(a: np.ndarray) -> Sym2:
    """V = A^{-1} for accumulated precisions A = sum_i G_i, rejecting a singular A."""
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if det <= 0 or a[0, 0] <= 0:
        raise ValueError("accumulated precision is singular")
    return Sym2.from_array(np.linalg.inv(a))


def moment_sigma0(d: Dataset) -> Sym2:
    """Residual-based moment estimator of the between-study covariance.

    Averages the outer products of residuals about the componentwise mean and
    subtracts the within-study contribution. The result may be indefinite;
    callers that need a PSD matrix should use bias_corrected_sigma.
    """
    if d.n < 2:
        raise DataError("moment estimator needs at least 2 studies")
    y, s = d.arrays()
    r = y - y.mean(axis=0)
    m = np.einsum("ia,ib->ab", r, r) / d.n
    m[0, 0] -= s[:, 0].mean()
    m[1, 1] -= s[:, 1].mean()
    return Sym2.from_array(m)


def _psd_clamp(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project each 2x2 of a (..., 2, 2) stack onto the PSD cone by zeroing negative eigenvalues.

    Returns (projected stack, mask of the matrices that changed). Only the
    matrices with a negative eigenvalue are rebuilt; the rest pass through.
    """
    w, q = np.linalg.eigh(m)
    neg = w[..., 0] < 0
    if not neg.any():
        return m, neg
    out = m.copy()
    qn = q[neg]
    out[neg] = (qn * np.maximum(w[neg], 0.0)[..., None, :]) @ np.swapaxes(qn, -1, -2)
    return out, neg


def _moment_bc_array(
    y: np.ndarray, s: np.ndarray, project: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Array-level bias-corrected moment estimate, (sigma_hat, projection_applied).

    y is (..., n, 2) and s (..., n, 2) or one (n, 2) design for every leading
    index; the result is (..., 2, 2) with a matching mask of clamped
    estimates. Shared by the public estimator and the Monte Carlo loops,
    which call it on replication stacks and emit no warnings.
    """
    n = y.shape[-2]
    r = y - y.mean(axis=-2, keepdims=True)
    s0 = np.einsum("...ia,...ib->...ab", r, r) / n
    s0[..., 0, 0] -= s[..., 0].mean(axis=-1)
    s0[..., 1, 1] -= s[..., 1].mean(axis=-1)
    c = n * s0
    col = s.sum(axis=-2)
    c[..., 0, 0] += col[..., 0]
    c[..., 1, 1] += col[..., 1]
    m = s0 + c / n**2
    if not project:
        return m, np.zeros(m.shape[:-2], dtype=bool)
    return _psd_clamp(m)


def bias_corrected_sigma(d: Dataset, project: bool = True) -> Sym2:
    """Second-order-unbiased covariance estimate, PSD-projected.

    Starts from moment_sigma0 and removes its O(1/n) downward bias, with the
    unknown covariance in the bias term replaced by the plug-in moment
    estimate. The correction is applied first and the eigenvalue clamp second,
    so downstream D_i = Sigma_hat + S_i stay positive definite.

    project=False skips the clamp; it exists so the pre-projection estimator
    (the quantity that is actually unbiased) can be examined directly.
    """
    if d.n < 2:
        raise DataError("bias-corrected estimator needs at least 2 studies")
    y, s = d.arrays()
    m, changed = _moment_bc_array(y, s, project=project)
    if changed:
        warnings.warn(
            "between-study covariance estimate was projected to PSD",
            PsdProjectionWarning,
            stacklevel=2,
        )
    return Sym2.from_array(m)


def _restricted_nll(theta: np.ndarray, y: np.ndarray, s: np.ndarray) -> float:
    """Negative restricted log-likelihood at Sigma = L L' in log-Cholesky coordinates."""
    l11 = math.exp(theta[0])
    l21 = theta[1]
    l22 = math.exp(theta[2])
    if not (math.isfinite(l11) and math.isfinite(l22)):
        return math.inf
    sig = np.array([[l11 * l11, l11 * l21], [l11 * l21, l21 * l21 + l22 * l22]])
    d = _d_stack(s, sig)
    det = d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] ** 2
    if np.any(det <= 0):
        return math.inf
    g = np.linalg.inv(d)
    a = g.sum(axis=0)
    det_a = a[0, 0] * a[1, 1] - a[0, 1] ** 2
    if det_a <= 0:
        return math.inf
    beta = np.linalg.solve(a, np.einsum("iab,ib->a", g, y))
    r = y - beta
    quad = float(np.einsum("ia,iab,ib->", r, g, r))
    return 0.5 * (float(np.log(det).sum()) + quad + math.log(det_a))


def reml_sigma(d: Dataset, max_iter: int = 500, xatol: float = 1e-8) -> Sym2:
    """Restricted maximum likelihood estimate of the between-study covariance.

    The covariance is parameterized as L L' with the diagonal of L on the log
    scale, which keeps every iterate PSD, and maximized with a derivative-free
    simplex search started at the PSD-projected moment estimate. If the
    optimizer stops on its iteration cap a RemlConvergenceWarning is emitted
    and the best iterate is returned.
    """
    # imported here: scipy.optimize is most of the package's import time
    from scipy.optimize import minimize

    if d.n < 3:
        raise DataError("REML needs at least 3 studies")
    y, s = d.arrays()
    if np.allclose(y, y[0], rtol=0.0, atol=0.0):
        raise DataError("degenerate dataset: all study summaries identical")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PsdProjectionWarning)
        start_sigma = bias_corrected_sigma(d).as_array()
    l = np.linalg.cholesky(start_sigma + 1e-8 * np.eye(2))
    theta0 = np.array([math.log(l[0, 0]), l[1, 0], math.log(l[1, 1])])

    res = minimize(
        _restricted_nll,
        theta0,
        args=(y, s),
        method="Nelder-Mead",
        options={"xatol": xatol, "fatol": 1e-12, "maxiter": max_iter, "maxfev": 4 * max_iter},
    )
    if not res.success:
        warnings.warn(
            f"REML simplex stopped before convergence: {res.message}",
            RemlConvergenceWarning,
            stacklevel=2,
        )
    l11, l21, l22 = math.exp(res.x[0]), float(res.x[1]), math.exp(res.x[2])
    return Sym2(l11 * l11, l11 * l21, l21 * l21 + l22 * l22)


def i_squared(within_vars: Sequence[float], tau2: float) -> float:
    """Heterogeneity fraction tau2 / (Q + tau2).

    Q is the typical within-study variance (n-1) sum(w) / ((sum w)^2 - sum w^2)
    with inverse-variance weights w_i; for equal variances it collapses to the
    common variance, so equal s and tau2 = s give exactly 1/2.
    """
    v = np.asarray(within_vars, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise DataError("i_squared needs at least 2 within-study variances")
    if np.any(v <= 0):
        raise ValueError("within-study variances must be positive")
    if tau2 < 0:
        raise ValueError("tau2 must be nonnegative")
    return float(_i2_array(v, tau2))


def _i2_array(v: np.ndarray, tau2: float) -> np.ndarray:
    """i_squared of every row of a (..., n) stack of within-study variances, unvalidated."""
    w = 1.0 / v
    sw = w.sum(axis=-1)
    q = (v.shape[-1] - 1) * sw / (sw * sw - (w * w).sum(axis=-1))
    return tau2 / (q + tau2)
