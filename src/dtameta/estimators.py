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


def _precisions(s: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unchecked GLS stacks (D, G = D^{-1}, A = sum_i G_i) at Sigma.

    The one place D_i is inverted; sigma and s are as for _d_stack. Callers
    that need V = A^{-1} invert A themselves.
    """
    d = _d_stack(s, sigma)
    g = np.linalg.inv(d)
    return d, g, g.sum(axis=-3)


def _gls_mean(g: np.ndarray, a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """GLS pooled mean A^{-1} sum_i G_i y_i of each (..., n, 2) stack of y, shape (..., 2)."""
    return np.linalg.solve(a, np.einsum("...iab,...ib->...a", g, y)[..., None])[..., 0]


def _checked_precisions(d: Dataset, sigma: Sym2) -> tuple[np.ndarray, np.ndarray, np.ndarray, Sym2]:
    """(D, G, A, V) of one dataset; each D_i is checked from Sigma and s before inversion."""
    _, s = d.arrays()
    if d.n == 0:
        raise DataError("empty dataset")
    d11 = sigma.a11 + s[:, 0]
    if (d11 <= 0).any() or (d11 * (sigma.a22 + s[:, 1]) - sigma.a12 * sigma.a12 <= 0).any():
        raise ValueError("singular or indefinite marginal covariance D_i")
    dmats, g, a = _precisions(s, sigma.as_array())
    if a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0] <= 0 or a[0, 0] <= 0:
        raise ValueError("accumulated precision is singular")
    return dmats, g, a, Sym2.from_array(np.linalg.inv(a))


def ols_beta(d: Dataset) -> np.ndarray:
    """Componentwise mean of the study summaries (the design is an intercept)."""
    if d.n == 0:
        raise DataError("empty dataset")
    y, _ = d.arrays()
    return y.mean(axis=0)


def gls_beta(d: Dataset, sigma: Sym2) -> np.ndarray:
    """Precision-weighted pooled mean with weights (Sigma + S_i)^{-1}."""
    _, g, a, _ = _checked_precisions(d, sigma)
    return _gls_mean(g, a, d.arrays()[0])


def v_matrix(d: Dataset, sigma: Sym2) -> Sym2:
    """Covariance of the GLS pooled mean: the inverse of the summed precisions."""
    return _checked_precisions(d, sigma)[3]


def moment_sigma0(d: Dataset) -> Sym2:
    """Residual-based moment estimator of the between-study covariance.

    Averages the outer products of residuals about the componentwise mean and
    subtracts the within-study contribution. The result may be indefinite;
    callers that need a PSD matrix should use bias_corrected_sigma.
    """
    if d.n < 2:
        raise DataError("moment estimator needs at least 2 studies")
    return Sym2.from_array(_moment_raw(*d.arrays()))


def _moment_raw(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Residual second moment about the mean minus the mean within-study variance, (..., 2, 2)."""
    r = y - y.mean(axis=-2, keepdims=True)
    m = np.einsum("...ia,...ib->...ab", r, r) / y.shape[-2]
    m[..., 0, 0] -= s[..., 0].mean(axis=-1)
    m[..., 1, 1] -= s[..., 1].mean(axis=-1)
    return m


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


def _moment_bc_array(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Array-level bias-corrected moment estimate before the PSD clamp.

    y is (..., n, 2) and s (..., n, 2) or one (n, 2) design for every leading
    index; the result is (..., 2, 2). Shared by the public estimator and the
    Monte Carlo loops, which call it on replication stacks, apply _psd_clamp
    themselves and emit no warnings.
    """
    n = y.shape[-2]
    s0 = _moment_raw(y, s)
    c = n * s0
    col = s.sum(axis=-2)
    c[..., 0, 0] += col[..., 0]
    c[..., 1, 1] += col[..., 1]
    return s0 + c / n**2


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
    m = _moment_bc_array(*d.arrays())
    m, changed = _psd_clamp(m) if project else (m, False)
    if changed:
        warnings.warn(
            "between-study covariance estimate was projected to PSD",
            PsdProjectionWarning,
            stacklevel=2,
        )
    return Sym2.from_array(m)


def _sigma_of(theta: np.ndarray) -> np.ndarray:
    """Sigma = L L' from log-Cholesky coordinates theta = (log l11, l21, log l22)."""
    l11, l21, l22 = math.exp(theta[0]), theta[1], math.exp(theta[2])
    return np.array([[l11 * l11, l11 * l21], [l11 * l21, l21 * l21 + l22 * l22]])


def _restricted_nll(theta: np.ndarray, y: np.ndarray, s: np.ndarray) -> float:
    """Negative restricted log-likelihood at Sigma = L L' in log-Cholesky coordinates."""
    try:
        d, g, a = _precisions(s, _sigma_of(theta))
    except np.linalg.LinAlgError:
        return math.inf
    det = d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] ** 2
    det_a = a[0, 0] * a[1, 1] - a[0, 1] ** 2
    if (det <= 0).any() or det_a <= 0:
        return math.inf
    r = y - _gls_mean(g, a, y)
    quad = float(np.einsum("ia,iab,ib->", r, g, r))
    return 0.5 * (float(np.log(det).sum()) + quad + math.log(det_a))


def reml_sigma(d: Dataset, max_iter: int = 500) -> Sym2:
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

    # the PSD-projected moment estimate, symmetrized as bias_corrected_sigma returns it
    start_sigma = Sym2.from_array(_psd_clamp(_moment_bc_array(y, s))[0]).as_array()
    l = np.linalg.cholesky(start_sigma + 1e-8 * np.eye(2))
    theta0 = np.array([math.log(l[0, 0]), l[1, 0], math.log(l[1, 1])])

    res = minimize(
        _restricted_nll,
        theta0,
        args=(y, s),
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": max_iter, "maxfev": 4 * max_iter},
    )
    if not res.success:
        warnings.warn(
            f"REML simplex stopped before convergence: {res.message}",
            RemlConvergenceWarning,
            stacklevel=2,
        )
    return Sym2.from_array(_sigma_of(res.x))


def i_squared(within_vars: Sequence[float], tau2: float) -> float:
    """Heterogeneity fraction tau2 / (Q + tau2).

    Q is the typical within-study variance (n-1) sum(w) / ((sum w)^2 - sum w^2)
    with inverse-variance weights w_i; for equal variances it collapses to the
    common variance, so equal s and tau2 = s give exactly 1/2.
    """
    v = np.asarray(within_vars, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise DataError("i_squared needs at least 2 within-study variances")
    if not np.all((v > 0) & (v < math.inf)):
        raise ValueError("within-study variances must be finite and positive")
    if not 0 <= tau2 < math.inf:
        raise ValueError("tau2 must be finite and nonnegative")
    return float(_i2_array(v, tau2))


def _i2_array(v: np.ndarray, tau2: float) -> np.ndarray:
    """i_squared of every row of a (..., n) stack of within-study variances, unvalidated."""
    w = 1.0 / v
    sw = w.sum(axis=-1)
    q = (v.shape[-1] - 1) * sw / (sw * sw - (w * w).sum(axis=-1))
    return tau2 / (q + tau2)
