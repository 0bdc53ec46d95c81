"""Pooled-mean and between-study covariance estimators.

The marginal model for each study is y_i ~ N2(beta, D_i) with
D_i = Sigma + S_i, where S_i = diag(s_a, s_b) is the known within-study
covariance and Sigma the unknown between-study covariance. The estimators are pure
functions of a Dataset and, where relevant, a Sigma; i_squared of variances and tau2.
"""

from __future__ import annotations

import math
import operator
import warnings
from functools import reduce
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .model import (
    DataError,
    Dataset,
    PsdProjectionWarning,
    RemlConvergenceWarning,
    Sym2,
    _all_pd,
    _det2,
)

__all__ = [
    "gls_beta",
    "v_matrix",
    "bias_corrected_sigma",
    "reml_sigma",
    "i_squared",
]


def _d_stack(s: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Marginal covariances D_i = Sigma + diag(s_i), shape (..., n, 2, 2).

    sigma is (..., 2, 2) and s (..., n, 2) with the same leading axes, or one
    (n, 2) design for every Sigma. A D_i failing model._all_pd raises ValueError.
    """
    d = np.repeat(sigma[..., None, :, :], s.shape[-2], axis=-3)
    d[..., 0, 0] += s[..., 0]
    d[..., 1, 1] += s[..., 1]
    if not _all_pd(d):
        raise ValueError("singular or indefinite marginal covariance D_i")
    return d


def _inv2(m: np.ndarray) -> np.ndarray:
    """Inverse of each 2x2 of a (..., 2, 2) stack: the adjugate over the determinant, unchecked."""
    det = _det2(m)
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1] / det
    out[..., 0, 1] = -m[..., 0, 1] / det
    out[..., 1, 0] = -m[..., 1, 0] / det
    out[..., 1, 1] = m[..., 0, 0] / det
    return out


def _chol2(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L, m = L L', of each 2x2 of a (..., 2, 2) stack passing _all_pd.

    l22 reads the rule's own model._det2, so every matrix the rule passes has a finite factor.
    """
    l = np.zeros_like(m)
    l[..., :, 0] = m[..., :, 0] / np.sqrt(m[..., :1, 0])
    l[..., 1, 1] = np.sqrt(_det2(m) / m[..., 0, 0])
    return l


def _study_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Sum of a C-contiguous stack over its study axis, a negative axis but never the last.

    einsum adds the studies one at a time in table order, as np.add.reduce does there,
    bit for bit, and faster on these short trailing axes; so each row sums as it would alone.
    """
    rest = list(range(1, -axis))
    return np.einsum(x, [..., 0, *rest], [..., *rest])


def _precisions(s: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GLS stacks (D, G = D^{-1}, A = sum_i G_i) at Sigma.

    The one place D_i is inverted and A summed; sigma and s are as for _d_stack. An A
    failing model._all_pd raises ValueError. Callers that need V = A^{-1} invert A themselves.
    """
    d = _d_stack(s, sigma)
    g = _inv2(d)
    if not _all_pd(a := _study_sum(g, -3)):
        raise ValueError("accumulated precision is singular")
    return d, g, a


def _gls_mean(g: np.ndarray, a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """GLS pooled mean A^{-1} sum_i G_i y_i of each (..., n, 2) stack of y, shape (..., 2).

    The 2x2 solve is Cramer's rule, so no V = A^{-1} is formed. sum_i G_i y_i adds
    each G_i y_i's two terms, then the studies in table order, as einsum does.
    """
    b = _study_sum(g[..., 0] * y[..., :1] + g[..., 1] * y[..., 1:], -2)
    det = _det2(a)
    x0 = (a[..., 1, 1] * b[..., 0] - a[..., 0, 1] * b[..., 1]) / det
    x1 = (a[..., 0, 0] * b[..., 1] - a[..., 1, 0] * b[..., 0]) / det
    return np.stack([x0, x1], axis=-1)


def _checked_precisions(d: Dataset, sigma: Sym2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_precisions (D, G, A) of one dataset, which must not be empty."""
    _, s = d.arrays()
    if d.n == 0:
        raise DataError("empty dataset")
    return _precisions(s, sigma.as_array())


def gls_beta(d: Dataset, sigma: Sym2) -> np.ndarray:
    """Precision-weighted pooled mean with weights (Sigma + S_i)^{-1}."""
    _, g, a = _checked_precisions(d, sigma)
    return _gls_mean(g, a, d.arrays()[0])


def v_matrix(d: Dataset, sigma: Sym2) -> Sym2:
    """Covariance of the GLS pooled mean: the inverse of the summed precisions."""
    v = _inv2(_checked_precisions(d, sigma)[2])
    if not _all_pd(v):
        raise ValueError("accumulated precision is singular")
    return Sym2.from_array(v)


def _moment_raw(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Residual second moment about the mean minus the mean within-study variance, (..., 2, 2).

    This residual moment estimate of Sigma may be indefinite; bias_corrected_sigma is PSD.
    """
    n = y.shape[-2]
    if n < 2:
        raise DataError("moment estimator needs at least 2 studies")
    r = y - _study_sum(y, -2)[..., None, :] / n
    p = np.empty(r.shape[:-1] + (3,))  # r0 r0, r0 r1, r1 r1: C-contiguous for _study_sum
    for k, (a, b) in enumerate(((0, 0), (0, 1), (1, 1))):
        np.multiply(r[..., a], r[..., b], out=p[..., k])
    m = (_study_sum(p, -2) / n)[..., [0, 1, 1, 2]].reshape(r.shape[:-2] + (2, 2))
    m[..., 0, 0] -= s[..., 0].mean(axis=-1)
    m[..., 1, 1] -= s[..., 1].mean(axis=-1)
    return m


def _psd_clamp(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project each 2x2 of a (..., 2, 2) stack onto the PSD cone by zeroing negative eigenvalues.

    Returns (projected stack, mask of the matrices that changed). A symmetric
    2x2 with a11 > 0 and det > 1e-12 tr^2 is positive definite with its
    smaller eigenvalue above 1e-12 tr, far beyond eigh's rounding error of a
    few eps tr, so it passes through on this elementwise test alone. eigh
    runs only on the rest, and of those only the matrices with a negative
    eigenvalue are rebuilt. The mask is therefore eigh's w[..., 0] < 0 on
    every input whose entry products do not underflow, near-singular ones
    included. A rebuilt matrix r is returned as 0.5 (r + r'), as Sym2.from_array
    forms it, so the public and the Monte Carlo fits read one symmetric Sigma.
    """
    flat = m.reshape(-1, 2, 2)
    a11, a22 = flat[:, 0, 0], flat[:, 1, 1]
    tr = a11 + a22
    pd = (a11 > 0) & (a11 * a22 - flat[:, 1, 0] * flat[:, 1, 0] > 1e-12 * tr * tr)
    changed = np.zeros(len(flat), dtype=bool)
    rest = np.flatnonzero(~pd)
    if rest.size:
        w, q = np.linalg.eigh(flat[rest])  # LAPACK's eigh: the mask must equal eigh's
        neg = w[:, 0] < 0
        changed[rest[neg]] = True
    if not changed.any():
        return m, changed.reshape(m.shape[:-2])
    out = flat.copy()
    qn = q[neg]
    r = (qn * np.maximum(w[neg], 0.0)[..., None, :]) @ np.swapaxes(qn, -1, -2)
    out[rest[neg]] = 0.5 * (r + np.swapaxes(r, -1, -2))
    return out.reshape(m.shape), changed.reshape(m.shape[:-2])


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
    col = _study_sum(s, -2)
    c[..., 0, 0] += col[..., 0]
    c[..., 1, 1] += col[..., 1]
    return s0 + c / n**2


def bias_corrected_sigma(d: Dataset) -> Sym2:
    """Second-order-unbiased covariance estimate, PSD-projected.

    Starts from the residual moment estimate _moment_raw and removes its O(1/n)
    downward bias, with the unknown covariance in the bias term replaced by the
    plug-in moment estimate. The correction is applied first and the eigenvalue
    clamp second, so downstream D_i = Sigma_hat + S_i stay positive definite.
    """
    m, changed = _psd_clamp(_moment_bc_array(*d.arrays()))
    if changed:
        warnings.warn(
            "between-study covariance estimate was projected to PSD",
            PsdProjectionWarning,
            stacklevel=2,
        )
    return Sym2.from_array(m)


def _sigma_of(theta: Sequence[float]) -> tuple[float, float, float]:
    """Entries (s11, s12, s22) of Sigma = L L' at log-Cholesky theta = (log l11, l21, log l22)."""
    l11, l21, l22 = math.exp(theta[0]), theta[1], math.exp(theta[2])
    return l11 * l11, l11 * l21, l21 * l21 + l22 * l22


def _restricted_nll(y: np.ndarray, s: np.ndarray):
    """Negative restricted log-likelihood at Sigma = L L', as a function of log-Cholesky theta.

    Under reml_sigma's np.errstate(invalid="raise", divide="raise", over="raise") it is finite
    or +inf: any floating-point event, OverflowError, log domain error or non-finite value gives +inf.
    """
    # LAPACK inv and solve, not _precisions' closed forms: a change in the
    # objective's last bits moves the simplex path and REML's estimate by up
    # to 2.4e-8 relative. ROADMAP item 3 replaces this objective. They are the
    # gufuncs np.linalg wraps, which signal a singular matrix as invalid.
    template = np.where(np.eye(2, dtype=bool), s[:, :, None], -0.0)  # -0.0 + x is x
    d, sigma = np.empty_like(template), np.empty((2, 2))
    d11, d22, flat = d[:, 0, 0], d[:, 1, 1], sigma.reshape(4)

    def nll(theta) -> float:
        try:
            s11, s12, s22 = _sigma_of(theta)
            flat[:] = s11, s12, s12, s22
            g = _umath_linalg.inv(np.add(template, sigma, out=d), signature="d->d")
            a = g.sum(axis=-3)
            (a11, a12), (_, a22) = a.tolist()
            beta = _umath_linalg.solve1(a, np.einsum("...iab,...ib->...a", g, y), signature="dd->d")
            r = y - beta
            quad = float(np.einsum("ia,iab,ib->", r, g, r))
            log_det = float(np.log(d11 * d22 - s12 * s12).sum())
            value = 0.5 * (log_det + quad + math.log(a11 * a22 - a12**2))
        except (FloatingPointError, OverflowError, ValueError):
            return math.inf
        return value if math.isfinite(value) else math.inf

    return nll


class _OutOfEvaluations(Exception):
    """_nelder_mead's evaluation budget is spent."""


def _nelder_mead(f, x0: Sequence[float], max_iter: int) -> tuple[list[float], str | None]:
    """SciPy 1.17.1's minimize(f, x0, method="Nelder-Mead"), iterate for iterate, on Python floats.

    Options xatol 1e-8, fatol 1e-12, maxiter max_iter, maxfev 4 max_iter. Ranks by np.argsort,
    which may reorder ties, as SciPy does; sums the centroid left to right, which sum() does
    not from Python 3.12. Returns the best vertex and None, or SciPy's message on a cap.
    """
    n, budget = len(x0), 4 * max_iter

    def fun(x):
        nonlocal nfev
        if nfev >= budget:
            raise _OutOfEvaluations
        nfev += 1
        return f(x)

    def ranked(sim, fsim):
        order = np.array(fsim).argsort().tolist()
        return [sim[i] for i in order], [fsim[i] for i in order]

    def step(a, c):  # a m + c w from the centroid m and worst vertex w; equals a m - |c| w
        return [a * mk + c * wk for mk, wk in zip(m, sim[-1])]

    sim = [list(x0) for _ in range(n + 1)]
    for k in range(n):
        sim[k + 1][k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = [f(x) for x in sim]  # within budget: max_iter >= 1 makes it at least 4 = n + 1
    nfev = n + 1
    sim, fsim = ranked(*ranked(sim, fsim))  # twice, as SciPy does: ties may move
    iterations = 1
    while nfev < budget and iterations < max_iter:
        try:
            if all(abs(v - c) <= 1e-8 for x in sim[1:] for v, c in zip(x, sim[0])) and all(
                abs(fsim[0] - fx) <= 1e-12 for fx in fsim[1:]
            ):
                break
            m = [reduce(operator.add, col) / n for col in zip(*sim[:-1])]
            fr = fun(xr := step(2, -1))
            if fr < fsim[0]:
                fe = fun(xe := step(3, -2))
                sim[-1], fsim[-1] = (xe, fe) if fe < fr else (xr, fr)
            elif fr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fr
            else:
                inside = not fr < fsim[-1]
                fc = fun(xc := step(0.5, 0.5) if inside else step(1.5, -0.5))
                if (fc < fsim[-1]) if inside else (fc <= fr):
                    sim[-1], fsim[-1] = xc, fc
                else:
                    for j in range(1, n + 1):
                        sim[j] = [bk + 0.5 * (vk - bk) for bk, vk in zip(sim[0], sim[j])]
                        fsim[j] = fun(sim[j])
            iterations += 1
        except _OutOfEvaluations:
            pass
        sim, fsim = ranked(sim, fsim)
    cap = "function evaluations" if nfev >= budget else "iterations" if iterations >= max_iter else None
    return sim[0], cap and f"Maximum number of {cap} has been exceeded."


def reml_sigma(d: Dataset, max_iter: int = 500) -> Sym2:
    """Restricted maximum likelihood estimate of the between-study covariance.

    The covariance is parameterized as L L' with the diagonal of L on the log
    scale, which keeps every iterate PSD, and maximized from the PSD-projected
    moment estimate by _nelder_mead, which repeats SciPy's Nelder-Mead simplex
    bit for bit. If it stops on its cap of max_iter iterations or 4 max_iter
    evaluations, a RemlConvergenceWarning is emitted and the best vertex is returned.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if d.n < 3:
        raise DataError("REML needs at least 3 studies")
    y, s = d.arrays()
    if (y == y[0]).all():
        raise DataError("degenerate dataset: all study summaries identical")

    start_sigma = _psd_clamp(_moment_bc_array(y, s))[0]
    try:  # LAPACK's factor, not _chol2: its bits set theta0 and so REML's simplex path
        l = np.linalg.cholesky(start_sigma + 1e-8 * np.eye(2))
    except np.linalg.LinAlgError:
        raise DataError(
            "REML start (the PSD-projected moment estimate plus 1e-8 I) is not positive definite"
        ) from None
    theta0 = [math.log(l[0, 0]), float(l[1, 0]), math.log(l[1, 1])]

    with np.errstate(invalid="raise", divide="raise", over="raise"):
        x, stopped = _nelder_mead(_restricted_nll(y, s), theta0, max_iter)
    if stopped:
        msg = f"REML simplex stopped before convergence: {stopped}"
        warnings.warn(msg, RemlConvergenceWarning, stacklevel=2)
    return Sym2(*_sigma_of(x))


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


def _i2_array(v: np.ndarray, tau2: float | np.ndarray) -> np.ndarray:
    """i_squared of each row of a (..., n) stack of within-study variances; tau2 may vary by row.

    The weights w = 1/v are scaled by 2^-e, with max w < 2^e, and Q back by 2^-e, so w^2 cannot
    overflow. Both scalings are exact: Q keeps the unscaled formula's bits where that stays normal.
    """
    e = np.frexp(1.0 / v.min(axis=-1))[1]  # 1/v rounds monotonically: 1 / min v is max w
    w = np.ldexp(1.0 / v, -e[..., None])
    sw = w.sum(axis=-1)
    q = np.ldexp((v.shape[-1] - 1) * sw / (sw * sw - (w * w).sum(axis=-1)), -e)
    return tau2 / (q + tau2)
