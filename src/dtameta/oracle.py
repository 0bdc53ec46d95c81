"""Monte Carlo estimators of the expectations the analytic corrections approximate.

The b1, b2, b3 trace statistics are closed-form stand-ins for three moments
of the random matrix K = {V(Sigma_hat) - V(Sigma)} V(Sigma)^{-1}:

    b1 ~ E[(tr K)^2],  b2 ~ E[tr(K^2)],  b3 ~ E[tr K].

This module estimates those moments by brute force: simulate datasets from a
fully specified truth, re-estimate the between-study covariance each time,
and average. It exists to validate the analytic formulas, so mc_b_moments
shares only the moment estimator and the D-stack with them. mc_coverage
measures the coverage the corrected region attains rather than checking its
terms, and runs the same replication fit as simlab (_rep_fit, _rep_h).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import _d_stack, _moment_bc_array
from .model import BTerms, DataError, Sym2
from .regions import _rep_fit, _rep_h, chi2_quantile

__all__ = [
    "OracleConfig",
    "rep_stream",
    "mc_b_moments",
    "expansion_coverage",
    "mc_coverage",
]


@dataclass(frozen=True)
class OracleConfig:
    """Frozen simulation design: truth plus a fixed set of within-study variances.

    The within_vars design is deliberately frozen across replications: the
    expectations being estimated are over y given the study designs, so only
    the study summaries are redrawn.
    """

    n: int
    sigma_true: Sym2
    within_vars: tuple[tuple[float, float], ...]
    reps: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "within_vars",
            tuple((float(a), float(b)) for a, b in self.within_vars),
        )
        if self.n < 1:
            raise DataError("need at least one study")
        if len(self.within_vars) != self.n:
            raise DataError(f"within_vars has {len(self.within_vars)} entries, expected n={self.n}")
        if any(a <= 0 or b <= 0 for a, b in self.within_vars):
            raise DataError("within-study variances must be positive")
        if not self.sigma_true.is_psd():
            raise ValueError("sigma_true must be PSD")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")

    def s_array(self) -> np.ndarray:
        return np.asarray(self.within_vars, dtype=float)


def rep_stream(seed: int, rep: int) -> np.random.Generator:
    """Independent random stream for one replication.

    Streams are derived as SeedSequence(entropy=seed, spawn_key=(rep,)) feeding
    the numpy default bit generator, so replication r's draws never depend on
    how many replications run before it or in what order.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def _draw_y(rng: np.random.Generator, chol: np.ndarray) -> np.ndarray:
    """One dataset: two standard normals per study, colored by each D_i's Cholesky factor."""
    z = rng.standard_normal(chol.shape[:1] + (2,))
    return np.einsum("iab,ib->ia", chol, z)


def _v_of(sigma: np.ndarray, s: np.ndarray) -> np.ndarray:
    return np.linalg.inv(np.linalg.inv(_d_stack(s, sigma)).sum(axis=0))


def mc_b_moments(
    cfg: OracleConfig, sigma_hat_override: Sym2 | None = None
) -> tuple[BTerms, tuple[float, float, float]]:
    """Estimate (E[(tr K)^2], E[tr K^2], E[tr K]) and their standard errors.

    Each replication simulates y_i ~ N2(0, sigma_true + S_i) (the mean is
    irrelevant by translation invariance), re-estimates the between-study
    covariance with the bias-corrected moment estimator, and evaluates the
    three traces of K. Replications are accumulated in index order, so a
    given config reproduces bit-identically.

    sigma_hat_override pins the re-estimated covariance to a constant; with
    the truth itself K is identically zero. It exists for validation only and
    has no CLI exposure.
    """
    if cfg.reps < 1000:
        raise ValueError("B-moment estimation needs at least 1000 replications")
    s = cfg.s_array()
    sig_true = cfg.sigma_true.as_array()
    v_true = _v_of(sig_true, s)
    v_true_inv = np.linalg.inv(v_true)

    if sigma_hat_override is not None:
        k = (_v_of(sigma_hat_override.as_array(), s) - v_true) @ v_true_inv
        tr_k = float(np.trace(k))
        tr_k2 = float(np.einsum("ab,ba->", k, k))
        return BTerms(tr_k * tr_k, tr_k2, tr_k), (0.0, 0.0, 0.0)

    chol = np.linalg.cholesky(_d_stack(s, cfg.sigma_true.as_array()))
    stats = np.empty((cfg.reps, 3))
    for r in range(cfg.reps):
        rng = rep_stream(cfg.seed, r)
        y = _draw_y(rng, chol)
        sig_hat, _ = _moment_bc_array(y, s)
        k = (_v_of(sig_hat, s) - v_true) @ v_true_inv
        tr_k = k[0, 0] + k[1, 1]
        stats[r, 0] = tr_k * tr_k
        stats[r, 1] = np.einsum("ab,ba->", k, k)
        stats[r, 2] = tr_k
    means = stats.mean(axis=0)
    ses = stats.std(axis=0, ddof=1) / math.sqrt(cfg.reps)
    return BTerms(*map(float, means)), tuple(map(float, ses))


def expansion_coverage(b: BTerms, h: float, x: float, k: int = 2) -> float:
    """Second-order coverage prediction for the region with threshold x(1 + h).

    Evaluates  F_k(x) + h x f_k(x) + (b1/4 - b2/2 + 2 b3) f_{k+2}(x)
                      - (b1/4 + b2/2) f_{k+4}(x)
    where F_k, f_k are the chi-square(k) CDF and density. When h comes from
    h_adjust the density terms cancel algebraically and the value is exactly
    F_k(x); any other h predicts the miscoverage the correction removes.
    """
    if x <= 0:
        raise ValueError("threshold x must be positive")
    if k == 2:
        e = math.exp(-0.5 * x)
        f_k = 0.5 * e
        f_k2 = 0.25 * x * e
        f_k4 = x * x * e / 16.0
        cdf = 1.0 - e
    else:
        from scipy.stats import chi2

        cdf = float(chi2.cdf(x, k))
        f_k = float(chi2.pdf(x, k))
        f_k2 = float(chi2.pdf(x, k + 2))
        f_k4 = float(chi2.pdf(x, k + 4))
    a = b.b1 / 4.0 - b.b2 / 2.0 + 2.0 * b.b3
    c = b.b1 / 4.0 + b.b2 / 2.0
    return cdf + h * x * f_k + a * f_k2 - c * f_k4


def mc_coverage(
    cfg: OracleConfig, method: str = "ccr", alpha: float = 0.05
) -> tuple[float, float, float]:
    """Empirical coverage of the true mean (0, 0) under the frozen design.

    Returns (coverage, binomial standard error, median h). Each replication
    fits the bias-corrected moment estimator and tests whether the pooled
    mean's quadratic form stays below the method's threshold; for "ncr" the
    threshold is the chi-square quantile and the reported median h is 0. A
    replication whose corrected threshold collapses (1 + h <= 0) counts as
    a miss, since no region exists to cover anything.
    """
    if method not in ("ncr", "ccr"):
        raise ValueError(f"unknown method {method!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if cfg.reps < 100:
        raise ValueError("coverage estimation needs at least 100 replications")

    s = cfg.s_array()
    x = chi2_quantile(alpha, 2)
    chol = np.linalg.cholesky(_d_stack(s, cfg.sigma_true.as_array()))
    hits = 0
    h_values = np.zeros(cfg.reps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in range(cfg.reps):
            rng = rep_stream(cfg.seed, r)
            y = _draw_y(rng, chol)
            q, d, g, a = _rep_fit(y, s)
            if method == "ncr":
                hits += q <= x
            else:
                h = _rep_h(d, g, a, x)
                h_values[r] = h
                if 1.0 + h > 0.0:
                    hits += q <= x * (1.0 + h)
    coverage = hits / cfg.reps
    se = math.sqrt(coverage * (1.0 - coverage) / cfg.reps)
    median_h = float(np.median(h_values)) if method == "ccr" else 0.0
    return coverage, se, median_h
