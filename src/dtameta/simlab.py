"""Deterministic simulation grid for coverage and heterogeneity experiments.

Each scenario draws datasets from the exchangeable truth

    Sigma = [[tau2, tau2*rho], [tau2*rho, tau2]],   beta = (0, 0),

with within-study variances resampled per replication from a truncated
scaled chi-square. The grid reports naive and corrected region coverage,
the median threshold adjustment, and the mean heterogeneity fraction.
"""

from __future__ import annotations

import errno
import io
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import _i2_array
from .model import Dataset, Study
from .oracle import rep_stream
from .regions import _chunks, _rep_fit, _rep_h, chi2_quantile

__all__ = [
    "Scenario",
    "GridResult",
    "gen_within_variances",
    "gen_dataset",
    "run_grid",
    "grid_to_csv",
    "write_grid_csv",
]

GRID_CSV_HEADER = "tau2,rho,n,reps,alpha,coverage_ncr,coverage_ccr,median_h,mean_i2,mc_se"

_VAR_LO = 0.009
_VAR_HI = 0.6
_MAX_REJECTION_BATCHES = 10_000


@dataclass(frozen=True)
class Scenario:
    """One cell of the simulation grid."""

    tau2: float
    rho: float
    n: int
    reps: int
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tau2 < 0:
            raise ValueError("tau2 must be nonnegative")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if self.n < 2:
            raise ValueError("need at least 2 studies per dataset")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


@dataclass(frozen=True)
class GridResult:
    """Per-scenario summary statistics."""

    scenario: Scenario
    coverage_ncr: float
    coverage_ccr: float
    median_h: float
    mean_i2: float
    mc_se: float

    def __post_init__(self) -> None:
        for name in ("coverage_ncr", "coverage_ccr", "mean_i2"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name}={val} outside [0, 1]")


def gen_within_variances(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n pairs of within-study variances, shape (n, 2).

    Each variance is 0.25 * Z^2 for standard normal Z, redrawn until it lands
    in [0.009, 0.6] (rejection, acceptance probability about 0.81; no point
    mass at the interval ends). Column order is fixed: the first column is
    filled completely before the second, with candidates generated n at a
    time and surplus accepted values of the final batch discarded, so draws
    are reproducible for a given generator state.
    """
    if n < 1:
        raise ValueError("need at least one study")
    out = np.empty((n, 2))
    for col in range(2):
        filled = 0
        batches = 0
        while filled < n:
            if batches >= _MAX_REJECTION_BATCHES:
                raise RuntimeError("rejection sampling failed to fill the design")
            batches += 1
            cand = 0.25 * rng.standard_normal(n) ** 2
            ok = cand[(cand >= _VAR_LO) & (cand <= _VAR_HI)]
            take = min(ok.size, n - filled)
            out[filled : filled + take, col] = ok[:take]
            filled += take
    return out


def _sigma_chol(tau2: float, rho: float) -> np.ndarray:
    """Closed-form Cholesky factor of [[t, t*r], [t*r, t]]; exact at tau2 = 0."""
    tau = math.sqrt(tau2)
    return tau * np.array([[1.0, 0.0], [rho, math.sqrt(1.0 - rho * rho)]])


def _draw(sc: Scenario, rep: int, chol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y, s) arrays, each (n, 2), of replication rep; chol is _sigma_chol of the scenario."""
    rng = rep_stream(sc.seed, rep)
    sv = gen_within_variances(sc.n, rng)
    mu = rng.standard_normal((sc.n, 2)) @ chol.T
    y = mu + np.sqrt(sv) * rng.standard_normal((sc.n, 2))
    return y, sv


def gen_dataset(s: Scenario, rep: int) -> Dataset:
    """Simulate one dataset, deterministic in (s.seed, rep).

    The replication stream (see rep_stream) is consumed in a fixed order:
    within-study variances first, then the (n, 2) block of random effects
    mu_i ~ N2(0, Sigma), then the (n, 2) block of within-study noise, giving
    y_i = mu_i + e_i ~ N2(0, Sigma + S_i).
    """
    y, sv = _draw(s, rep, _sigma_chol(s.tau2, s.rho))
    studies = tuple(
        Study(y_a=y[i, 0], y_b=y[i, 1], s_a=sv[i, 0], s_b=sv[i, 1], id=f"r{rep}s{i + 1:02d}")
        for i in range(s.n)
    )
    return Dataset(studies)


def _run_scenario(sc: Scenario) -> GridResult:
    x = chi2_quantile(sc.alpha, 2)
    chol = _sigma_chol(sc.tau2, sc.rho)
    q = np.empty(sc.reps)
    h = np.empty(sc.reps)
    i2 = np.empty(sc.reps)
    for reps in _chunks(sc.reps, sc.n):
        y = np.empty((len(reps), sc.n, 2))
        s = np.empty_like(y)
        for j, r in enumerate(reps):
            y[j], s[j] = _draw(sc, r, chol)
        rows = slice(reps.start, reps.stop)
        q[rows], d, g, a = _rep_fit(y, s)
        h[rows] = _rep_h(d, g, a, x)
        i2[rows] = _i2_array(s[..., 0], sc.tau2)
    coverage_ncr = np.count_nonzero(q <= x) / sc.reps
    coverage_ccr = np.count_nonzero((1.0 + h > 0.0) & (q <= x * (1.0 + h))) / sc.reps
    return GridResult(
        scenario=sc,
        coverage_ncr=coverage_ncr,
        coverage_ccr=coverage_ccr,
        median_h=float(np.median(h)),
        mean_i2=float(i2.mean()),
        mc_se=math.sqrt(coverage_ccr * (1.0 - coverage_ccr) / sc.reps),
    )


def run_grid(scenarios: Sequence[Scenario]) -> list[GridResult]:
    """Run every scenario and return results in input order.

    Each scenario runs in two phases per chunk of replications. A draw loop
    fills (R, n, 2) stacks of y and s, replication r from its own
    (seed, r) stream; the moment fit, GLS, trace terms and h then run once
    on the stacked arrays. A chunk holds a fixed bound of replication x study
    rows, so memory does not grow with reps, and no replication's numbers
    depend on the chunk it lands in: results are independent of chunking
    and of scenario order, and reproduce exactly for a fixed grid. The
    heterogeneity fraction is computed for each replication from its drawn
    sensitivity-arm variances and the scenario's true tau2, then averaged.
    The reported Monte Carlo standard error is the binomial SE of the
    corrected-region coverage.
    """
    if len(scenarios) == 0:
        raise ValueError("empty scenario grid")
    return [_run_scenario(sc) for sc in scenarios]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def grid_to_csv(results: Sequence[GridResult]) -> str:
    """Render results as CSV, one row per scenario, floats at 6 significant digits."""
    buf = io.StringIO()
    buf.write(GRID_CSV_HEADER + "\n")
    for res in results:
        sc = res.scenario
        row = [
            _fmt(sc.tau2),
            _fmt(sc.rho),
            str(sc.n),
            str(sc.reps),
            _fmt(sc.alpha),
            _fmt(res.coverage_ncr),
            _fmt(res.coverage_ccr),
            _fmt(res.median_h),
            _fmt(res.mean_i2),
            _fmt(res.mc_se),
        ]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _write_atomic(files: Sequence[tuple[str, str]]) -> None:
    """Write each (path, text) pair via a temp file in the target's directory and a rename.

    Every temp file is written before the first rename, and a target that is
    an existing directory (onto which a rename would fail) is rejected while
    staging, so a failed call leaves no target touched. On failure every temp
    file is removed and the OSError is raised again with the target path as
    its filename.
    """
    staged: list[str] = []
    target = None
    try:
        for target, text in files:
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(target)), suffix=".tmp")
            staged.append(tmp)
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        for tmp, (target, _) in zip(staged, files):
            os.replace(tmp, target)
    except BaseException as exc:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, target) from exc
        raise


def write_grid_csv(results: Sequence[GridResult], path: str) -> None:
    """Write the grid CSV atomically (temp file in the target directory, then rename)."""
    _write_atomic([(path, grid_to_csv(results))])
