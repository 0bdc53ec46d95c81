"""Deterministic simulation grid for coverage and heterogeneity experiments.

Each scenario draws datasets from the exchangeable truth

    Sigma = [[tau2, tau2*rho], [tau2*rho, tau2]],   beta = (0, 0),

with within-study variances resampled per replication from a truncated
scaled chi-square. The grid reports naive and corrected region coverage,
the median threshold adjustment, and the mean heterogeneity fraction.
The module does no I/O: grid_to_csv renders the CSV text, and the command
line (cli._emit) writes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import _i2_array
from .model import Dataset, Study
from .oracle import _by_chunk, _coverage, _normal_blocks, rep_stream
from .regions import _rep_fit, chi2_quantile

__all__ = [
    "Scenario",
    "GridResult",
    "gen_within_variances",
    "gen_dataset",
    "run_grid",
    "grid_to_csv",
]

# CSV columns in order: Scenario fields, then GridResult fields of the same name
_GRID_COLUMNS = (
    "tau2", "rho", "n", "reps", "alpha",
    "coverage_ncr", "coverage_ccr", "median_h", "mean_i2", "mc_se",
)
GRID_CSV_HEADER = ",".join(_GRID_COLUMNS)

_VAR_LO = 0.009
_VAR_HI = 0.6
_MAX_REJECTION_BATCHES = 10_000
# A replication reads one batch of n normals per rejection round of each
# variance column, then 2n for mu and 2n for the noise. A candidate is kept
# with probability 2 (Phi(sqrt 2.4) - Phi(sqrt 0.036)) = 0.728, so a column
# mostly fills in two rounds, and a block of 10 batches covers all but a few
# replications in ten thousand; those are drawn again by _draw.
_BLOCK_BATCHES = 10


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
        if not 0 <= self.tau2 < math.inf:
            raise ValueError("tau2 must be finite and nonnegative")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if self.n < 2:
            raise ValueError("need at least 2 studies per dataset")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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
    in [0.009, 0.6] (rejection, acceptance probability 0.728; no point
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


def _draw_block(sc: Scenario, reps: range, chol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y, s) stacks, each (R, n, 2), of replications reps: row j is _draw(sc, reps[j], chol).

    numpy draws normals sequentially, so one call for _BLOCK_BATCHES * n of
    them holds every value _draw reads, in the same order. The rejection
    bookkeeping then runs on the whole stack: cumulative accepted counts at
    each batch end give the batch that fills each variance column, masks
    gather the accepted variances, and mu and the noise are the 4n normals
    that follow. Rows whose block runs short are drawn by _draw.
    """
    n, width = sc.n, _BLOCK_BATCHES * sc.n
    z = _normal_blocks(sc.seed, reps, width)
    cand = 0.25 * z**2
    ok = (cand >= _VAR_LO) & (cand <= _VAR_HI)
    seen = np.cumsum(ok, axis=1)
    # accepted counts at each batch end; column 0 fills at batch last0, column 1 at last1
    at_end = seen[:, n - 1 :: n]
    last0 = np.argmax(at_end >= n, axis=1)[:, None]
    seen0 = np.take_along_axis(at_end, last0, axis=1)
    filled1 = at_end - seen0 >= n
    last1 = np.argmax(filled1, axis=1)[:, None]
    # short: a column never fills, or mu and the noise run past the block
    short = (seen0[:, 0] < n) | ~filled1.any(axis=1) | (last1[:, 0] + 5 > _BLOCK_BATCHES)
    # a basic slice keeps the common all-rows case free of copies
    good = np.flatnonzero(~short) if short.any() else slice(None)
    cand, ok, seen, seen0 = cand[good], ok[good], seen[good], seen0[good]
    col1 = np.arange(width) >= n * (last0[good] + 1)
    s = np.empty((len(reps), n, 2))
    s[good, :, 0] = cand[ok & (seen <= n)].reshape(-1, n)
    s[good, :, 1] = cand[ok & col1 & (seen - seen0 <= n)].reshape(-1, n)
    first = n * (last1 + 1) + width * np.arange(len(reps))[:, None]
    tail = z.ravel()[first[good] + np.arange(4 * n)]
    y = np.empty_like(s)
    y[good] = tail[:, : 2 * n].reshape(-1, n, 2) @ chol.T
    y[good] += np.sqrt(s[good]) * tail[:, 2 * n :].reshape(-1, n, 2)
    for j in np.flatnonzero(short):
        y[j], s[j] = _draw(sc, reps[j], chol)
    return y, s


def _run_scenario(sc: Scenario) -> GridResult:
    x = chi2_quantile(sc.alpha)
    chol = _sigma_chol(sc.tau2, sc.rho)

    def step(reps: range):
        y, s = _draw_block(sc, reps, chol)
        return (*_rep_fit(y, s, x), _i2_array(s[..., 0], sc.tau2))

    q, h, i2 = _by_chunk(sc.reps, sc.n, 3, step).T
    coverage_ncr, _ = _coverage(q, 0.0, x)
    coverage_ccr, mc_se = _coverage(q, h, x)
    return GridResult(
        scenario=sc,
        coverage_ncr=coverage_ncr,
        coverage_ccr=coverage_ccr,
        median_h=float(np.median(h)),
        mean_i2=float(i2.mean()),
        mc_se=mc_se,
    )


def run_grid(scenarios: Sequence[Scenario]) -> list[GridResult]:
    """Run every scenario and return results in input order.

    Each scenario is one oracle._by_chunk loop, which bounds the replication
    x study rows of a chunk, so memory does not grow with reps. Each chunk
    runs in two phases. The draw reads replication r's own (seed, r) stream
    as one block of standard normals; the streams of a chunk are derived
    together and set in turn on one generator. The rejection-sampled
    variances, mu and the noise are read off the stacked blocks in stream
    order, and the moment fit, GLS, trace terms and h (regions._rep_fit, the
    public fit on a stack, which mc_coverage runs too) then run once on the
    (R, n, 2) stacks of y and s.
    No replication's numbers depend on the chunk it lands in: results are
    independent of chunking and of scenario order, and reproduce exactly
    for a fixed grid. The heterogeneity fraction is computed for each
    replication from its drawn sensitivity-arm variances and the scenario's
    true tau2, then averaged.
    The reported Monte Carlo standard error is the binomial SE of the
    corrected-region coverage.
    """
    if len(scenarios) == 0:
        raise ValueError("empty scenario grid")
    return [_run_scenario(sc) for sc in scenarios]


def grid_to_csv(results: Sequence[GridResult]) -> str:
    """Render results as CSV, one row per scenario, floats at 6 significant digits."""
    lines = [GRID_CSV_HEADER]
    for res in results:
        row = {**vars(res.scenario), **vars(res)}
        lines.append(
            ",".join(str(row[c]) if c in ("n", "reps") else f"{row[c]:.6g}" for c in _GRID_COLUMNS)
        )
    return "\n".join(lines) + "\n"
