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
from .oracle import _by_chunk, _coverage, _normal_blocks, _stream_words, rep_stream
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
# Largest tau2 a scenario takes: the fit squares estimates that can exceed tau2
# several times over, and squares near sqrt(DBL_MAX) = 1.3e154 overflow.
_TAU2_MAX = 1e150


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
        if not 0 <= self.tau2 <= _TAU2_MAX:
            raise ValueError(f"tau2 must lie in [0, {_TAU2_MAX:g}], got {self.tau2!r}")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if self.n < 2:
            raise ValueError("need at least 2 studies per dataset")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        chi2_quantile(self.alpha)  # raises ValueError unless 0 < alpha < 1
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


def _draw_block(parts: Sequence[tuple[Scenario, range]]) -> tuple[np.ndarray, np.ndarray]:
    """(y, s) stacks, each (R, n, 2), of the replications of parts, scenarios of one n, in order.

    The rows of part (sc, reps) are _draw(sc, r, _sigma_chol(sc.tau2, sc.rho))
    for r in reps. All parts' rows are drawn into one block, whose row of
    _BLOCK_BATCHES * n normals holds every value _draw reads, in its order.
    The rejection bookkeeping then runs once on the whole stack:
    cumulative accepted counts at each batch end give the batch that fills
    each variance column, masks gather the accepted variances, and mu and the
    noise are the 4n normals that follow, mu colored by its row's own factor.
    Rows whose block runs short are drawn by _draw.
    """
    n, width = parts[0][0].n, _BLOCK_BATCHES * parts[0][0].n
    sizes = [len(reps) for _, reps in parts]
    z = _normal_blocks(np.concatenate([_stream_words(sc.seed, reps) for sc, reps in parts]), width)
    chol = np.repeat([_sigma_chol(sc.tau2, sc.rho) for sc, _ in parts], sizes, axis=0)
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
    s = np.empty((len(z), n, 2))
    s[good, :, 0] = cand[ok & (seen <= n)].reshape(-1, n)
    s[good, :, 1] = cand[ok & col1 & (seen - seen0 <= n)].reshape(-1, n)
    first = n * (last1 + 1) + width * np.arange(len(z))[:, None]
    tail = z.ravel()[first[good] + np.arange(4 * n)]
    y = np.empty_like(s)
    y[good] = tail[:, : 2 * n].reshape(-1, n, 2) @ np.swapaxes(chol[good], 1, 2)
    y[good] += np.sqrt(s[good]) * tail[:, 2 * n :].reshape(-1, n, 2)
    if short.any():
        rows = [(sc, r) for sc, reps in parts for r in reps]
        for j in np.flatnonzero(short):
            y[j], s[j] = _draw(*rows[j], chol[j])
    return y, s


def _run_group(group: Sequence[Scenario]) -> list[GridResult]:
    """Results of scenarios of one n and alpha, their replications laid end to end."""
    x = chi2_quantile(group[0].alpha)
    starts = np.cumsum([0] + [sc.reps for sc in group]).tolist()

    def step(chunk: range):  # a chunk may span scenarios: it draws and fits its part of each
        parts = [
            (sc, part)
            for sc, lo in zip(group, starts)
            if (part := range(max(chunk.start - lo, 0), min(chunk.stop - lo, sc.reps)))
        ]
        y, s = _draw_block(parts)
        tau2 = np.repeat([sc.tau2 for sc, _ in parts], [len(part) for _, part in parts])
        return (*_rep_fit(y, s, x), _i2_array(s[..., 0], tau2))

    stats = _by_chunk(starts[-1], group[0].n, 3, step)
    results = []
    for sc, lo in zip(group, starts):
        q, h, i2 = stats[lo : lo + sc.reps].T
        coverage_ncr, _ = _coverage(q, 0.0, x)
        coverage_ccr, mc_se = _coverage(q, h, x)
        median_h, mean_i2 = float(np.median(h)), float(i2.mean())
        results.append(GridResult(sc, coverage_ncr, coverage_ccr, median_h, mean_i2, mc_se))
    return results


def run_grid(scenarios: Sequence[Scenario]) -> list[GridResult]:
    """Run every scenario and return results in input order.

    Scenarios of equal n and alpha form a group, and each group is one
    oracle._by_chunk loop over its scenarios' replications laid end to end,
    so a chunk may hold the last replications of one scenario and the first
    of the next. _by_chunk bounds a chunk's replication x study rows, so the
    stacks do not grow with reps; only the three floats kept per replication
    do. Each chunk runs in two phases. The draw reads replication r of a
    scenario from its own (seed, r) stream as one block of standard normals;
    numpy's PCG64 seeds each row from words hashed together for the chunk's
    part of a scenario. The rejection-sampled variances, mu (colored by its
    own scenario's Sigma) and the noise are read off the stacked blocks in
    stream order, and the moment fit, GLS, trace terms and h
    (regions._rep_fit, the public fit on a stack, which mc_coverage runs
    too) then run once on the (R, n, 2) stacks of y and s.
    No replication's numbers depend on the chunk it lands in: results are
    independent of chunking and of the grid's composition and order, and
    reproduce exactly for a fixed grid. The heterogeneity fraction is
    computed for each replication from its drawn sensitivity-arm variances
    and the scenario's true tau2, then averaged.
    The reported Monte Carlo standard error is the binomial SE of the
    corrected-region coverage.
    """
    if len(scenarios) == 0:
        raise ValueError("empty scenario grid")
    groups: dict[tuple[int, float], list[Scenario]] = {}
    for sc in scenarios:
        groups.setdefault((sc.n, sc.alpha), []).append(sc)
    # each group's results are in its scenarios' input order
    results = {key: iter(_run_group(group)) for key, group in groups.items()}
    return [next(results[sc.n, sc.alpha]) for sc in scenarios]


def grid_to_csv(results: Sequence[GridResult]) -> str:
    """Render results as CSV, one row per scenario, floats at 6 significant digits."""
    lines = [GRID_CSV_HEADER]
    for res in results:
        row = {**vars(res.scenario), **vars(res)}
        lines.append(
            ",".join(str(row[c]) if c in ("n", "reps") else f"{row[c]:.6g}" for c in _GRID_COLUMNS)
        )
    return "\n".join(lines) + "\n"
