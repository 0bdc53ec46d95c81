"""Monte Carlo estimators of the expectations the analytic corrections approximate.

The b1, b2, b3 trace statistics are closed-form stand-ins for three moments
of the random matrix K = {V(Sigma_hat) - V(Sigma)} V(Sigma)^{-1}:

    b1 ~ E[(tr K)^2],  b2 ~ E[tr(K^2)],  b3 ~ E[tr K].

This module estimates those moments by brute force: simulate datasets from a
fully specified truth, re-estimate the between-study covariance each time,
and average. It exists to validate the analytic formulas, so mc_b_moments
shares only the moment estimator (_moment_bc_array, _psd_clamp) and the
precision kernel (_precisions) with them, and inverts A into V itself
(_inv2). mc_coverage measures the coverage the corrected region attains
with the public fit run on the stack (regions._rep_fit, which simlab runs
too and which skips the trace terms for the naive region), and reads only
the truth's D_i (_d_stack). So a replication is refused, with the fit's
message, where the fit refuses its D_i, its summed precision A or fewer than
2 studies, but not where V alone fails the rule: the lab checks no V.

Every Monte Carlo loop is one _by_chunk call (simlab makes one per group of
scenarios with equal n, whose chunks may span scenarios): chunks of at most
_CHUNK_ROWS replication x study rows, each run by a step whose columns fill
one preallocated array, so memory stays flat in reps and chunking never
changes a result. A step draws, then fits. The draw reads replication r's
rep_stream(seed, r) as one block of 2n standard normals; the stream states
of a chunk are derived at once and set on one generator in turn
(_stream_states, _normal_blocks, which simlab shares per scenario), and the
block is colored on the whole stack by each D_i's lower Cholesky factor L
from the closed form the fit uses (estimators._chol2), so every truth whose
D_i pass model._all_pd draws; it is written out as y1 = l11 z1 and
y2 = l21 z1 + l22 z2. The fit then runs once on the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import _chol2, _d_stack, _inv2, _moment_bc_array, _precisions, _psd_clamp
from .model import BTerms, DataError, Sym2
from .regions import _rep_fit, chi2_quantile

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
    the study summaries are redrawn. n is the number of design rows.
    """

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
        if not all(0 < a < math.inf and 0 < b < math.inf for a, b in self.within_vars):
            raise DataError("within-study variances must be finite and positive")
        if not self.sigma_true.is_psd():
            raise ValueError("sigma_true must be PSD")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def n(self) -> int:
        return len(self.within_vars)

    def s_array(self) -> np.ndarray:
        return np.asarray(self.within_vars, dtype=float)


def rep_stream(seed: int, rep: int) -> np.random.Generator:
    """Independent random stream for one replication.

    Streams are derived as SeedSequence(entropy=seed, spawn_key=(rep,)) feeding
    the numpy default bit generator, so replication r's draws never depend on
    how many replications run before it or in what order.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


# SeedSequence's hash constants (numpy.random.bit_generator) and PCG64's
# 128-bit LCG multiplier (O'Neill 2014, "PCG", HMC-CS-2014-0905)
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SHIFT = np.uint32(16)


def _hash_consts(start: int, mult: int, done: int, count: int) -> np.ndarray:
    """The count + 1 values a hash constant takes from its value after done hashes on."""
    seq = [start * pow(mult, done, 1 << 32) & _M32]
    for _ in range(count):
        seq.append(seq[-1] * mult & _M32)
    return np.array(seq, dtype=np.uint32)


# generate_state(4, uint64) hashes the four pool words twice over into 8 words
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0, 8)
_STATE_XOR = _STATE_CONSTS[:-1].reshape(2, 4)
_STATE_MUL = _STATE_CONSTS[1:].reshape(2, 4)


def _n_words(value: int) -> int:
    """Number of 32-bit words SeedSequence splits a nonnegative integer into."""
    return max(1, -(-int(value).bit_length() // 32))


def _stream_states(seed: int, reps: range) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of rep_stream(seed, r) for each r in reps (all below 2**64).

    Replays the seeding without building a SeedSequence per replication. The
    pool of SeedSequence(seed) already holds every step that reads only the
    run entropy (entropy shorter than the pool hashes as zero words, with or
    without a spawn key). Spawn key r adds its 32-bit words last, each hashed
    and mixed into all four pool words, the hash constant advancing once per
    hash from where the run entropy left it. generate_state(4, uint64) then
    hashes the pool into a 128-bit seed and increment, and PCG64 seeds with
    two LCG steps.
    """
    run = np.random.SeedSequence(seed)
    if not reps:
        return []
    r = np.arange(reps.start, reps.stop, dtype=np.uint64)
    pool = run.pool
    # the run entropy took 4 hashes to fill the pool, 12 to cross-mix it and 4 per word past 4
    done = 16 + 4 * max(0, _n_words(run.entropy) - 4)
    for k in range(_n_words(reps.stop - 1)):
        consts = _hash_consts(_INIT_A, _MULT_A, done + 4 * k, 4)
        word = (r >> np.uint64(32 * k)).astype(np.uint32)[:, None]
        v = (word ^ consts[:-1]) * consts[1:]
        v ^= v >> _SHIFT
        mixed = pool * _MIX_MULT_L - v * _MIX_MULT_R
        mixed ^= mixed >> _SHIFT
        pool = mixed if k == 0 else np.where(r[:, None] >> np.uint64(32 * k) > 0, mixed, pool)
    words = (pool[:, None, :] ^ _STATE_XOR) * _STATE_MUL
    words ^= words >> _SHIFT
    states = []
    for s_hi, s_lo, i_hi, i_lo in words.reshape(-1, 8).astype("<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, inc))
    return states


def _normal_blocks(seed: int, reps: range, width: int) -> np.ndarray:
    """(R, width) stack whose row j is the first width normals of rep_stream(seed, reps[j]).

    One PCG64 and Generator pair, this call's own, is set to each
    replication's stream state in turn from one state dict whose (state, inc)
    is rewritten per row, so a row costs one state set and one draw call.
    """
    bits = np.random.PCG64(0)
    draw = np.random.Generator(bits).standard_normal
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    lcg = state["state"]
    z = np.empty((len(reps), width))
    for row, (lcg["state"], lcg["inc"]) in zip(z, _stream_states(seed, reps)):
        bits.state = state
        draw(out=row)
    return z


def _draw_stack(cfg: OracleConfig, reps: range, chol: np.ndarray) -> np.ndarray:
    """The (R, n, 2) stack of y for replications reps, each from its own stream.

    A dataset is two standard normals per study, colored by each D_i's
    lower Cholesky factor; the normals are one block per stream, colored in
    place on the whole stack.
    """
    z = _normal_blocks(cfg.seed, reps, 2 * cfg.n).reshape(len(reps), cfg.n, 2)
    z[..., 1] *= chol[:, 1, 1]
    z[..., 1] += chol[:, 1, 0] * z[..., 0]
    z[..., 0] *= chol[:, 0, 0]
    return z


def _k_stats(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """((tr K)^2, tr K^2, tr K) of each K in a (..., 2, 2) stack."""
    k11, k22 = k[..., 0, 0], k[..., 1, 1]
    tr_k = k11 + k22
    return tr_k * tr_k, k11 * k11 + 2 * k[..., 0, 1] * k[..., 1, 0] + k22 * k22, tr_k


# Bound on the replication x study rows one stacked fit holds, so Monte Carlo
# memory stays flat in the replication count.
_CHUNK_ROWS = 16384


def _by_chunk(reps: int, n: int, width: int, step) -> np.ndarray:
    """C-order (reps, width) array whose row r holds replication r's values from step.

    step(chunk) maps a range of consecutive replications, at most _CHUNK_ROWS
    replication x study rows but at least one replication, to width arrays of
    one value per replication.
    """
    out = np.empty((reps, width))
    size = max(1, _CHUNK_ROWS // n)
    for lo in range(0, reps, size):
        chunk = range(lo, min(lo + size, reps))
        out[lo : chunk.stop] = np.column_stack(step(chunk))
    return out


def _coverage(q: np.ndarray, h, x: float) -> tuple[float, float]:
    """(coverage, binomial SE) of R replications' quadratic forms q against thresholds x (1 + h).

    h is (R,) or a scalar (0 for the naive region). A replication whose
    factor 1 + h is not positive counts as a miss: no region exists to cover.
    """
    coverage = float(np.count_nonzero((1.0 + h > 0.0) & (q <= x * (1.0 + h))) / q.size)
    return coverage, math.sqrt(coverage * (1.0 - coverage) / q.size)


def mc_b_moments(
    cfg: OracleConfig, sigma_hat_override: Sym2 | None = None
) -> tuple[BTerms, tuple[float, float, float]]:
    """Estimate (E[(tr K)^2], E[tr K^2], E[tr K]) and their standard errors.

    Each replication simulates y_i ~ N2(0, sigma_true + S_i) (the mean is
    irrelevant by translation invariance), re-estimates the between-study
    covariance with the bias-corrected moment estimator, inverts the summed
    precision A from the shared kernel into V(Sigma_hat), and evaluates the
    three traces of K. Draws and chunks are as the module docstring says, so
    a given config reproduces bit for bit however it is chunked.

    sigma_hat_override pins the re-estimated covariance to a constant; with
    the truth itself K is identically zero. It exists for validation only:
    `validate --preset degenerate` pins it to the truth.
    """
    if cfg.reps < 1000:
        raise ValueError("B-moment estimation needs at least 1000 replications")
    s = cfg.s_array()
    d_true, _, a_true = _precisions(s, cfg.sigma_true.as_array())
    v_true = _inv2(a_true)

    def stats_at(sig_hat: np.ndarray):  # _k_stats of K = (V(Sigma_hat) - V) A
        return _k_stats((_inv2(_precisions(s, sig_hat)[2]) - v_true) @ a_true)

    if sigma_hat_override is not None:
        return BTerms(*map(float, stats_at(sigma_hat_override.as_array()))), (0.0, 0.0, 0.0)

    chol = _chol2(d_true)

    def step(reps: range):
        return stats_at(_psd_clamp(_moment_bc_array(_draw_stack(cfg, reps, chol), s))[0])

    stats = _by_chunk(cfg.reps, cfg.n, 3, step)
    means = stats.mean(axis=0)
    ses = stats.std(axis=0, ddof=1) / math.sqrt(cfg.reps)
    return BTerms(*map(float, means)), tuple(map(float, ses))


def expansion_coverage(b: BTerms, h: float, x: float) -> float:
    """Second-order coverage prediction for the region with threshold x(1 + h).

    Evaluates  F_2(x) + h x f_2(x) + (b1/4 - b2/2 + 2 b3) f_4(x)
                      - (b1/4 + b2/2) f_6(x)
    where F_2 is the chi-square(2) CDF and f_2, f_4, f_6 are the chi-square
    densities with 2, 4 and 6 degrees of freedom, all in closed form. When h
    comes from h_adjust the density terms cancel algebraically and the value
    is exactly F_2(x); any other h predicts the miscoverage the correction removes.
    """
    if not (0 < x < math.inf and math.isfinite(h)):
        raise ValueError("threshold x must be finite and positive, and h finite")
    e = math.exp(-0.5 * x)
    f2, f4, f6 = 0.5 * e, 0.25 * x * e, x * x * e / 16.0
    a = b.b1 / 4.0 - b.b2 / 2.0 + 2.0 * b.b3
    c = b.b1 / 4.0 + b.b2 / 2.0
    return (1.0 - e) + h * x * f2 + a * f4 - c * f6


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
    x = chi2_quantile(alpha)
    if cfg.reps < 100:
        raise ValueError("coverage estimation needs at least 100 replications")

    s = cfg.s_array()
    chol = _chol2(_d_stack(s, cfg.sigma_true.as_array()))
    x_ccr = x if method == "ccr" else None
    q, h = _by_chunk(
        cfg.reps, cfg.n, 2, lambda reps: _rep_fit(_draw_stack(cfg, reps, chol), s, x_ccr)
    ).T
    coverage, se = _coverage(q, h, x)
    return coverage, se, float(np.median(h))
