"""Scale transforms between probabilities, logits, and ROC coordinates."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import DataError, Study, Sym2

__all__ = ["logit", "expit", "summarize_counts", "to_roc_space", "sroc_curve"]


def logit(p: float) -> float:
    """Log odds of p. Defined for 0 < p < 1 only."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"logit requires 0 < p < 1, got {p}")
    return math.log(p / (1.0 - p))


def expit(x: float) -> float:
    """Inverse of logit, numerically stable for large |x|."""
    return float(_expit(np.float64(x)))


def _expit(x: np.ndarray) -> np.ndarray:
    """expit elementwise: exp of -|x| only, so nothing overflows and no warning is raised."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def summarize_counts(tp: int, fn: int, fp: int, tn: int, id: str = "") -> Study:
    """Build a logit-scale study summary from a 2x2 table of counts.

    The continuity correction 0.5 is added to all four cells if and only if at
    least one cell is zero. Within-study variances come from the usual
    delta-method formula 1/a + 1/b on each margin.
    """
    counts = (tp, fn, fp, tn)
    if any(c < 0 for c in counts):
        raise ValueError(f"negative count in {counts}")
    if tp + fn == 0 or fp + tn == 0:
        raise DataError(f"study {id!r}: empty margin in counts {counts}")
    if any(c == 0 for c in counts):
        tp, fn, fp, tn = (c + 0.5 for c in counts)
    y_a = logit(tp / (tp + fn))
    s_a = 1.0 / tp + 1.0 / fn
    y_b = logit(tn / (tn + fp))
    s_b = 1.0 / tn + 1.0 / fp
    return Study(y_a=y_a, y_b=y_b, s_a=s_a, s_b=s_b, id=id)


def to_roc_space(points: Sequence[Sequence[float]]) -> np.ndarray:
    """Map logit-scale points (u, v) to an (m, 2) array of ROC coordinates (fpr, sensitivity).

    u is logit sensitivity and v logit specificity, so fpr = 1 - expit(v).
    """
    p = np.asarray(points, dtype=float)
    if p.size and p.shape[1:] != (2,):
        raise ValueError(f"expected (u, v) pairs, got an array of shape {p.shape}")
    p = p.reshape(-1, 2)
    return np.column_stack([1.0 - _expit(p[:, 1]), _expit(p[:, 0])])


def sroc_curve(beta: Sequence[float], sigma: Sym2, fpr_grid: Sequence[float]) -> np.ndarray:
    """Summary ROC curve induced by the fitted means and covariance, as an (m, 2) array.

    At false positive rate t the specificity logit is mu_b = logit(1 - t) and
    the predicted sensitivity follows the regression of the first component on
    the second: expit(beta_a + (sigma12/sigma22) (mu_b - beta_b)). The curve
    passes through the summary point and is monotone in t when sigma12 > 0.
    Row k is (fpr_grid[k], sensitivity).
    """
    if sigma.a22 <= 0:
        raise ValueError("sroc_curve requires a positive specificity variance component")
    t = np.asarray(fpr_grid, dtype=float)
    bad = ~((t > 0.0) & (t < 1.0))
    if bad.any():
        raise ValueError(f"fpr grid point {float(t[bad][0])} outside (0, 1)")
    mu_b = np.log((1.0 - t) / (1.0 - (1.0 - t)))  # logit(1 - t), rounded as logit rounds it
    sens = _expit(float(beta[0]) + sigma.a12 / sigma.a22 * (mu_b - float(beta[1])))
    return np.column_stack([t, sens])
