"""Core data types for bivariate diagnostic-accuracy meta-analysis.

Every study contributes a pair of logit-scale summaries (sensitivity and
specificity) together with their within-study variances. The 2x2 symmetric
matrices that appear throughout (between-study covariance, within-study
covariance, precision of the pooled estimate) share one small value type,
``Sym2``, so that PSD checks and array conversion live in a single place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Study",
    "Dataset",
    "Sym2",
    "BTerms",
    "FitResult",
    "ConfidenceRegion",
    "DataError",
    "RegionUndefinedError",
    "PsdProjectionWarning",
    "RemlConvergenceWarning",
    "AdjustmentMagnitudeWarning",
]


def _det2(m: np.ndarray) -> np.ndarray:
    """Determinant m11 m22 - m12 m21 of each 2x2 of a (..., 2, 2) stack."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _all_pd(m: np.ndarray) -> bool:
    """Whether every 2x2 of a (..., 2, 2) stack has m11 > 0 and 0 < det < inf; NaN fails.

    A matrix that passes has _chol2's closed-form factor, which reads this _det2.
    """
    det = _det2(m)
    ok = np.minimum(m[..., 0, 0], det).min(initial=math.inf) > 0
    return bool(ok and det.max(initial=0.0) < math.inf)


class DataError(ValueError):
    """Raised when a dataset violates a structural precondition."""


class RegionUndefinedError(ValueError):
    """Raised when a region's threshold x (1 + h) is not a positive finite number."""


class PsdProjectionWarning(UserWarning):
    """Emitted when eigenvalue clamping actually changed a covariance estimate."""


class RemlConvergenceWarning(UserWarning):
    """Emitted when the REML optimizer stopped before meeting its tolerance."""


class AdjustmentMagnitudeWarning(UserWarning):
    """Emitted when |h| > 1, i.e. the correction is outside its trustworthy range."""


@dataclass(frozen=True)
class Study:
    """One study's logit-scale summary.

    y_a, y_b are logit sensitivity and logit specificity; s_a, s_b are the
    corresponding within-study variances (stored as variances, not standard
    errors). The id is a free-form label used in error messages and plots.
    """

    y_a: float
    y_b: float
    s_a: float
    s_b: float
    id: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.y_a) and math.isfinite(self.y_b)):
            raise DataError(f"study {self.id!r}: non-finite logit summary")
        if not (0 < self.s_a < math.inf and 0 < self.s_b < math.inf):
            raise DataError(
                f"study {self.id!r}: within-study variances must be finite and positive"
            )


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of studies. Order is stable and defines summation order."""

    studies: tuple[Study, ...]

    def __init__(self, studies: Iterable[Study]):
        object.__setattr__(self, "studies", tuple(studies))

    @property
    def n(self) -> int:
        return len(self.studies)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (y, s) as read-only float arrays of shape (n, 2), built on the first call."""
        cached = self.__dict__.get("_arrays")
        if cached is None:
            y = np.array([(st.y_a, st.y_b) for st in self.studies], dtype=float).reshape(-1, 2)
            s = np.array([(st.s_a, st.s_b) for st in self.studies], dtype=float).reshape(-1, 2)
            y.flags.writeable = False
            s.flags.writeable = False
            cached = (y, s)
            object.__setattr__(self, "_arrays", cached)
        return cached


@dataclass(frozen=True)
class Sym2:
    """Symmetric 2x2 matrix stored as its three free entries."""

    a11: float
    a12: float
    a22: float

    @classmethod
    def from_array(cls, m: np.ndarray) -> Sym2:
        m = np.asarray(m, dtype=float)
        return cls(float(m[0, 0]), float(0.5 * (m[0, 1] + m[1, 0])), float(m[1, 1]))

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]], dtype=float)

    def eigenvalues(self) -> tuple[float, float]:
        """Eigenvalues in ascending order, by the closed form for 2x2 symmetric."""
        half_trace = 0.5 * (self.a11 + self.a22)
        disc = math.sqrt(max(0.25 * (self.a11 - self.a22) ** 2 + self.a12**2, 0.0))
        return (half_trace - disc, half_trace + disc)

    def is_psd(self) -> bool:
        """Whether the smaller eigenvalue is at least -1e-10 times the larger |eigenvalue|.

        The tolerance is relative, so the verdict does not change with the
        matrix's scale; the zero matrix passes.
        """
        lo, hi = self.eigenvalues()
        return lo >= -1e-10 * max(-lo, hi)

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a12


@dataclass(frozen=True)
class BTerms:
    """The three O(1/n) trace moments driving the coverage correction.

    b1 and b2 approximate expectations of squares, so implementations are
    expected to deliver them nonnegative up to numerical noise.
    """

    b1: float
    b2: float
    b3: float

    def __post_init__(self) -> None:
        for name in ("b1", "b2", "b3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} is not finite")


@dataclass(frozen=True)
class FitResult:
    """Pooled estimate with its covariance machinery.

    beta is the pooled (logit sensitivity, logit specificity) pair; sigma the
    estimated between-study covariance; v the covariance of beta. h and b are
    present only when the correction terms were evaluated.
    """

    beta: tuple[float, float]
    sigma: Sym2
    v: Sym2
    estimator: str  # "moment_bc" or "reml"
    h: float | None = None
    b: BTerms | None = None


@dataclass(frozen=True)
class ConfidenceRegion:
    """Elliptical confidence region {b : (c-b)' shape^{-1} (c-b) <= threshold}.

    For the naive region h is 0 and threshold equals the chi-square quantile;
    the corrected region scales the threshold by (1 + h).
    """

    center: tuple[float, float]
    shape: Sym2
    threshold: float
    h: float
    alpha: float
    method: str  # "ncr" or "ccr"

    def __post_init__(self) -> None:
        if not 0 < self.threshold < math.inf:
            raise RegionUndefinedError(
                f"region threshold {self.threshold:.4g} is not a positive finite number "
                f"(threshold factor 1 + h = {1.0 + self.h:.4g})"
            )
        if not _all_pd(self.shape.as_array()):
            raise ValueError("region shape matrix must be positive definite")
        if self.method == "ncr" and self.h != 0.0:
            raise ValueError("naive region must carry h = 0")
