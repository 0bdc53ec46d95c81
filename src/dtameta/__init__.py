"""Bivariate random-effects meta-analysis of diagnostic test accuracy.

Fits the two-dimensional random-effects model for paired logit sensitivity
and specificity summaries, and builds elliptical confidence regions for the
pooled pair: the naive chi-square region and a corrected region whose
threshold is inflated to account for the estimated between-study covariance.
"""

from . import estimators, model, oracle, regions, simlab, transforms
from .estimators import *
from .model import *
from .oracle import *
from .regions import *
from .simlab import *
from .transforms import *

__version__ = "0.1.0"

__all__ = [
    *estimators.__all__,
    *model.__all__,
    *oracle.__all__,
    *regions.__all__,
    *simlab.__all__,
    *transforms.__all__,
    "__version__",
]
