"""The policy of every Monte Carlo gate: a mean over M repetitions must
lie within 3 standard errors plus a stated allowance of its target.  Each
gate keeps its own statistic, target, allowance and comparison.
"""

import math

import numpy as np

from .errors import InvalidArgumentError, NumericOverflowError

__all__ = ["mean_se", "tolerance", "require_allowance"]


def mean_se(values) -> tuple[float, float]:
    """The mean of ``values`` and its standard error std(ddof=1) / sqrt(M),
    0.0 for one value; a non-finite mean or SE raises
    ``NumericOverflowError``."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    se = 0.0
    if math.isfinite(mean) and values.size > 1:  # an infinite value's deviation is NaN
        se = float(values.std(ddof=1) / np.sqrt(values.size))
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NumericOverflowError("non-finite Monte Carlo mean or standard error")
    return mean, se


def tolerance(se: float, allowance: float = 0.0) -> float:
    """The gate's half-width: 3 standard errors plus ``allowance``."""
    return 3.0 * se + allowance


def require_allowance(name: str, value: float) -> None:
    """Refuse a negative, NaN or infinite allowance: the first makes a
    gate that cannot pass, the last one that cannot fail."""
    if not 0 <= value < math.inf:
        raise InvalidArgumentError(f"{name} must be nonnegative and finite, got {value!r}")
