"""Weighted quadratic-variation sums of scalar paths.

The central statistic is sum_i H_{t_{i-1}} dX_i dXhat_i for a scalar
weight process H held constant on each grid cell, with both paths on
the weights' grid.  For a path with a known bracket the statistic
converges (in L1, as the mesh shrinks) to the bracket integral;
``lemma_convergence_study`` measures that error empirically over
independent paths.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .paths import Partition, RngStream, SamplePath

__all__ = [
    "WeightProcess",
    "realized_qv",
    "weighted_qv_sum",
    "constant_weight",
    "sampled_weight",
    "LemmaStudyRow",
    "LemmaStudy",
    "lemma_convergence_study",
]


def realized_qv(path: SamplePath) -> float:
    """Sum of squared increments along the path's own grid."""
    inc = path.increments()
    return float(np.sum(inc * inc))


@dataclass(frozen=True)
class WeightProcess:
    """Scalar weights held constant on each cell (value at the left endpoint)."""

    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.shape[0] != self.partition.num_cells:
            raise InvalidArgumentError("one scalar weight per cell required")
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("weights must be finite")


def constant_weight(partition: Partition, value: float = 1.0) -> WeightProcess:
    return WeightProcess(partition, np.full(partition.num_cells, float(value)))


def sampled_weight(partition: Partition, fn: Callable[[float], float]) -> WeightProcess:
    """Weights sampled at left endpoints, H_i = fn(t_{i-1})."""
    return WeightProcess(partition, np.array([fn(t) for t in partition.times[:-1]]))


def weighted_qv_sum(weights: WeightProcess, path: SamplePath, other: SamplePath | None = None) -> float:
    """sum_i H_{t_{i-1}} dX_i dXhat_i along the weights' grid.

    With ``other`` omitted this is the weighted realized quadratic
    variation; with an independent second path it estimates the cross
    variation.  Both paths must lie on the weights' grid.
    """
    xhat = other if other is not None else path
    for q in (path, xhat):
        if not np.array_equal(q.partition.times, weights.partition.times):
            raise InvalidArgumentError("paths must lie on the weights' grid")
    return float(np.sum(weights.values * path.increments() * xhat.increments()))


@dataclass(frozen=True)
class LemmaStudyRow:
    num_cells: int
    mean_abs_error: float
    stderr: float
    ratio_vs_coarser: float | None
    ratio_ok: bool | None


@dataclass(frozen=True)
class LemmaStudy:
    rows: tuple[LemmaStudyRow, ...]

    def all_ratios_ok(self) -> bool:
        checked = [r.ratio_ok for r in self.rows if r.ratio_ok is not None]
        return bool(checked) and all(checked)


def lemma_convergence_study(
    path_generator: Callable[[Partition, RngStream], SamplePath],
    weight_generator: Callable[[Partition], WeightProcess],
    cell_counts: Sequence[int],
    num_seeds: int,
    horizon: float,
    limit: float | Callable[[Partition], float],
    rng: RngStream,
    ratio_band: tuple[float, float] = (1.3, 3.0),
) -> LemmaStudy:
    """L1 error of the weighted QV sum against its analytic limit.

    For each grid size, ``num_seeds`` independent paths are generated and
    the mean absolute deviation from ``limit`` is reported with its
    standard error.  Consecutive sizes that quadruple the cell count get
    a ratio flag: mean error ratio inside ``ratio_band`` (target 2 for a
    rate-1/2 statistic).
    """
    if not cell_counts:
        raise InvalidArgumentError("cell_counts must be nonempty")
    rows: list[LemmaStudyRow] = []
    prev: tuple[int, float] | None = None
    for j, n in enumerate(cell_counts):
        part = Partition(np.linspace(0.0, horizon, n + 1))
        target = limit(part) if callable(limit) else float(limit)
        weights = weight_generator(part)
        errs = np.empty(num_seeds)
        for s in range(num_seeds):
            path = path_generator(part, rng.child(j, s))
            errs[s] = abs(weighted_qv_sum(weights, path) - target)
        mean_err = float(errs.mean())
        se = float(errs.std(ddof=1) / np.sqrt(num_seeds)) if num_seeds > 1 else 0.0
        ratio = ok = None
        if prev is not None and n == 4 * prev[0] and mean_err > 0:
            ratio = prev[1] / mean_err
            ok = ratio_band[0] <= ratio <= ratio_band[1]
        rows.append(LemmaStudyRow(n, mean_err, se, ratio, ok))
        prev = (n, mean_err)
    return LemmaStudy(tuple(rows))
