"""Weighted quadratic-variation sums of scalar paths.

The central statistic is sum_i H_{t_{i-1}} dX_i dXhat_i for a scalar
weight process H held constant on each grid cell, with both paths on
the weights' grid.  For a path with a known bracket the statistic
converges (in L1, as the mesh shrinks) to the bracket integral;
``lemma_convergence_study`` measures that error empirically over
independent paths.

``convergence_study`` is the one refinement study of the package: it
runs a list of cells, flags the error ratio of each cell whose n
quadruples an earlier one's, and fails when no ratio was checked.  The
lemma study and the CLI's ``sweep`` mode over the chain-rule verifiers
are its two callers.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _gate
from .errors import InvalidArgumentError
from .paths import Partition, RngStream, SamplePath

__all__ = [
    "WeightProcess",
    "weighted_qv_sum",
    "constant_weight",
    "sampled_weight",
    "StudyRow",
    "ConvergenceStudy",
    "convergence_study",
    "lemma_convergence_study",
]


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


# a ratio compares two mean errors only when both lie above this floor:
# errors at roundoff carry no rate, and their ratio is noise
_NOISE_FLOOR = 1e-12
# a rate-1/2 error halves when n quadruples; the band around that target 2
# leaves room for the Monte Carlo noise of moderate studies
_RATIO_BAND = (1.3, 3.0)


@dataclass(frozen=True)
class StudyRow:
    cell: tuple  # (n, *rest)
    mean_abs_error: float
    stderr: float
    ratio_vs_coarser: float | None
    ratio_ok: bool | None

    @property
    def flag(self) -> str:
        return "" if self.ratio_ok is None else ("ok" if self.ratio_ok else "out-of-band")


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[StudyRow, ...]

    @property
    def passed(self) -> bool:
        """At least one ratio was checked and every checked ratio is in band."""
        checked = [r.ratio_ok for r in self.rows if r.ratio_ok is not None]
        return bool(checked) and all(checked)


def convergence_study(
    run_cell: Callable[[int, tuple], tuple[float, float]], cells: Sequence[tuple]
) -> ConvergenceStudy:
    """Run each cell ``(n, *rest)`` and flag the error ratios of refinements.

    ``run_cell(i, cell)`` returns the cell's mean absolute error and its
    standard error.  A row is compared with the latest earlier row that has
    the same ``rest`` and a quarter of its n: it gets the ratio coarse
    error / fine error and a flag for that ratio lying in the band.  Rows
    without such a partner, and errors at the roundoff floor, carry no flag.
    """
    if not cells:
        raise InvalidArgumentError("a convergence study needs at least one cell")
    stats = [run_cell(i, cell) for i, cell in enumerate(cells)]
    rows: list[StudyRow] = []
    for i, ((n, *rest), (err, se)) in enumerate(zip(cells, stats)):
        coarser = [
            coarse
            for (coarse_n, *coarse_rest), (coarse, _) in zip(cells[:i], stats)
            if coarse_rest == rest and 4 * coarse_n == n and coarse > _NOISE_FLOOR
        ]
        ratio = ok = None
        if coarser and err > _NOISE_FLOOR:
            ratio = coarser[-1] / err
            ok = _RATIO_BAND[0] <= ratio <= _RATIO_BAND[1]
        rows.append(StudyRow((n, *rest), err, se, ratio, ok))
    return ConvergenceStudy(tuple(rows))


def lemma_convergence_study(
    path_generator: Callable[[Partition, RngStream], SamplePath],
    weight_generator: Callable[[Partition], WeightProcess],
    cell_counts: Sequence[int],
    num_seeds: int,
    horizon: float,
    limit: float,
    rng: RngStream,
) -> ConvergenceStudy:
    """L1 error of the weighted QV sum against its analytic limit.

    For each grid size, ``num_seeds`` independent paths give the mean
    absolute deviation from ``limit`` and its standard error
    (``condflow._gate``); :func:`convergence_study` flags the ratios.
    """
    if num_seeds < 2:  # one path has no standard error
        raise InvalidArgumentError("the lemma study needs at least two seeds")
    limit = float(limit)

    def run_cell(j, cell):
        part = Partition(np.linspace(0.0, horizon, cell[0] + 1))
        weights = weight_generator(part)
        errs = np.empty(num_seeds)
        for s in range(num_seeds):
            path = path_generator(part, rng.child(j, s))
            errs[s] = abs(weighted_qv_sum(weights, path) - limit)
        return _gate.mean_se(errs)

    return convergence_study(run_cell, [(n,) for n in cell_counts])
