"""Time grids, sample paths, and simulators for the driving processes.

Paths are scalar and stored dense on their grid: one value per grid
time.  Every simulator is a pure function of its inputs and an
:class:`RngStream`, so runs are reproducible bit-for-bit.
"""

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "Partition",
    "SamplePath",
    "SdeCoefficients",
    "RngStream",
    "make_uniform_partition",
    "simulate_brownian",
    "simulate_factor",
    "constant_coefficients",
]


@dataclass(frozen=True)
class Partition:
    """Strictly increasing grid of times on [0, T] starting at 0."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or t.size < 2:
            raise InvalidArgumentError("partition needs at least two time points")
        if t[0] != 0.0:
            raise InvalidArgumentError("partition must start at 0")
        if not np.all(np.isfinite(t)):
            raise InvalidArgumentError("partition times must be finite")
        if np.any(np.diff(t) <= 0):
            raise InvalidArgumentError("partition times must be strictly increasing")

    @property
    def num_cells(self) -> int:
        return self.times.size - 1

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.times)


def make_uniform_partition(horizon: float, num_cells: int) -> Partition:
    """Equispaced grid with ``num_cells`` cells on [0, horizon]."""
    if not horizon > 0:
        raise InvalidArgumentError("horizon must be positive")
    if num_cells < 1:
        raise InvalidArgumentError("need at least one cell")
    return Partition(np.linspace(0.0, float(horizon), num_cells + 1))


@dataclass(frozen=True)
class SamplePath:
    """One realization of a scalar process on a grid: its values, one per
    grid time, and nothing else."""

    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.shape[0] != self.partition.times.size:
            raise InvalidArgumentError("need one scalar value per grid time")

    @property
    def dim(self) -> int:
        """State dimension; paths are scalar."""
        return 1

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)


@dataclass(frozen=True)
class SdeCoefficients:
    """Coefficient fields for the controlled state and the factor.

    State coefficients are callables ``(t, x, y, m, a)`` vectorized over
    ``x`` (and ``a`` when present); each returns a float or a float64
    array that broadcasts against ``x``, so a constant coefficient returns
    its constant.  The Euler sweep computes with the value as returned and
    broadcasts it only where it stores it.  A sweep of M repetitions
    hands them its (M, N) state ``x``, a batch of M empirical measures
    ``m``, one per repetition, and as ``y`` the (M, 1) column of the
    repetitions' factor values, or None without a factor path (see
    ``particle.simulate_ensemble``).  Factor coefficients are ``(t, y)``
    on scalars.
    ``bounds`` records sup-norms; the flow modulus
    (``particle.measure_flow_modulus``) reads those of b, sigma and sigma0.
    """

    drift: Callable
    sigma: Callable
    sigma0: Callable
    k: Callable
    gamma: Callable
    gamma0: Callable
    bounds: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for key, val in self.bounds.items():
            if not np.isfinite(val) or val < 0:
                raise InvalidArgumentError(f"bound {key!r} must be finite and nonnegative")


def constant_coefficients(
    b: float = 0.0,
    sigma: float = 0.0,
    sigma0: float = 0.0,
    k: float = 0.0,
    gamma: float = 0.0,
    gamma0: float = 0.0,
) -> SdeCoefficients:
    """Coefficients that ignore state, factor, measure and control."""
    return SdeCoefficients(
        drift=lambda t, x, y, m, a: b,
        sigma=lambda t, x, y, m, a: sigma,
        sigma0=lambda t, x, y, m, a: sigma0,
        k=lambda t, y: k,
        gamma=lambda t, y: gamma,
        gamma0=lambda t, y: gamma0,
        bounds={
            "b": abs(b),
            "sigma": abs(sigma),
            "sigma0": abs(sigma0),
        },
    )


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream id).

    Streams with distinct keys are independent by construction (Philox
    keyed through a SeedSequence).  ``child`` derives nested streams for
    outer repetitions, particles blocks, etc. without collisions.
    """

    seed: int
    stream: int = 0
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, *self.path))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, *ids: int) -> "RngStream":
        return replace(self, path=self.path + tuple(int(i) for i in ids))

    def key(self) -> list[int]:
        return [self.seed, self.stream, *self.path]


def simulate_brownian(partition: Partition, rng: RngStream) -> SamplePath:
    """Standard Brownian path on the grid, started at 0.

    Increments over the cells are independent N(0, dt) draws.
    """
    gen = rng.generator()
    dt = partition.deltas
    inc = gen.normal(size=dt.size) * np.sqrt(dt)
    return SamplePath(partition, np.concatenate([[0.0], np.cumsum(inc)]))


def simulate_factor(
    coeffs: SdeCoefficients,
    y0: float,
    partition: Partition,
    common_path: SamplePath,
    rng: RngStream,
) -> SamplePath:
    """Euler path of the scalar factor dY = k dt + gamma dB + gamma0 dW0.

    ``common_path`` supplies the shared noise W0 and must live on the same
    partition; B is an independent Brownian drawn from ``rng``.
    """
    if common_path.partition.times.shape != partition.times.shape or not np.array_equal(
        common_path.partition.times, partition.times
    ):
        raise InvalidArgumentError("common path must share the partition")
    gen = rng.generator()
    dt = partition.deltas
    n = dt.size
    db = gen.normal(size=n) * np.sqrt(dt)
    dw0 = np.diff(common_path.values)
    fv = np.zeros(n + 1)
    mart = np.zeros(n + 1)
    y = float(y0)
    for i in range(n):
        t = partition.times[i]
        fv[i + 1] = fv[i] + coeffs.k(t, y) * dt[i]
        mart[i + 1] = mart[i] + coeffs.gamma(t, y) * db[i] + coeffs.gamma0(t, y) * dw0[i]
        y = y0 + fv[i + 1] + mart[i + 1]
    return SamplePath(partition, y0 + fv + mart)
