"""Interacting particle ensembles sharing one common-noise path.

The ensemble realizes the flow of conditional laws as the empirical
measure of N particles driven by their own idiosyncratic Brownians plus
a single shared one.  Particle averages are exact conditional
expectations for the finite system: conditioning on every driver and
drawing a uniformly random particle index makes the empirical measure
the conditional law of the tagged particle, so these averages are
not merely large-N approximations.
"""

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError, InvalidArgumentError, NumericOverflowError
from .measures import EmpiricalMeasure, empirical
from .paths import Partition, RngStream, SamplePath, SdeCoefficients, simulate_factor

__all__ = [
    "ParticleEnsemble",
    "dirac_initial",
    "gaussian_quantile_initial",
    "simulate_ensemble",
    "ModulusResult",
    "measure_flow_modulus",
]


# particle steps per window, cells x particles over all repetitions of a
# batch: each float64 window array then takes 512 KiB, or one row if a
# row is larger
_WINDOW_ELEMENTS = 1 << 16


class _Sweep:
    """Live state of an unfinished Euler sweep, shared by its windows.

    ``gens`` holds one generator per stream, ``dw0`` the common
    increments ((n,) for one stream, (n, M, 1) for a batch).
    ``next_cell`` is where the sweep continues; only the window ending
    there can be resumed, so a window cannot be resumed twice.
    """

    __slots__ = ("gens", "dw0", "x0", "fv", "mart", "next_cell")

    def __init__(self, gens, dw0, x0):
        self.gens = gens
        self.dw0 = dw0
        self.x0 = x0
        self.fv = np.zeros(x0.shape)
        self.mart = np.zeros(x0.shape)
        self.next_cell = 0


@dataclass(frozen=True)
class ParticleEnsemble:
    """N scalar particle paths on one grid with one common-noise path, or
    a batch of M such systems, each with its own.

    An ensemble is one time window of an Euler sweep: cells
    ``first_cell`` to ``first_cell + num_cells - 1`` of ``partition``.
    ``states`` has shape (num_cells+1, N), its rows the grid times
    ``first_cell`` to ``first_cell + num_cells``; ``idio_increments``
    (num_cells, N) are the particles' own Brownian increments on those
    cells and ``common`` carries the whole shared path.
    ``drift_values``/``sigma_values``/``sigma0_values`` cache the
    coefficient evaluations made during the Euler sweep (left endpoints),
    which later feed analytic bracket increments.  A whole run is the one
    window with ``first_cell == 0`` that covers every cell; a window that
    ends before the last cell can be passed back to
    :func:`simulate_ensemble` to continue the sweep.

    A batch of M repetitions puts a repetition axis after the time axis:
    ``states`` is (num_cells+1, M, N), the increment and coefficient
    arrays (num_cells, M, N), and ``common`` is a tuple of the M shared
    paths.  ``num_particles`` counts a row's particles over the whole
    batch, M N.
    """

    partition: Partition
    states: np.ndarray
    idio_increments: np.ndarray
    common: SamplePath | tuple[SamplePath, ...]
    drift_values: np.ndarray
    sigma_values: np.ndarray
    sigma0_values: np.ndarray
    coeffs: SdeCoefficients
    factor: SamplePath | None = None
    control_values: np.ndarray | None = None
    first_cell: int = 0
    _sweep: _Sweep | None = field(default=None, repr=False, compare=False)

    @property
    def num_particles(self) -> int:
        return self.states[0].size

    @property
    def num_cells(self) -> int:
        return self.states.shape[0] - 1

    @property
    def cells(self) -> slice:
        """Grid indices of this window's cells."""
        return slice(self.first_cell, self.first_cell + self.num_cells)

    @property
    def time_points(self) -> slice:
        """Grid indices of this window's ``states`` rows."""
        return slice(self.first_cell, self.first_cell + self.num_cells + 1)

    @property
    def deltas(self) -> np.ndarray:
        """Widths of this window's cells."""
        return self.partition.deltas[self.cells]

    def empirical_at(self, index: int) -> EmpiricalMeasure:
        return empirical(self.states[index])

    def state_increments(self) -> np.ndarray:
        return np.diff(self.states, axis=0)


def dirac_initial(x0: float) -> Callable:
    return lambda rng, n: np.full(n, float(x0))


def gaussian_quantile_initial(mean: float, var: float) -> Callable:
    """Deterministic Gaussian quantile atoms (midpoint ranks)."""
    from scipy.special import ndtri

    if var < 0:
        raise InvalidArgumentError("variance must be nonnegative")
    sd = np.sqrt(var)

    def make(rng, n):
        ranks = (np.arange(n) + 0.5) / n
        return mean + sd * ndtri(ranks)

    return make


def _initial_atoms(initial, rng: RngStream, num_particles: int) -> np.ndarray:
    if isinstance(initial, EmpiricalMeasure):
        if initial.num_atoms == num_particles:
            return initial.atoms.copy()
        if initial.num_atoms == 1:
            return np.full(num_particles, float(initial.atoms[0]))
        raise InvalidArgumentError(
            f"initial measure has {initial.num_atoms} atoms, ensemble wants {num_particles}"
        )
    if callable(initial):
        atoms = np.asarray(initial(rng, num_particles), dtype=float)
        if atoms.shape != (num_particles,):
            raise InvalidArgumentError("initial sampler must return one atom per particle")
        return atoms
    return np.full(num_particles, float(initial))


def simulate_ensemble(
    coeffs: SdeCoefficients,
    initial,
    num_particles: int,
    partition: Partition,
    rng: RngStream | Sequence[RngStream],
    control: Callable | None = None,
    y0: float | None = None,
    num_cells: int | None = None,
) -> ParticleEnsemble:
    """Euler sweep of the interacting system with shared common noise.

    Each particle sees the common increment dW0 and its own dW; the
    measure argument fed to the coefficients (and the optional feedback
    ``control(t, x, m)``) is the ensemble's empirical measure at the left
    endpoint.  ``initial`` may be an EmpiricalMeasure (atom count 1 or
    N), a sampler ``(rng, N) -> atoms``, or a number (Dirac).

    ``rng`` may instead be a sequence of M streams: the sweep then
    advances M independent repetitions as one (M, N) state, repetition r
    on stream r exactly as a sweep of that stream alone would, and
    returns a batched ensemble (see :class:`ParticleEnsemble`).  In a
    batch the measure argument is the (M, 1) column of the repetitions'
    row means ``x.mean(axis=-1)``, which is all that a mean-reading
    feedback such as ``mfc.RiccatiFeedback`` takes of a measure, so the
    batch makes no ``empirical`` call.  Coefficients and controls that
    read more of the measure than its mean, and factor paths (``y0``),
    need one stream at a time.

    With ``num_cells`` the sweep stops after that many cells and returns
    that window (see :class:`ParticleEnsemble`); passing the window back
    as ``initial``, with the same ``partition`` and particle count,
    continues the sweep, and ``rng`` and ``y0`` then go unused.  Each
    stream is drawn in one order however the sweep is split or batched:
    all of its dW0 first, then its dW rows window by window, so the
    windows of a split sweep hold exactly the rows of the whole run.  By
    default one call runs every remaining cell.

    Each row is checked for finiteness once: a row the sweep reaches is
    checked by the ``empirical`` call of the step it starts (in a batch,
    through its row means), and the window's last row after the loop.  A
    non-finite row raises ``BlowUpError`` naming its grid index, the
    first over all repetitions of a batch, except the initial row of a
    fresh sweep, where a non-finite atom is an ``InvalidArgumentError``.
    """
    if num_particles < 2:
        raise InvalidArgumentError("need at least two particles")
    if num_cells is not None and num_cells < 1:
        raise InvalidArgumentError("a window needs at least one cell")
    dt = partition.deltas
    n = dt.size
    sqdt = np.sqrt(dt)

    if isinstance(initial, ParticleEnsemble):
        sweep = initial._sweep
        start = initial.first_cell + initial.num_cells
        if sweep is None or sweep.next_cell != start:
            raise InvalidArgumentError("only the latest window of an unfinished sweep can be resumed")
        if initial.partition is not partition or initial.states.shape[-1] != num_particles:
            raise InvalidArgumentError("a resumed sweep keeps its partition and particle count")
        common, factor, x_start = initial.common, initial.factor, initial.states[-1]
    elif isinstance(rng, RngStream):
        gen = rng.generator()
        dw0 = gen.normal(size=n) * sqdt
        common = SamplePath(partition, np.concatenate([[0.0], np.cumsum(dw0)]))
        factor = None
        if y0 is not None:
            factor = simulate_factor(coeffs, y0, partition, common, rng.child(1))
        x_start = _initial_atoms(initial, rng.child(2), num_particles)
        sweep = _Sweep([gen], dw0, x_start)
        start = 0
    else:
        if not rng:
            raise InvalidArgumentError("a batch needs at least one stream")
        if y0 is not None:
            raise InvalidArgumentError("a batch of streams takes no factor path")
        gens = [stream.generator() for stream in rng]
        dw0 = np.stack([g.normal(size=n) for g in gens], axis=1) * sqdt[:, None]
        paths = np.concatenate([np.zeros((1, len(gens))), np.cumsum(dw0, axis=0)])
        common = tuple(SamplePath(partition, paths[:, r]) for r in range(len(gens)))
        factor = None
        x_start = np.stack([_initial_atoms(initial, stream.child(2), num_particles) for stream in rng])
        sweep = _Sweep(gens, dw0[:, :, None], x_start)
        start = 0

    batch = x_start.ndim == 2
    stop = n if num_cells is None else min(n, start + num_cells)
    cells = stop - start
    if batch:
        dw = np.empty((cells, *x_start.shape))
        for r, g in enumerate(sweep.gens):
            dw[:, r] = g.normal(size=(cells, num_particles))
        dw *= sqdt[start:stop, None, None]
        common_steps = list(sweep.dw0[start:stop])
    else:
        dw = sweep.gens[0].normal(size=(cells, num_particles)) * sqdt[start:stop, None]
        common_steps = sweep.dw0[start:stop].tolist()
    x0 = sweep.x0
    states = np.empty((cells + 1, *x_start.shape))
    states[0] = x_start
    bvals = np.empty(dw.shape)
    svals = np.empty(dw.shape)
    s0vals = np.empty(dw.shape)
    avals = np.empty(dw.shape) if control is not None else None

    fv, mart = sweep.fv, sweep.mart
    times = partition.times[start:stop].tolist()
    widths = dt[start:stop].tolist()
    factor_values = factor.values[start:stop].tolist() if factor is not None else [None] * cells
    for j, (t, h, dw0_k, y) in enumerate(zip(times, widths, common_steps, factor_values)):
        x = states[j]
        if batch:
            m = x.mean(axis=-1, keepdims=True)
            # a row's mean is finite only if the row is, so the rows need
            # a look of their own only when some mean is not
            if not np.isfinite(m).all() and not np.isfinite(x).all():
                if start + j == 0:
                    raise InvalidArgumentError("atoms must be finite")
                raise BlowUpError(start + j)
        else:
            try:
                m = empirical(x)
            except InvalidArgumentError:
                if start + j == 0:  # a bad initial atom, not a blow-up
                    raise
                raise BlowUpError(start + j) from None
        a = control(t, x, m) if control is not None else None
        if avals is not None:
            avals[j] = a
        b = coeffs.drift(t, x, y, m, a)
        s = coeffs.sigma(t, x, y, m, a)
        s0 = coeffs.sigma0(t, x, y, m, a)
        # the row assignments broadcast each coefficient value to the particles
        bvals[j] = b
        svals[j] = s
        s0vals[j] = s0
        fv = fv + b * h
        mart = mart + s * dw[j] + s0 * dw0_k
        row = states[j + 1]
        np.add(x0, fv, out=row)
        row += mart
    if not np.isfinite(states[cells]).all():
        raise BlowUpError(stop)
    sweep.fv, sweep.mart, sweep.next_cell = fv, mart, stop

    return ParticleEnsemble(
        partition=partition,
        states=states,
        idio_increments=dw,
        common=common,
        drift_values=bvals,
        sigma_values=svals,
        sigma0_values=s0vals,
        coeffs=coeffs,
        factor=factor,
        control_values=avals,
        first_cell=start,
        _sweep=sweep if stop < n else None,
    )


@dataclass(frozen=True)
class ModulusResult:
    estimate: float
    stderr: float
    bound: float
    passed: bool


def measure_flow_modulus(
    ensembles: ParticleEnsemble | Sequence[ParticleEnsemble], s: float, t: float
) -> ModulusResult:
    """Continuity modulus of the conditional-law flow between two grid times.

    Per ensemble the synchronous (same-particle) coupling gives the upper
    bound sqrt(mean_i (X_t - X_s)^2) >= W2(mu_s, mu_t); the estimate
    averages it over the supplied ensembles and is compared against the
    largest over the ensembles of
    ||b|| (t - s) + sqrt(||sigma||^2 + ||sigma0||^2) sqrt(t - s) from the
    recorded coefficient bounds, with a 3-stderr allowance.  Ensembles
    must be whole runs, so that grid times index their ``states`` rows.
    A bound whose square overflows raises ``NumericOverflowError``.
    """
    if isinstance(ensembles, ParticleEnsemble):
        ensembles = [ensembles]
    if not ensembles:
        raise InvalidArgumentError("need at least one ensemble")
    if s >= t:
        raise InvalidArgumentError("need s < t")
    values = []
    bound = 0.0
    for e in ensembles:
        i_s = int(np.argmin(np.abs(e.partition.times - s)))
        i_t = int(np.argmin(np.abs(e.partition.times - t)))
        if abs(e.partition.times[i_s] - s) > 1e-12 or abs(e.partition.times[i_t] - t) > 1e-12:
            raise InvalidArgumentError("s and t must be grid times")
        diff = e.states[i_t] - e.states[i_s]
        values.append(np.sqrt(float(np.mean(diff * diff))))
        b = e.coeffs.bounds.get("b", 0.0)
        sig = e.coeffs.bounds.get("sigma", 0.0)
        sig0 = e.coeffs.bounds.get("sigma0", 0.0)
        try:  # a Python float's ** raises where * would give inf
            spread = np.sqrt(sig**2 + sig0**2)
        except OverflowError:
            raise NumericOverflowError("sigma**2 or sigma0**2 overflows") from None
        bound = max(bound, b * (t - s) + spread * np.sqrt(t - s))
    arr = np.asarray(values)
    estimate = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return ModulusResult(estimate, se, float(bound), estimate <= bound + 3.0 * se)
