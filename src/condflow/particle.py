"""Interacting particle ensembles sharing one common-noise path.

The ensemble realizes the flow of conditional laws as the empirical
measure of N particles driven by their own idiosyncratic Brownians plus
a single shared one.  Particle averages are exact conditional
expectations for the finite system: conditioning on every driver and
drawing a uniformly random particle index makes the empirical measure
the conditional law of the tagged particle, so these averages are
not merely large-N approximations.
"""

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, InvalidArgumentError, NumericOverflowError
from .measures import empirical
from .paths import Partition, RngStream, SamplePath, SdeCoefficients, simulate_factor

__all__ = [
    "ParticleEnsemble",
    "dirac_initial",
    "gaussian_quantile_initial",
    "simulate_ensemble",
    "ModulusResult",
    "measure_flow_modulus",
    "window_cells",
]


# particle steps per window, cells x particles over all repetitions of a
# batch: each float64 window array then takes 512 KiB, or one row if a
# row is larger
_WINDOW_ELEMENTS = 1 << 16


def window_cells(row_elements: int) -> int:
    """Cells per window of a sweep with ``row_elements`` particles a row."""
    return max(1, _WINDOW_ELEMENTS // row_elements)


class _Sweep:
    """Live state of an unfinished Euler sweep, shared by its windows.

    ``gens`` holds one generator per stream, ``dw0`` the common
    increments (n, M, 1), one column per stream, and ``control`` the
    feedback every window applies.
    ``next_cell`` is where the sweep continues; only the window ending
    there can be resumed, so a window cannot be resumed twice.
    """

    __slots__ = ("gens", "dw0", "x0", "control", "fv", "mart", "next_cell")

    def __init__(self, gens, dw0, x0, control):
        self.gens = gens
        self.dw0 = dw0
        self.x0 = x0
        self.control = control
        self.fv = np.zeros(x0.shape)
        self.mart = np.zeros(x0.shape)
        self.next_cell = 0


@dataclass(frozen=True)
class ParticleEnsemble:
    """A batch of M systems of N scalar particle paths on one grid, each
    with its own common-noise path.

    An ensemble is one time window of an Euler sweep: cells
    ``first_cell`` to ``first_cell + num_cells - 1`` of ``partition``.
    ``states`` has shape (num_cells+1, M, N): for each grid time
    ``first_cell`` to ``first_cell + num_cells``, one row of N particles
    per repetition; ``idio_increments`` (num_cells, M, N) are the
    particles' own Brownian increments on those cells, and ``common``
    carries the M whole shared paths, ``factor`` the M factor paths of a
    factor run.  ``drift_values``/``sigma_values``/``sigma0_values``
    (num_cells, M, N) cache the coefficient evaluations made during the
    Euler sweep (left endpoints), which later feed analytic bracket
    increments.  A window that ends before the last cell can be passed
    back to :func:`simulate_ensemble` to continue the sweep.
    ``num_particles`` counts the M N particles of a time row.
    """

    partition: Partition
    states: np.ndarray
    idio_increments: np.ndarray
    common: tuple[SamplePath, ...]
    drift_values: np.ndarray
    sigma_values: np.ndarray
    sigma0_values: np.ndarray
    coeffs: SdeCoefficients
    factor: tuple[SamplePath, ...] | None = None
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


def _initial_atoms(initial: Callable, rng: RngStream, num_particles: int) -> np.ndarray:
    if not callable(initial):
        raise InvalidArgumentError("initial must be a sampler (rng, N) -> atoms or a window to resume")
    atoms = np.asarray(initial(rng, num_particles), dtype=float)
    if atoms.shape != (num_particles,):
        raise InvalidArgumentError("initial sampler must return one atom per particle")
    return atoms


def simulate_ensemble(
    coeffs: SdeCoefficients,
    initial: Callable | ParticleEnsemble,
    num_particles: int,
    partition: Partition,
    rng: Sequence[RngStream],
    control: Callable | None = None,
    y0: float | None = None,
) -> ParticleEnsemble:
    """One time window of the Euler sweep of M interacting systems, each
    with its own common noise.

    ``rng`` is a sequence of M streams, one per repetition; a lone
    stream is refused.  The sweep advances the M independent repetitions
    as one (M, N) state, repetition r on stream r exactly as a batch of
    that stream alone would.  Each call runs one window of
    ``max(1, min(n, window_cells(N)) // M)`` cells from where the sweep
    stands, at most about 2^16 particle steps, and returns it as a
    (cells+1, M, N) ensemble (see :class:`ParticleEnsemble`).  A caller
    resumes the sweep until a window reaches the last cell, so a sweep
    holds one window at a time, whatever n.  Each particle sees its
    repetition's common increment dW0 and its own dW; the measure
    argument fed to the coefficients (and the optional feedback
    ``control(t, x, m)``) is ``empirical(x)`` of the step's state at the
    left endpoint, one uniform measure per row, whose ``mean()`` and
    ``average()`` reduce each row on its own, so a coefficient or
    control reads its own repetition's law.  ``initial`` is a sampler
    ``(rng, N) -> atoms`` of N atoms, such as :func:`dirac_initial` or
    :func:`gaussian_quantile_initial`, called with each stream's child 2.
    With ``y0`` each repetition gets its own factor path, driven by its
    common noise and its stream's child 1, and the coefficients get the
    step's factor values as a (M, 1) column.

    Passing a window back as ``initial``, with the same ``coeffs``,
    ``partition``, particle count and ``control``, continues the sweep,
    and ``rng`` and ``y0`` then go unused.  Each stream is drawn in one
    order however the sweep is split or batched: all of its dW0 first,
    then its dW rows window by window, so its rows do not depend on the
    window size.

    Each row is checked for finiteness once: a row the sweep reaches is
    checked by the ``empirical`` call of the step it starts, and the
    window's last row after the loop.  A non-finite row raises
    ``BlowUpError`` naming its grid index, the first over all
    repetitions, except the initial row of a fresh sweep,
    where a non-finite atom is an ``InvalidArgumentError``.
    """
    if num_particles < 2:
        raise InvalidArgumentError("need at least two particles")
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
        if coeffs is not initial.coeffs or control is not sweep.control:
            raise InvalidArgumentError("a resumed sweep keeps its coefficients and control")
        common, factor, x_start = initial.common, initial.factor, initial.states[-1]
    else:
        if not isinstance(rng, Sequence):
            raise InvalidArgumentError("rng must be a sequence of streams, one per repetition")
        streams = list(rng)
        if not streams:
            raise InvalidArgumentError("a batch needs at least one stream")
        gens = [stream.generator() for stream in streams]
        dw0 = np.stack([g.normal(size=n) for g in gens]) * sqdt
        paths = np.concatenate([np.zeros((len(gens), 1)), np.cumsum(dw0, axis=1)], axis=1)
        common = tuple(SamplePath(partition, path) for path in paths)
        factor = None
        if y0 is not None:
            factor = tuple(
                simulate_factor(coeffs, y0, partition, w0, s.child(1)) for w0, s in zip(common, streams)
            )
        x_start = np.stack([_initial_atoms(initial, stream.child(2), num_particles) for stream in streams])
        sweep = _Sweep(gens, dw0.T[:, :, None], x_start, control)
        start = 0

    stop = min(n, start + max(1, min(n, window_cells(num_particles)) // len(sweep.gens)))
    cells = stop - start
    dw = np.empty((cells, len(sweep.gens), num_particles))
    for r, g in enumerate(sweep.gens):
        np.multiply(g.normal(size=(cells, num_particles)), sqdt[start:stop, None], out=dw[:, r])
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
    factor_values = [None] * cells
    if factor is not None:  # a step's factor values are a (M, 1) column, like its dW0
        factor_values = np.stack([f.values[start:stop] for f in factor], axis=1)[..., None]
    for j, (t, h, dw0_k, y) in enumerate(zip(times, widths, sweep.dw0[start:stop], factor_values)):
        x = states[j]
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
    coeffs: SdeCoefficients, x_s: np.ndarray, x_t: np.ndarray, s: float, t: float
) -> ModulusResult:
    """Continuity modulus of the conditional-law flow between times s < t.

    ``x_s`` and ``x_t`` are the (M, N) state rows of one sweep at s and
    t, one row of N particles per repetition.  Per repetition the
    synchronous (same-particle) coupling gives the upper bound
    sqrt(mean_i (X_t - X_s)^2) >= W2(mu_s, mu_t); the estimate averages
    it over the repetitions and is compared against
    ||b|| (t - s) + sqrt(||sigma||^2 + ||sigma0||^2) sqrt(t - s) from the
    ``b``, ``sigma`` and ``sigma0`` bounds recorded in ``coeffs``, with a
    3-stderr allowance.  It needs at least two repetitions: one
    repetition has no standard error, and its gate would have no
    allowance.  A bound whose square overflows raises
    ``NumericOverflowError``.
    """
    if s >= t:
        raise InvalidArgumentError("need s < t")
    if x_s.shape != x_t.shape:
        raise InvalidArgumentError("the two state rows must have one shape")
    if x_s.ndim != 2 or len(x_s) < 2:
        raise InvalidArgumentError("the modulus needs (M, N) rows of at least two repetitions")
    bounds = [coeffs.bounds.get(key) for key in ("b", "sigma", "sigma0")]
    if None in bounds:  # a missing bound is no bound of 0
        raise InvalidArgumentError("the coefficients must record the b, sigma and sigma0 bounds")
    diff = x_t - x_s
    values = np.sqrt(np.mean(diff * diff, axis=-1))
    b, sig, sig0 = bounds
    try:  # a Python float's ** raises where * would give inf
        spread = np.sqrt(sig**2 + sig0**2)
    except OverflowError:
        raise NumericOverflowError("sigma**2 or sigma0**2 overflows") from None
    bound = float(b * (t - s) + spread * np.sqrt(t - s))
    estimate = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size))
    return ModulusResult(estimate, se, bound, bool(estimate <= bound + 3.0 * se))
