"""Interacting particle ensembles sharing one common-noise path.

The ensemble realizes the flow of conditional laws as the empirical
measure of N particles driven by their own idiosyncratic Brownians plus
a single shared one.  Particle averages are exact conditional
expectations for the finite system: conditioning on every driver and
drawing a uniformly random particle index makes the empirical measure
the conditional law of the tagged particle, so these averages are
not merely large-N approximations.

An Euler sweep is a :class:`Sweep`, made once from its recipe;
:func:`simulate_ensemble` runs its next time window of at most about
2^16 particle steps and returns it as a :class:`ParticleEnsemble`, so a
sweep holds one window at a time, whatever the grid size.  A window
keeps each coefficient's values at the shape the coefficient returned,
so a constant b, sigma or sigma0 takes one number per cell, not one per
particle.

A sweep of one stream also reads ahead: while the caller works on a
window, a thread of its own draws the next window's dW normals from the
stream's generator, in the order and at the window bounds the sweep
would draw them itself, so every byte is the same.  The next window
joins that thread, so a sweep has at most one alive; a batched sweep
and a process allowed only one CPU start none.  The one call the thread
makes is the generator's ``standard_normal``, so every package function,
and any tracer wrapped round one, runs on the caller's thread.  A sweep
whose read-ahead is pending must not be carried across a fork: the
child has no thread to finish the draw.
"""

import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import _gate
from ._normal import ndtri
from .errors import BlowUpError, InvalidArgumentError, NumericOverflowError
from .measures import empirical
from .paths import Partition, RngStream, SamplePath, SdeCoefficients, simulate_factor

__all__ = [
    "ParticleEnsemble",
    "Sweep",
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


class _Draw:
    """One call run on a thread of its own, started here; :meth:`result`
    joins the thread, then returns the call's value or raises its error
    on the caller's thread."""

    def __init__(self, call: Callable):
        self._call, self._value, self._error = call, None, None
        self._thread = threading.Thread(target=self._run, name="condflow-read-ahead", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            self._value = self._call()
        except BaseException as exc:  # result() raises it on the caller's thread
            self._error = exc

    def wait(self) -> None:
        self._thread.join()

    def result(self):
        self.wait()
        if self._error is not None:
            raise self._error
        return self._value


def _several_cpus() -> bool:
    """Whether this process may run on more than one CPU, so that a draw
    on a thread of its own can overlap the caller's work."""
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) > 1


@dataclass(frozen=True)
class ParticleEnsemble:
    """A batch of M systems of N scalar particle paths on one grid, each
    with its own common-noise path.

    An ensemble is one time window of a :class:`Sweep`: cells
    ``first_cell`` to ``first_cell + num_cells - 1`` of ``partition``.
    ``states`` has shape (num_cells+1, M, N): for each grid time
    ``first_cell`` to ``first_cell + num_cells``, one row of N particles
    per repetition; ``idio_increments`` (num_cells, M, N) are the
    particles' own Brownian increments on those cells, and ``common``
    carries the M whole shared paths, ``factor`` the M factor paths of a
    factor run.  ``drift_values``/``sigma_values``/``sigma0_values`` and
    ``control_values`` cache the coefficient and control evaluations made
    during the Euler sweep (left endpoints), which later feed analytic
    bracket increments.  Each is kept at the shape its callable returned:
    (num_cells, *shape), with shape the broadcast of every step's value
    shape with (1, 1).  So a constant gives (num_cells, 1, 1), a value
    read from the law or the factor (num_cells, M, 1), and a
    state-dependent value or a feedback control (num_cells, M, N); each
    broadcasts to ``idio_increments``' shape.  ``num_particles`` counts
    the M N particles of a time row.
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


@lru_cache(maxsize=16)
def _standard_quantiles(n: int) -> np.ndarray:
    """N(0, 1) quantiles at the n midpoint ranks (i + 1/2) / n, read-only,
    since every caller with this n shares the one array."""
    q = ndtri((np.arange(n) + 0.5) / n)
    q.flags.writeable = False
    return q


def gaussian_quantile_initial(mean: float, var: float) -> Callable:
    """Deterministic Gaussian quantile atoms (midpoint ranks).

    The sampler returns ``mean + sd * q``, with q the N(0, 1) quantiles of
    the n midpoint ranks.  The quantiles of each n are computed once per
    process and kept (for the 16 most recent n), since a run draws the
    atoms of every repetition at one or a few particle counts.
    """
    if var < 0:
        raise InvalidArgumentError("variance must be nonnegative")
    sd = np.sqrt(var)

    def make(rng, n):
        return mean + sd * _standard_quantiles(n)

    return make


class Sweep:
    """One Euler sweep of M interacting systems, each with its own common
    noise, made once from its recipe and run window by window by
    :func:`simulate_ensemble`.

    ``streams`` is a sequence of M streams, one per repetition; a lone
    stream is refused.  The sweep advances the M independent repetitions
    as one (M, N) state, repetition r on stream r exactly as a sweep of
    that stream alone would.  Each particle sees its repetition's common
    increment dW0 and its own dW; the measure argument fed to the
    coefficients (and the optional feedback ``control(t, x, m)``) is
    ``empirical(x)`` of the step's state at the left endpoint, one
    uniform measure per row, whose ``mean()`` and ``average()`` reduce
    each row on its own, so a coefficient or control reads its own
    repetition's law.  ``initial`` is a sampler ``(rng, N) -> atoms`` of
    N atoms, such as :func:`dirac_initial` or
    :func:`gaussian_quantile_initial`, called with each stream's child 2.
    With ``y0`` each repetition gets its own factor path, driven by its
    common noise and its stream's child 1, and the coefficients get the
    step's factor values as a (M, 1) column.  A window keeps each value
    that a coefficient or the control returns until the window ends, so
    each call returns a value of its own, not a refilled buffer.

    Making a sweep checks its recipe and draws, stream by stream, all of
    the stream's dW0, its factor path and its initial atoms; ``common``
    and ``factor`` hold the M whole paths.  Each window then draws its dW
    rows, so each stream is drawn in one order however the sweep is
    split or batched, and its rows do not depend on the window size.
    A sweep of one stream that may use more than one CPU draws the next
    window's dW normals on a thread of its own while the caller works on
    the current window (see the module docstring), so it holds one
    window plus the next window's dW.  ``next_cell`` is the first cell
    of the next window, and ``done`` tells that a window has reached the
    last cell.
    """

    def __init__(
        self,
        coeffs: SdeCoefficients,
        initial: Callable,
        num_particles: int,
        partition: Partition,
        streams: Sequence[RngStream],
        control: Callable | None = None,
        y0: float | None = None,
    ):
        if num_particles < 2:
            raise InvalidArgumentError("need at least two particles")
        if not isinstance(streams, Sequence):
            raise InvalidArgumentError("streams must be a sequence of streams, one per repetition")
        if not streams:
            raise InvalidArgumentError("a batch needs at least one stream")
        if not callable(initial):
            raise InvalidArgumentError("initial must be a sampler (rng, N) -> atoms")
        self.coeffs, self.partition, self.control = coeffs, partition, control
        self.num_particles, self.streams = num_particles, tuple(streams)
        self._sqdt = np.sqrt(partition.deltas)
        self._gens = [stream.generator() for stream in self.streams]
        dw0 = np.stack([g.normal(size=partition.num_cells) for g in self._gens]) * self._sqdt
        paths = np.concatenate([np.zeros((len(self._gens), 1)), np.cumsum(dw0, axis=1)], axis=1)
        self.common = tuple(SamplePath(partition, path) for path in paths)
        self.factor = None
        if y0 is not None:
            self.factor = tuple(
                simulate_factor(coeffs, y0, partition, w0, stream.child(1))
                for w0, stream in zip(self.common, self.streams)
            )
        atoms = []
        for stream in self.streams:
            atoms.append(np.asarray(initial(stream.child(2), num_particles), dtype=float))
            if atoms[-1].shape != (num_particles,):
                raise InvalidArgumentError("initial sampler must return one atom per particle")
        # a step's dW0 is a (M, 1) column
        self._dw0 = dw0.T[:, :, None]
        self._x0 = self._row = np.stack(atoms)
        self._fv = np.zeros(self._x0.shape)
        self._mart = np.zeros(self._x0.shape)
        self.next_cell = 0
        self._failed_step = None
        self._reads_ahead = len(self._gens) == 1 and _several_cpus()
        # the next window's stop cell and the thread's draw of its normals,
        # while that draw is pending
        self._ahead: tuple[int, _Draw] | None = None

    def _fail(self, step: int) -> None:
        """Refuse the sweep from ``step`` on, once no draw is pending; the
        pending draw's normals, or its error, are dropped, since no window
        will take them."""
        self._failed_step = step
        if self._ahead is not None:
            self._ahead[1].wait()
            self._ahead = None

    @property
    def done(self) -> bool:
        return self.next_cell == self.partition.num_cells


def _stacked(values: list, row: tuple[int, int]) -> np.ndarray:
    """One callable's values at a window's steps as a float array
    (cells, *shape), with shape the broadcast of every step's shape with
    (1, 1); a shape that does not broadcast to the (M, N) ``row`` is
    refused."""
    try:
        shape = np.broadcast_shapes((1, 1), *map(np.shape, values))
        fits = np.broadcast_shapes(shape, row) == row
    except ValueError:  # shapes that do not broadcast at all
        fits = False
    if not fits:
        raise InvalidArgumentError(f"a coefficient or control value does not broadcast to the {row} particles")
    out = np.empty((len(values), *shape))
    for j, v in enumerate(values):
        out[j] = v
    return out


def _window_stop(sweep: Sweep, start: int) -> int:
    """One past the last cell of ``sweep``'s window that starts at cell
    ``start``: ``max(1, min(n, window_cells(N)) // M)`` cells, or fewer
    at the end of the grid."""
    n = sweep.partition.num_cells
    return min(n, start + max(1, min(n, window_cells(sweep.num_particles)) // len(sweep._gens)))


def _draw_dw(sweep: Sweep, start: int, stop: int) -> np.ndarray:
    """The dW of cells ``start`` to ``stop - 1``, (cells, M, N): each
    stream's next normals times sqrt(dt), taken from the read-ahead when
    it is pending."""
    sqdt = sweep._sqdt[start:stop, None]
    if sweep._ahead is not None:
        normals = sweep._ahead[1].result()
        sweep._ahead = None
        # standard_normal fills the ziggurat normals that normal draws, and
        # normal returns 0.0 + 1.0 z, which turns a -0.0 into 0.0
        np.add(normals, 0.0, out=normals)
        return np.multiply(normals, sqdt, out=normals)[:, None]
    dw = np.empty((stop - start, len(sweep._gens), sweep.num_particles))
    for r, g in enumerate(sweep._gens):
        np.multiply(g.normal(size=(stop - start, sweep.num_particles)), sqdt, out=dw[:, r])
    return dw


def simulate_ensemble(sweep: Sweep) -> ParticleEnsemble:
    """Run the next time window of ``sweep`` and return it.

    The window runs ``max(1, min(n, window_cells(N)) // M)`` cells from
    ``sweep.next_cell``, at most about 2^16 particle steps, and is
    returned as a (cells+1, M, N) ensemble (see
    :class:`ParticleEnsemble`), whose coefficient and control values keep
    the shape their callables returned, from (cells, 1, 1) for constants
    to (cells, M, N).  A caller runs windows until ``sweep.done``, so a
    sweep holds one window at a time, whatever n; a one-stream sweep
    also holds the next window's dW, which a thread draws while the
    caller works on this window.  A finished sweep is refused, and so is one whose
    window raised: once a window has begun to draw its dW, any exception
    in it, from a blow-up, a coefficient or the control, records its
    step, and every later call names that step; a pending read-ahead is
    waited for and dropped first, so no draw outlives the failure.  A
    value that does not broadcast to the (M, N) particles is an
    ``InvalidArgumentError``, recorded at the window's last step.

    Each row is checked for finiteness once: a row the sweep reaches is
    checked by the ``empirical`` call of the step it starts, and the
    window's last row after the loop.  A non-finite row raises
    ``BlowUpError`` naming its grid index, the first over all
    repetitions, except the initial row, where a non-finite atom is an
    ``InvalidArgumentError``.
    """
    if sweep.done:
        raise InvalidArgumentError("the sweep is finished")
    if sweep._failed_step is not None:
        raise InvalidArgumentError(f"the sweep failed at step {sweep._failed_step}")
    coeffs, control, partition = sweep.coeffs, sweep.control, sweep.partition
    dt = partition.deltas
    n = dt.size
    start = sweep.next_cell
    # a read-ahead has fixed this window's bounds when it was drawn
    stop = sweep._ahead[0] if sweep._ahead is not None else _window_stop(sweep, start)
    cells = stop - start
    x0 = sweep._x0
    states = np.empty((cells + 1, *x0.shape))
    states[0] = sweep._row
    # each coefficient's value at every step, at the shape it returned
    bvals, svals, s0vals, avals = [], [], [], []

    fv, mart = sweep._fv, sweep._mart
    times = partition.times[start:stop].tolist()
    widths = dt[start:stop].tolist()
    factor_values = [None] * cells
    if sweep.factor is not None:  # a step's factor values are a (M, 1) column, like its dW0
        factor_values = np.stack([f.values[start:stop] for f in sweep.factor], axis=1)[..., None]
    j = 0
    try:
        dw = _draw_dw(sweep, start, stop)
        if sweep._reads_ahead and stop < n:
            # the thread has the generator until the next window takes the
            # draw; its buffer is made here, so the heap stays this thread's
            after = _window_stop(sweep, stop)
            buffer = np.empty((after - stop, sweep.num_particles))
            sweep._ahead = (after, _Draw(partial(sweep._gens[0].standard_normal, out=buffer)))
        for j, (t, h, dw0_k, y) in enumerate(zip(times, widths, sweep._dw0[start:stop], factor_values)):
            x = states[j]
            try:
                m = empirical(x)
            except InvalidArgumentError:
                if start + j == 0:  # a bad initial atom, not a blow-up
                    raise
                raise BlowUpError(start + j) from None
            a = None
            if control is not None:
                a = control(t, x, m)
                avals.append(a)
            b = coeffs.drift(t, x, y, m, a)
            s = coeffs.sigma(t, x, y, m, a)
            s0 = coeffs.sigma0(t, x, y, m, a)
            bvals.append(b)
            svals.append(s)
            s0vals.append(s0)
            fv = fv + b * h
            mart = mart + s * dw[j] + s0 * dw0_k
            row = states[j + 1]
            np.add(x0, fv, out=row)
            row += mart
        bvals, svals, s0vals = (_stacked(v, x0.shape) for v in (bvals, svals, s0vals))
        avals = _stacked(avals, x0.shape) if control is not None else None
    except BaseException:
        # the window has begun to draw its dW, so running it again would
        # rerun its cells on fresh draws
        sweep._fail(start + j)
        raise
    if not np.isfinite(states[cells]).all():
        sweep._fail(stop)
        raise BlowUpError(stop)
    sweep._fv, sweep._mart, sweep._row, sweep.next_cell = fv, mart, states[cells], stop

    return ParticleEnsemble(
        partition=partition,
        states=states,
        idio_increments=dw,
        common=sweep.common,
        drift_values=bvals,
        sigma_values=svals,
        sigma0_values=s0vals,
        coeffs=coeffs,
        factor=sweep.factor,
        control_values=avals,
        first_cell=start,
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
    ``b``, ``sigma`` and ``sigma0`` bounds recorded in ``coeffs``, one-sided
    within ``condflow._gate``'s 3 SE.  It needs at least two repetitions:
    one repetition has no standard error, and its gate would have no
    allowance.  A bound or a statistic that overflows raises
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
    estimate, se = _gate.mean_se(values)
    return ModulusResult(estimate, se, bound, bool(estimate <= bound + _gate.tolerance(se)))
