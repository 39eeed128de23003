"""Mean-field control with common noise on the one solvable
linear-quadratic instance that the experiments check: value-function
generator, residuals of the dynamic-programming equation, and Monte Carlo
checks of the dynamic programming principle.

The instance is scalar with dX = a dt + sigma dW + sigma0 dW0, running
reward -a^2/2 - (q/2)(x - mean)^2 - (r/2) mean^2 and terminal reward
-(c_g/2) Var - (c_m/2) mean^2.  A quadratic-in-moments ansatz
V = P(t) Var(m) + R(t) mean(m)^2 + c(t) closes the equation into scalar
Riccati equations dP/dt = q/2 - 2 P^2, dR/dt = r/2 - 2 R^2 and
dc/dt = -(P sigma^2 + R sigma0^2), solved backward by fixed-step RK4
with step halving.

The module serves this instance only, so its reward and coefficients are
written where they are used, from :attr:`ControlProblem.constants`: the
running reward in :func:`dpp_check`, in :func:`_lq_generator_grid` and in
:func:`constant_control_gap`'s ODE, and the terminal reward in
:meth:`ControlProblem.terminal_reward`.

The DPP gate and the allowance checks are ``condflow._gate``'s.

The checks run as arrays, in blocks of :data:`_HJB_NODE_BLOCK` lattice
nodes and in the time windows of about 2^16 particle steps in which
``particle.simulate_ensemble`` runs a ``particle.Sweep``: fixed budgets,
not options, that bound the memory and change no output bit.
"""

from dataclasses import dataclass, field, replace
from functools import partial
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from . import _gate
from ._normal import ndtr
from .errors import InvalidArgumentError, NumericOverflowError
from .measures import EmpiricalMeasure, empirical
from .particle import Sweep, gaussian_quantile_initial, simulate_ensemble
from .paths import RngStream, constant_coefficients, make_uniform_partition

__all__ = [
    "measure_mean",
    "measure_variance",
    "ControlProblem",
    "make_lq_problem",
    "LqValue",
    "solve_lq_value",
    "AffineFeedback",
    "RiccatiFeedback",
    "constant_feedback",
    "HjbNode",
    "HjbReport",
    "hjb_residual",
    "nonparametric_gap",
    "DppResult",
    "dpp_check",
    "constant_control_gap",
]


# ---------------------------------------------------------------------------
# measure arguments


def measure_mean(m: EmpiricalMeasure) -> float | np.ndarray:
    """The mean of ``m``: a Python float, or for the batch of measures of
    an Euler sweep (see ``particle.Sweep``) the (M, 1)
    column of its row means."""
    return m.average(m.atoms)


def measure_variance(m: EmpiricalMeasure) -> float | np.ndarray:
    mu = measure_mean(m)
    return m.average((m.atoms - mu) ** 2)


# ---------------------------------------------------------------------------
# problem and value candidates


@dataclass(frozen=True)
class ControlProblem:
    """The linear-quadratic instance: its ``constants`` q, r, c_g, c_m,
    sigma and sigma0, the horizon, and the control interval
    [-a_max, a_max].

    Every consumer reads the constants and writes the instance's reward
    and coefficients where it uses them (see the module docstring).
    """

    constants: Mapping[str, float]
    horizon: float
    a_max: float

    def __post_init__(self):
        if not np.isfinite(self.a_max) or self.a_max <= 0:
            raise InvalidArgumentError("control bound must be positive and finite")

    def terminal_reward(self, mean: float, var: float) -> float:
        """The terminal reward of a measure with this mean and variance."""
        consts = self.constants
        return -0.5 * consts["c_g"] * var - 0.5 * consts["c_m"] * mean**2


def make_lq_problem(
    q: float = 1.0,
    r: float = 0.5,
    c_g: float = 0.5,
    c_m: float = 0.5,
    sigma: float = 0.4,
    sigma0: float = 0.3,
    horizon: float = 1.0,
    a_max: float | None = None,
) -> tuple[ControlProblem, "LqValue"]:
    """The scalar linear-quadratic instance with common noise, and its
    value candidate from one Riccati solve.

    When ``a_max`` is omitted it is set to twice the sup of the optimal
    feedback over the lattice of :func:`hjb_residual`, so the clamp never
    binds there; the solve does not depend on ``a_max``.
    """
    constants = {"q": q, "r": r, "c_g": c_g, "c_m": c_m, "sigma": sigma, "sigma0": sigma0}
    bound = 1.0 if a_max is None else float(a_max)
    problem = ControlProblem(constants, horizon, bound)
    value = solve_lq_value(problem)
    if a_max is None:
        # the feedback is 2P (x - mean) + 2R mean, and the residual lattice
        # box has |mean| <= 1 and var <= 2, with atoms within 3 standard
        # deviations of the mean
        p_max = float(np.max(np.abs(value.p)))
        r_max = float(np.max(np.abs(value.r_coef)))
        bound = 2.0 * (2.0 * p_max * 3.0 * np.sqrt(2.0) + 2.0 * r_max)
        problem = replace(problem, a_max=float(bound))
    return problem, value


@dataclass(frozen=True, eq=False)
class LqValue:
    """Quadratic-in-moments value candidate backed by solved trajectories.

    ``p_offset`` is added to P after its time derivative is taken, so
    ``replace(value, p_offset=eps)`` is the candidate V + eps Var(m) with
    the base's time derivative: a wrong candidate that the residual test
    must reject.

    :meth:`quad_coeffs` is memoised per value object: the feedback control
    reads it at every step of a sweep, mostly at times it has seen.  The
    memo is not an init field, so ``replace`` gives the new candidate an
    empty memo of its own rather than the base's P.
    """

    ts: np.ndarray
    p: np.ndarray
    r_coef: np.ndarray
    c: np.ndarray
    constants: Mapping[str, float]
    ode_error: float
    p_offset: float = 0.0
    _memo: dict = field(init=False, default_factory=dict, repr=False)

    def quad_coeffs(self, t: float) -> Mapping[str, float]:
        """P, R, c and their time derivatives at ``t``, as a read-only view
        of the memo's entry."""
        t = float(t)
        qc = self._memo.get(t)
        if qc is not None:
            return qc
        q = self.constants["q"]
        r = self.constants["r"]
        sigma = self.constants["sigma"]
        sigma0 = self.constants["sigma0"]
        p = float(np.interp(t, self.ts, self.p))
        rr = float(np.interp(t, self.ts, self.r_coef))
        cc = float(np.interp(t, self.ts, self.c))
        qc = self._memo[t] = MappingProxyType({
            "P": p + self.p_offset,
            "R": rr,
            "c": cc,
            "dP": 0.5 * q - 2.0 * p * p,
            "dR": 0.5 * r - 2.0 * rr * rr,
            "dc": -(p * sigma**2 + rr * sigma0**2),
        })
        return qc

    def value(self, t: float, mean: float, var: float) -> float:
        """V at ``t`` of a measure with this mean and variance."""
        qc = self.quad_coeffs(t)
        return qc["P"] * var + qc["R"] * mean**2 + qc["c"]

    def d_lions(self, t: float, m, x):
        qc = self.quad_coeffs(t)
        mu = measure_mean(m)
        return 2.0 * qc["P"] * (np.asarray(x) - mu) + 2.0 * qc["R"] * mu


def _rk4_backward(rhs: Callable, terminal: np.ndarray, t1: float, t0: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """RK4 from ``terminal`` at t1 back to t0 in ``steps`` equal steps.

    The state is a list of Python floats and ``rhs(t, state)`` returns a
    tuple of them, so a step of this few-component system costs float
    operations, not small-array calls; the operations and their order
    are those of the array form, so the result is the same to the bit.
    Each step is stored into one preallocated array, which holds no
    per-step Python objects.
    """
    ts = np.linspace(t1, t0, steps + 1)
    h = (t0 - t1) / steps  # negative
    half, sixth = 0.5 * h, h / 6.0
    out = np.empty((steps + 1, terminal.size))
    out[0] = terminal
    state = terminal.tolist()
    for i, t in enumerate(ts[:-1].tolist(), 1):
        k1 = rhs(t, state)
        k2 = rhs(t + half, [s + half * k for s, k in zip(state, k1)])
        k3 = rhs(t + half, [s + half * k for s, k in zip(state, k2)])
        k4 = rhs(t + h, [s + h * k for s, k in zip(state, k3)])
        state = [s + sixth * (a + 2.0 * b + 2.0 * c + d) for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
        out[i] = state
    return ts, out


# two successive halvings must agree this closely at their shared nodes
_RICCATI_TOL = 1e-8
# the stored grid has at least this many steps, so that the linear
# interpolation between its nodes stays below the solve tolerance
_RICCATI_MIN_STEPS = 4096
# the halving stops here whatever the agreement, so a stiff instance ends
_RICCATI_MAX_STEPS = 1 << 17


def solve_lq_value(problem: ControlProblem) -> LqValue:
    """Backward RK4 solve of the Riccati system with step halving.

    Halves the step until two successive solutions agree below
    :data:`_RICCATI_TOL` at shared grid points and the grid has at least
    :data:`_RICCATI_MIN_STEPS` steps; the terminal values are imposed
    exactly.  The first solve has half the least step count, since no
    coarser solve could end the halving.  A solution that overflows
    raises ``NumericOverflowError``.
    """
    consts = problem.constants
    q, r = consts["q"], consts["r"]
    terminal = np.array([-0.5 * consts["c_g"], -0.5 * consts["c_m"], 0.0])
    try:  # a Python float's ** raises where * would give inf
        sigma2, sigma02 = consts["sigma"] ** 2, consts["sigma0"] ** 2
    except OverflowError:
        raise NumericOverflowError("sigma**2 or sigma0**2 overflows") from None

    def rhs(t, s):
        p, rr, _ = s
        return 0.5 * q - 2.0 * p * p, 0.5 * r - 2.0 * rr * rr, -(p * sigma2 + rr * sigma02)

    steps = _RICCATI_MIN_STEPS // 2
    ts, sol = _rk4_backward(rhs, terminal, problem.horizon, 0.0, steps)
    while True:
        ts2, sol2 = _rk4_backward(rhs, terminal, problem.horizon, 0.0, 2 * steps)
        err = float(np.max(np.abs(sol2[::2] - sol)))
        ts, sol, steps = ts2, sol2, 2 * steps
        # a non-finite err means a non-finite solution, which no halving mends
        if err < _RICCATI_TOL or steps >= _RICCATI_MAX_STEPS or not np.isfinite(err):
            break
    if not np.isfinite(err):
        raise NumericOverflowError("the Riccati solution overflows")
    order = np.argsort(ts)
    ts = ts[order]
    sol = sol[order]
    # pin the terminal condition exactly
    sol[-1] = terminal
    return LqValue(ts, sol[:, 0], sol[:, 1], sol[:, 2], consts, err)


# ---------------------------------------------------------------------------
# feedback controls


@dataclass(frozen=True)
class AffineFeedback:
    """a(x) = clamp(c0 + c1 (x - mean(m))) into [-a_max, a_max]."""

    c0: float
    c1: float
    a_max: float

    def __call__(self, t, x, m):
        mu = measure_mean(m)
        return np.clip(self.c0 + self.c1 * (np.asarray(x) - mu), -self.a_max, self.a_max)


@dataclass(frozen=True)
class RiccatiFeedback:
    """Clamped optimal feedback 2P(t)(x - mean) + 2R(t) mean, the value's
    Lions derivative."""

    value: LqValue
    a_max: float

    def __call__(self, t, x, m):
        return np.clip(self.value.d_lions(t, m, x), -self.a_max, self.a_max)


def constant_feedback(a: float, a_max: float) -> AffineFeedback:
    if abs(a) > a_max:
        raise InvalidArgumentError("constant control outside the control set")
    return AffineFeedback(float(a), 0.0, a_max)


# ---------------------------------------------------------------------------
# generator evaluation


def _norm_pdf(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def _censored_affine_moments(alpha, beta, bound):
    """E[W], E[W Z], E[W^2] for W = clip(alpha + beta Z, -bound, bound), Z ~ N(0,1).

    Vectorized over alpha/beta arrays.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    sign = np.where(beta < 0, -1.0, 1.0)
    b_abs = np.abs(beta)
    lo, hi = -bound, bound
    with np.errstate(divide="ignore", invalid="ignore"):
        a_edge = np.where(b_abs > 0, (lo - alpha) / np.where(b_abs > 0, b_abs, 1.0), -np.inf)
        b_edge = np.where(b_abs > 0, (hi - alpha) / np.where(b_abs > 0, b_abs, 1.0), np.inf)
    ca, cb = ndtr(a_edge), ndtr(b_edge)
    a_fin = np.where(np.isfinite(a_edge), a_edge, 0.0)
    b_fin = np.where(np.isfinite(b_edge), b_edge, 0.0)
    pa = np.where(np.isfinite(a_edge), _norm_pdf(a_fin), 0.0)
    pb = np.where(np.isfinite(b_edge), _norm_pdf(b_fin), 0.0)
    a_pa = a_fin * pa
    b_pb = b_fin * pb
    p_mid = cb - ca
    z2_mid = p_mid + a_pa - b_pb
    ew = lo * ca + hi * (1.0 - cb) + alpha * p_mid + b_abs * (pa - pb)
    ewz = -lo * pa + hi * pb + alpha * (pa - pb) + b_abs * z2_mid
    ew2 = (
        lo * lo * ca
        + hi * hi * (1.0 - cb)
        + alpha * alpha * p_mid
        + 2.0 * alpha * b_abs * (pa - pb)
        + b_abs * b_abs * z2_mid
    )
    clipped_const = np.clip(alpha, lo, hi)
    ew = np.where(b_abs == 0, clipped_const, ew)
    ewz = np.where(b_abs == 0, 0.0, sign * ewz)
    ew2 = np.where(b_abs == 0, clipped_const**2, ew2)
    return ew, ewz, ew2


def _lq_generator_grid(problem: ControlProblem, value, nodes, c0, c1, moments=None):
    """Reward-augmented generator of the value candidate on (c0, c1)
    grids of clamped affine feedbacks, under the Gaussian surrogate.

    The reward and drift integrals are exact censored-Gaussian moments.
    The second-order terms are constants, since the diffusion
    coefficients are constant and V's second derivatives are 2P in x and
    2(R - P) across atoms.

    ``nodes`` is a sequence of (t, mean, var) and ``c0``, ``c1`` hold one
    row of grid points per node.  The terms that depend on the node alone
    are Python-float expressions stacked into (nodes, 1) columns, so each
    row is what its node alone gives: a Python float's ``mean**2`` goes
    through libm ``pow`` and numpy's ``x**2`` through x*x, which differ in
    the last bit for some inputs.

    ``moments``, if given, is what :func:`_censored_affine_moments` gives
    on these grids, computed beforehand; the grids are then not read.
    """
    consts = problem.constants
    q, r = consts["q"], consts["r"]
    sigma, sigma0 = consts["sigma"], consts["sigma0"]
    columns = []
    for t, mean, var in nodes:
        qc = value.quad_coeffs(t)
        s = np.sqrt(var)
        columns.append((
            s,
            0.5 * q * var,
            0.5 * r * mean**2,
            2.0 * qc["P"] * s,
            2.0 * qc["R"] * mean,
            qc["P"] * (sigma**2 + sigma0**2),
            sigma0**2 * (qc["R"] - qc["P"]),
            qc["dP"] * var + qc["dR"] * mean**2 + qc["dc"],
        ))
    s, q_var, r_mean2, p_s, r_mean, second, cross, dtv = np.array(columns).T[:, :, None]
    if moments is None:
        moments = _censored_affine_moments(np.asarray(c0, dtype=float), np.asarray(c1, dtype=float) * s, problem.a_max)
    ew, ewz, ew2 = moments
    fbar = -0.5 * ew2 - q_var - r_mean2
    drift = p_s * ewz + r_mean * ew
    return dtv + fbar + drift + second + cross


# ---------------------------------------------------------------------------
# dynamic-programming residuals on the moment lattice


@dataclass(frozen=True)
class HjbNode:
    t: float
    mean: float
    var: float
    residual: float
    best_c0: float
    best_c1: float


@dataclass(frozen=True)
class HjbReport:
    nodes: tuple[HjbNode, ...]
    max_abs_residual: float
    terminal_gap: float
    tol: float
    passed: bool


# lattice nodes per generator call: a node's grid has 41^2 = 1,681 points
# and the generator holds a few dozen temporaries of that size; on the
# residual lattice a block of 5 raised the peak RSS of hjb_residual by
# 1.6 MiB (one node: 0.5 MiB) and all 225 nodes at once by 68 MiB
_HJB_NODE_BLOCK = 5


def _linspace_rows(lo: np.ndarray, hi: np.ndarray, pts: int) -> np.ndarray:
    """Row k is ``np.linspace(lo[k], hi[k], pts)`` to the bit.

    ``np.linspace`` with array endpoints switches every row to its
    zero-step formula when any one step underflows to zero; here only
    that row takes it.
    """
    delta = hi - lo
    step = delta / (pts - 1)
    i = np.arange(pts, dtype=float)
    rows = np.where((step == 0)[:, None], i / (pts - 1) * delta[:, None], i * step[:, None])
    rows += lo[:, None]
    rows[:, -1] = hi
    return rows


# points per axis of each stage of the refined sup
_SUP_POINTS = (41, 21, 21)


def _mesh_rows(c0_lo, c0_hi, c1_lo, c1_hi, pts: int):
    """Row k is node k's (c0, c1) meshgrid in "ij" order, raveled."""
    grid0 = np.repeat(_linspace_rows(c0_lo, c0_hi, pts), pts, axis=1)
    grid1 = np.tile(_linspace_rows(c1_lo, c1_hi, pts), pts)
    return grid0, grid1


def _refined_sup(objective: Callable, num_nodes: int, c0_span: float, c1_span: float, first: Callable | None = None):
    """Per node, (sup, c0, c1) of ``objective`` over a 41-point grid on
    [-span, span]^2, refined twice on 21-point grids around the best point.

    ``objective(c0s, c1s)`` takes and returns (num_nodes, points) arrays,
    row k being node k's grid, so a block of nodes takes one call per
    stage and each row gets what its node alone would.  ``first``, if
    given, stands in for ``objective`` on the first stage, whose grid is
    the same for every node, so that a caller can reuse what it computed
    on that grid once.  Returns three (num_nodes,) arrays.
    """
    rows = np.arange(num_nodes)
    c0_lo, c0_hi = np.full(num_nodes, -c0_span), np.full(num_nodes, c0_span)
    c1_lo, c1_hi = np.full(num_nodes, -c1_span), np.full(num_nodes, c1_span)
    best, best0, best1 = np.full(num_nodes, -np.inf), np.zeros(num_nodes), np.zeros(num_nodes)
    for stage, pts in enumerate(_SUP_POINTS):
        grid0, grid1 = _mesh_rows(c0_lo, c0_hi, c1_lo, c1_hi, pts)
        vals = (objective if stage or first is None else first)(grid0, grid1)
        idx = np.argmax(vals, axis=1)
        top, b0, b1 = vals[rows, idx], grid0[rows, idx], grid1[rows, idx]
        better = top > best
        best, best0, best1 = np.where(better, top, best), np.where(better, b0, best0), np.where(better, b1, best1)
        step0 = (c0_hi - c0_lo) / (pts - 1)
        step1 = (c1_hi - c1_lo) / (pts - 1)
        c0_lo, c0_hi = b0 - 1.5 * step0, b0 + 1.5 * step0
        c1_lo, c1_hi = b1 - 1.5 * step1, b1 + 1.5 * step1
    return best, best0, best1


def hjb_residual(problem: ControlProblem, value, tol: float = 1e-4) -> HjbReport:
    """Residual of the dynamic-programming equation over the moment lattice.

    The lattice takes 9 evenly spaced times in [0, horizon], 5 means in
    [-1, 1] and 5 variances in [0.25, 2], 225 nodes.  At each
    (t, mean, var) node the inner sup runs over the clamped affine
    feedback family on a refined (c0, c1) grid; the optimizer of the
    instance is itself a clamped affine map, so the family is exact up
    to grid resolution.  The residual is minus the sup of the
    reward-augmented generator; terminal exactness |V(T) - g| is checked
    on the same (mean, var) nodes.

    The nodes run through the refined sup in blocks of
    :data:`_HJB_NODE_BLOCK`, in lattice order, one generator call per
    block and stage instead of one per node and stage; the block size
    bounds the memory and does not change the result.  The first stage
    runs one grid for every node, so there a node's censored moments
    (the generator's ``ndtr`` calls) depend on its variance alone: they
    are computed once per variance and call, not once per node.
    Elementwise, they are the same bits either way.  ``tol`` must be
    nonnegative and finite (``condflow._gate.require_allowance``).
    """
    _gate.require_allowance("tol", tol)
    t_nodes = np.linspace(0.0, problem.horizon, 9)
    mean_nodes = np.linspace(-1.0, 1.0, 5)
    var_nodes = np.linspace(0.25, 2.0, 5)
    lattice = [(float(t), float(mu), float(var)) for t in t_nodes for mu in mean_nodes for var in var_nodes]
    span = np.array([problem.a_max])
    c0, c1 = _mesh_rows(-span, span, -span, span, _SUP_POINTS[0])
    first_moments = _censored_affine_moments(c0, c1 * np.sqrt(var_nodes)[:, None], problem.a_max)
    var_row = {float(var): k for k, var in enumerate(var_nodes)}
    nodes = []
    for start in range(0, len(lattice), _HJB_NODE_BLOCK):
        block = lattice[start : start + _HJB_NODE_BLOCK]
        grid = partial(_lq_generator_grid, problem, value, block)
        rows = [var_row[var] for _, _, var in block]
        first = partial(grid, moments=tuple(m[rows] for m in first_moments))
        sups, b0s, b1s = _refined_sup(grid, len(block), problem.a_max, problem.a_max, first)
        for (t, mu, var), sup, b0, b1 in zip(block, sups.tolist(), b0s.tolist(), b1s.tolist()):
            nodes.append(HjbNode(t, mu, var, -sup, b0, b1))
    terminal_gap = 0.0
    for mu in mean_nodes.tolist():
        for var in var_nodes.tolist():
            gap = abs(value.value(problem.horizon, mu, var) - problem.terminal_reward(mu, var))
            terminal_gap = max(terminal_gap, gap)
    max_abs = max(abs(nd.residual) for nd in nodes)
    return HjbReport(tuple(nodes), max_abs, terminal_gap, tol, max_abs <= tol and terminal_gap == 0.0)


def nonparametric_gap(problem: ControlProblem, value, t: float, m: EmpiricalMeasure) -> dict[str, float]:
    """Spot-check of the affine-family restriction at one node.

    Compares the affine-family sup against the exact pointwise optimizer,
    both evaluated on the same atom cloud.
    """
    # the value function is solved on [0, horizon]; outside it np.interp
    # would freeze the Lions derivative at its end values
    if not 0.0 <= t <= problem.horizon:
        raise InvalidArgumentError(f"need 0 <= t <= horizon = {problem.horizon}, got t = {t}")
    x = np.sort(m.atoms)
    cloud = EmpiricalMeasure(x)
    dl = np.asarray(value.d_lions(t, cloud, x), dtype=float)

    def a_part(a):
        return -0.5 * a**2 + a * dl

    pointwise = float(np.mean(a_part(np.clip(dl, -problem.a_max, problem.a_max))))
    mu = measure_mean(cloud)

    def affine(c0, c1):  # one node: a (1, points) row each
        a_grid = np.clip(
            c0.T + c1.T * (x - mu)[None, :],
            -problem.a_max,
            problem.a_max,
        )
        return (-0.5 * a_grid**2 + a_grid * dl[None, :]).mean(axis=1)[None, :]

    sups, _, _ = _refined_sup(affine, 1, problem.a_max, problem.a_max)
    best = float(sups[0])
    return {
        "pointwise_sup": pointwise,
        "affine_sup": best,
        "family_gap": pointwise - best,
    }


# ---------------------------------------------------------------------------
# dynamic programming principle


@dataclass(frozen=True)
class DppResult:
    estimate: float
    stderr: float
    tol: float
    verdict: str
    oracle_gap: float | None


def dpp_check(
    problem: ControlProblem,
    value,
    control,
    t0: float,
    theta: float,
    mean0: float,
    var0: float,
    num_particles: int,
    num_cells: int,
    outer_paths: int,
    rng: RngStream,
    tolerance_c: float = 2.0,
) -> DppResult:
    """Monte Carlo gap E[int f ds + V(theta, mu_theta)] - V(t0, mu_t0).

    The gap should vanish (within ``condflow._gate``'s 3 SE + C max dt)
    for the optimal feedback and be significantly negative for suboptimal
    controls; for constant controls the result carries the exact
    linear-ansatz prediction.  C = ``tolerance_c`` must be nonnegative and
    finite, so a gap outside the tolerance is either above it
    ("dpp-violation") or below -3 SE ("suboptimal").

    The M = ``outer_paths`` repetitions, repetition r on
    ``rng.child(r)``, run as one :class:`particle.Sweep` of the M
    streams, window by window by :func:`simulate_ensemble`; the feedback
    reads each repetition's own empirical measure.  After each window
    the running reward of every repetition is evaluated at once and
    summed cell by cell, in order, so the result does not depend on the
    window.  A reward, value or gap that overflows raises
    ``NumericOverflowError``.
    """
    # the value function is solved on [0, horizon]; outside it np.interp
    # would freeze V and the feedback at their end values
    if not 0.0 <= t0 < theta <= problem.horizon:
        raise InvalidArgumentError(
            f"need 0 <= t0 < theta <= horizon = {problem.horizon}, got t0 = {t0} and theta = {theta}"
        )
    if outer_paths < 2:  # one repetition has no standard error
        raise InvalidArgumentError("the DPP check needs at least 2 outer repetitions")
    _gate.require_allowance("tolerance_c", tolerance_c)
    part = make_uniform_partition(theta - t0, num_cells)
    dt = part.deltas
    consts = problem.constants
    q, r = consts["q"], consts["r"]
    # the drift is the control, which the feedbacks clamp into [-a_max, a_max];
    # no coefficient reads the time, so only the control is shifted to t0
    coeffs = replace(
        constant_coefficients(b=problem.a_max, sigma=consts["sigma"], sigma0=consts["sigma0"]),
        drift=lambda t, x, y, m, a: a,
    )

    def shifted_control(t, x, m):
        return control(t0 + t, x, m)

    initial = gaussian_quantile_initial(mean0, var0)
    # the quantile atoms do not depend on the stream: every repetition starts here
    atoms = initial(None, num_particles)
    streams = [rng.child(rep) for rep in range(outer_paths)]
    sweep = Sweep(coeffs, initial, num_particles, part, streams, control=shifted_control)
    reward = np.zeros(outer_paths)
    try:  # a Python float's ** raises where * would give inf
        while not sweep.done:
            ens = simulate_ensemble(sweep)
            x, a = ens.states[:-1], ens.control_values
            # the row means as Python floats, so that mean**2 is each row's
            # own pow, as in _lq_generator_grid
            means = x.mean(axis=-1)
            r_mean2 = np.array([0.5 * r * mean**2 for mean in means.ravel().tolist()]).reshape(means.shape)
            f_vals = -0.5 * a**2 - 0.5 * q * (x - means[..., None]) ** 2 - r_mean2[..., None]
            for f_k, h in zip(f_vals.mean(axis=-1), ens.deltas.tolist()):
                reward += f_k * h
        m0 = empirical(atoms)
        v_start = value.value(t0, measure_mean(m0), measure_variance(m0))
        v_end = [value.value(theta, measure_mean(m), measure_variance(m)) for m in map(empirical, ens.states[-1])]
    except OverflowError:
        raise NumericOverflowError("the DPP reward or value overflows") from None
    gaps = np.array([reward_r + v_r - v_start for reward_r, v_r in zip(reward.tolist(), v_end)])
    estimate, se = _gate.mean_se(gaps)
    tol = _gate.tolerance(se, tolerance_c * float(dt.max()))
    if abs(estimate) <= tol:
        verdict = "optimal-consistent"
    elif estimate > tol:
        verdict = "dpp-violation"
    else:  # below -tol <= -3 SE
        verdict = "suboptimal"
    oracle = None
    if isinstance(control, AffineFeedback) and control.c1 == 0.0:
        oracle = constant_control_gap(
            problem, value, control.c0, t0, theta, float(atoms.mean()), float(atoms.var())
        )
    return DppResult(estimate, se, tol, verdict, oracle)


def constant_control_gap(
    problem: ControlProblem, value, a: float, t0: float, theta: float, mean: float, var: float
) -> float:
    """Exact gap prediction for a constant control via the linear ansatz.

    The policy value under constant a is quadratic in the moments with
    coefficients solving linear backward equations matched to V at theta;
    RK4 with a halving check integrates them.
    """
    consts = problem.constants
    q, r = consts["q"], consts["r"]
    sigma, sigma0 = consts["sigma"], consts["sigma0"]
    qc_end = value.quad_coeffs(theta)
    terminal = np.array([qc_end["P"], qc_end["R"], 0.0, qc_end["c"]])

    def rhs(t, s):
        p, rr, sw, _ = s
        return 0.5 * q, 0.5 * r, -2.0 * a * rr, 0.5 * a * a - a * sw - (p * sigma**2 + rr * sigma0**2)

    steps = 1024
    _, sol = _rk4_backward(rhs, terminal, theta, t0, steps)
    _, sol2 = _rk4_backward(rhs, terminal, theta, t0, 2 * steps)
    if float(np.max(np.abs(sol2[::2] - sol))) > 1e-9:
        sol = sol2
    p_w, r_w, s_w, c_w = sol[-1]
    qc0 = value.quad_coeffs(t0)
    return float(
        (p_w - qc0["P"]) * var + (r_w - qc0["R"]) * mean**2 + s_w * mean + (c_w - qc0["c"])
    )
