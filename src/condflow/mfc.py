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

The residual of the dynamic-programming equation takes the Hamiltonian's
sup in closed form, one generator call for the whole lattice.  The DPP
check runs in the time windows of about 2^16 particle steps in which
``particle.simulate_ensemble`` runs a ``particle.Sweep``: a fixed budget,
not an option, that bounds the memory and changes no output bit.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property
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

    The time derivatives dP, dR and dc are those of the tables
    themselves, second-order differences on ``ts``, not the Riccati
    right-hand side at the interpolated values: the residual of the
    dynamic-programming equation then sees a table that does not solve
    the equations.  ``p_offset`` is added to P after its time derivative
    is taken, so ``replace(value, p_offset=eps)`` is the candidate
    V + eps Var(m) with the base's time derivative: a wrong candidate
    that the residual test must reject.

    :meth:`quad_coeffs` is memoised per value object, and so are the
    derivative tables: the feedback control reads it at every step of a
    sweep, mostly at times it has seen.  Neither is an init field, so
    ``replace`` gives the new candidate its own rather than the base's.
    """

    ts: np.ndarray
    p: np.ndarray
    r_coef: np.ndarray
    c: np.ndarray
    ode_error: float
    p_offset: float = 0.0
    _memo: dict = field(init=False, default_factory=dict, repr=False)

    @cached_property
    def _slopes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The time derivatives of the P, R and c tables on ``ts``; a table
        of two times has only the first-order difference."""
        order = min(2, self.ts.size - 1)
        return tuple(np.gradient(table, self.ts, edge_order=order) for table in (self.p, self.r_coef, self.c))

    def quad_coeffs(self, t: float) -> Mapping[str, float]:
        """P, R, c and their time derivatives at ``t``, as a read-only view
        of the memo's entry."""
        t = float(t)
        qc = self._memo.get(t)
        if qc is not None:
            return qc
        dp, dr, dc = (float(np.interp(t, self.ts, slope)) for slope in self._slopes)
        qc = self._memo[t] = MappingProxyType({
            "P": float(np.interp(t, self.ts, self.p)) + self.p_offset,
            "R": float(np.interp(t, self.ts, self.r_coef)),
            "c": float(np.interp(t, self.ts, self.c)),
            "dP": dp,
            "dR": dr,
            "dc": dc,
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
    return LqValue(ts, sol[:, 0], sol[:, 1], sol[:, 2], err)


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


def _lq_generator_grid(problem: ControlProblem, value, nodes, c0, c1):
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
    ew, ewz, ew2 = _censored_affine_moments(np.asarray(c0, dtype=float), np.asarray(c1, dtype=float) * s, problem.a_max)
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


def hjb_residual(problem: ControlProblem, value, tol: float = 1e-6) -> HjbReport:
    """Residual of the dynamic-programming equation over the moment lattice.

    The lattice takes 9 evenly spaced times in [0, horizon], 5 means in
    [-1, 1] and 5 variances in [0.25, 2], 225 nodes.  At each
    (t, mean, var) node the inner sup runs over all feedbacks.  The
    Hamiltonian E[a dV/dm(x) - a^2/2] is concave in a at each x, so the
    sup is attained at a*(x) = clamp(dV/dm(x)) into [-a_max, a_max]
    (Pham & Wei, SIAM J. Control Optim. 2017).  The candidate's Lions
    derivative 2P(t)(x - mean) + 2R(t) mean is affine, so a* is the
    clamped affine feedback (c0, c1) = (2R(t) mean, 2P(t)), with the
    candidate's own P and R, and one generator call evaluates every node
    there.  The residual is minus that sup, and ``best_c0``/``best_c1``
    are the maximizer; terminal exactness |V(T) - g| is checked on the
    same (mean, var) nodes.

    ``tol`` must be nonnegative and finite
    (``condflow._gate.require_allowance``).  Its default, 1e-6, is about
    a hundred times the residual of the solved tables on the default
    instance (1.05e-8), the error of their second-order time
    differences; tables that solve other equations give 1e-2 and more.
    """
    _gate.require_allowance("tol", tol)
    t_nodes = np.linspace(0.0, problem.horizon, 9)
    mean_nodes = np.linspace(-1.0, 1.0, 5)
    var_nodes = np.linspace(0.25, 2.0, 5)
    lattice = [(float(t), float(mu), float(var)) for t in t_nodes for mu in mean_nodes for var in var_nodes]
    best = []
    for t, mu, _ in lattice:
        qc = value.quad_coeffs(t)
        best.append((2.0 * qc["R"] * mu, 2.0 * qc["P"]))
    c0, c1 = np.array(best).T[:, :, None]
    sups = _lq_generator_grid(problem, value, lattice, c0, c1)[:, 0].tolist()
    nodes = [HjbNode(t, mu, var, -sup, b0, b1) for (t, mu, var), sup, (b0, b1) in zip(lattice, sups, best)]
    terminal_gap = 0.0
    for mu in mean_nodes.tolist():
        for var in var_nodes.tolist():
            gap = abs(value.value(problem.horizon, mu, var) - problem.terminal_reward(mu, var))
            terminal_gap = max(terminal_gap, gap)
    max_abs = max(abs(nd.residual) for nd in nodes)
    return HjbReport(tuple(nodes), max_abs, terminal_gap, tol, max_abs <= tol and terminal_gap == 0.0)


def nonparametric_gap(problem: ControlProblem, value, t: float, m: EmpiricalMeasure) -> dict[str, float]:
    """Spot-check of the affine-family restriction at one node.

    Compares the pointwise optimizer clamp(dV/dm(x)) against the clamped
    affine feedback (c0, c1) = (2R(t) mean, 2P(t)) at which
    :func:`hjb_residual` takes its sup, both evaluated on the same atom
    cloud.  The two are one map written twice, so ``family_gap`` is
    exactly 0.0 for the quadratic candidate: the check stays because the
    benchmark's span tracer and the ``family_gap.csv`` table still name
    it, and goes together with them.
    """
    # the value function is solved on [0, horizon]; outside it np.interp
    # would freeze the Lions derivative at its end values
    if not 0.0 <= t <= problem.horizon:
        raise InvalidArgumentError(f"need 0 <= t <= horizon = {problem.horizon}, got t = {t}")
    x = np.sort(m.atoms)
    cloud = EmpiricalMeasure(x)
    dl = np.asarray(value.d_lions(t, cloud, x), dtype=float)

    def a_part(a):
        return float(np.mean(-0.5 * a**2 + a * dl))

    qc = value.quad_coeffs(t)
    affine = AffineFeedback(2.0 * qc["R"] * measure_mean(cloud), 2.0 * qc["P"], problem.a_max)
    pointwise = a_part(np.clip(dl, -problem.a_max, problem.a_max))
    best = a_part(affine(t, x, cloud))
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
    reads each repetition's own empirical measure.  The feedback, read at
    time t0 + t, is the drift coefficient, so each window stores the
    control's (cells, M, N) values once, as its ``drift_values``.  After
    each window the running reward of every repetition is evaluated at
    once, in one buffer of the window's shape, and summed cell by cell,
    in order, so the result does not depend on the window.  A reward,
    value or gap that overflows raises ``NumericOverflowError``.
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
    # no other coefficient reads the time, so only the drift is shifted to t0
    coeffs = replace(
        constant_coefficients(b=problem.a_max, sigma=consts["sigma"], sigma0=consts["sigma0"]),
        drift=lambda t, x, y, m: control(t0 + t, x, m),
    )

    initial = gaussian_quantile_initial(mean0, var0)
    # the quantile atoms do not depend on the stream: every repetition starts here
    atoms = initial(None, num_particles)
    streams = [rng.child(rep) for rep in range(outer_paths)]
    sweep = Sweep(coeffs, initial, num_particles, part, streams)
    reward = np.zeros(outer_paths)
    try:  # a Python float's ** raises where * would give inf
        while not sweep.done:
            ens = simulate_ensemble(sweep)
            x, a = ens.states[:-1], ens.drift_values
            # the row means as Python floats, so that mean**2 is each row's
            # own pow, as in _lq_generator_grid
            means = x.mean(axis=-1)
            r_mean2 = np.array([0.5 * r * mean**2 for mean in means.ravel().tolist()]).reshape(means.shape)
            # -a^2/2 - (q/2)(x - mean)^2 - (r/2) mean^2 in one buffer, in
            # the order of the expression: the same bits as written out
            f_vals = np.square(np.broadcast_to(a, x.shape))
            f_vals *= -0.5
            f_vals -= 0.5 * q * (x - means[..., None]) ** 2
            f_vals -= r_mean2[..., None]
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
