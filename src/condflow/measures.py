"""Empirical measures and the exact derivative calculus of cylindrical
functionals u(m) = F(<phi_1, m>, ..., <phi_k, m>).

The functional linear derivative of a cylindrical u has the closed form

    delta_m u(m, x)        = sum_a  dF_a(v(m)) phi_a(x)
    delta_m^2 u(m, x, xh)  = sum_ab d2F_ab(v(m)) phi_a(x) phi_b(xh)

with v_a(m) = <phi_a, m>.  The chain rules need three more fields: the
x-gradient of the first expression (the measure derivative in the Lions
sense), that gradient's own x-derivative, and the mixed x, xh gradient
of the second.  The calculus exists in two forms.  :func:`delta_m`
evaluates the first derivative pointwise; the finite-difference and
quadrature checks below validate it against the defining directional
limits.  :class:`_Tables` evaluates the test functions and their x-
derivatives once along a window of particle states, and contracts them
with rows of outer derivatives dF, d2F into the per-cell particle means
(gradient and Hessian fields) and ordered-pair averages (mixed field)
that the chain-rule verifiers integrate.

Atoms are scalar: a measure is a (N,) atom array, or a batch of M
uniform measures, one per row of a (M, N) array, as an Euler sweep
hands its coefficients (see ``particle.simulate_ensemble``).  The
derivative calculus and its checks take one measure.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError, NumericOverflowError

__all__ = [
    "EmpiricalMeasure",
    "TestFunction",
    "OuterFunction",
    "CylindricalFunctional",
    "MeasurePair",
    "empirical",
    "evaluate",
    "delta_m",
    "FdRow",
    "fd_check_dm",
    "fd_check_dm2",
    "fd_orders_ok",
    "integral_identity_gap",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# Gauss-Legendre on [0, 1]; exact for polynomial integrands up to degree 31
_GL_LAMBDAS = 0.5 * (_GL_NODES + 1.0)
_GL_W01 = 0.5 * _GL_WEIGHTS


class EmpiricalMeasure:
    """Finitely supported measure on scalar atoms (a (N,) array) with
    uniform (or explicit) weights, or a batch of M uniform measures on
    the rows of a (M, N) array.

    :meth:`mean` and :meth:`average` reduce the last axis: a Python
    float for one measure (and a numpy float64 for its uniform
    :meth:`mean`), and the (M, 1) column of per-row values for a batch,
    which broadcasts against the atoms.  A batch takes no weights.
    """

    def __init__(self, atoms: np.ndarray, weights: np.ndarray | None = None):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim not in (1, 2) or atoms.size == 0:
            raise InvalidArgumentError("need a nonempty (N,) or (M, N) atom array")
        if not np.isfinite(atoms).all():
            raise InvalidArgumentError("atoms must be finite")
        self.atoms = atoms
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if atoms.ndim != 1:
                raise InvalidArgumentError("a batch of measures takes no weights")
            if weights.shape != (atoms.shape[0],):
                raise InvalidArgumentError("one weight per atom required")
            if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
                raise InvalidArgumentError("weights must be nonnegative and sum to 1")
        self.weights = weights

    @property
    def num_atoms(self) -> int:
        return self.atoms.shape[-1]

    def average(self, values: np.ndarray) -> float | np.ndarray:
        if self.weights is not None:
            return float(np.dot(self.weights, values))
        if self.atoms.ndim == 2:
            return np.mean(values, axis=-1, keepdims=True)
        return float(np.mean(values))

    def mean(self):
        if self.weights is None:
            return self.atoms.mean(axis=-1, keepdims=self.atoms.ndim == 2)
        return np.tensordot(self.weights, self.atoms, axes=1)


def empirical(atoms) -> EmpiricalMeasure:
    """Uniform-weight measure on the given atoms (duplicates allowed), or
    a batch of them on the rows of (M, N) atoms."""
    return EmpiricalMeasure(np.asarray(atoms, dtype=float))


@dataclass(frozen=True)
class TestFunction:
    """Scalar test function with exact first and second derivatives."""

    name: str
    value: Callable
    grad: Callable
    hess: Callable


@dataclass(frozen=True)
class OuterFunction:
    """Outer map F: R^k -> R; callables are vectorized over leading axes.

    ``grad``/``hess`` return arrays with trailing shape (k,) and (k, k).
    """

    name: str
    value: Callable
    grad: Callable
    hess: Callable
    polynomial: bool = True


@dataclass(frozen=True)
class CylindricalFunctional:
    """u(m) = F(<phi_1, m>, ..., <phi_k, m>) with exact derivative fields."""

    name: str
    outer: OuterFunction
    tests: tuple[TestFunction, ...]

    def __post_init__(self):
        if len(self.tests) < 1:
            raise InvalidArgumentError("need at least one test function")

    @property
    def k(self) -> int:
        return len(self.tests)


def moments(u: CylindricalFunctional, m: EmpiricalMeasure) -> np.ndarray:
    v = np.array([m.average(t.value(m.atoms)) for t in u.tests])
    if not np.all(np.isfinite(v)):
        raise NumericOverflowError("non-finite test-function averages")
    return v


def evaluate(u: CylindricalFunctional, m: EmpiricalMeasure) -> float:
    """u(m) = F of the test-function averages."""
    val = float(u.outer.value(moments(u, m)))
    if not np.isfinite(val):
        raise NumericOverflowError("non-finite functional value")
    return val


def delta_m(u: CylindricalFunctional, m: EmpiricalMeasure, x) -> np.ndarray | float:
    """Canonical representative of the first functional derivative at x."""
    g = u.outer.grad(moments(u, m))
    return sum(g[a] * u.tests[a].value(x) for a in range(u.k))


def _ustat_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # ordered-pair average per row (last axis) of two (..., N) arrays
    n_p = a.shape[-1]
    return (a.sum(axis=-1) * b.sum(axis=-1) - (a * b).sum(axis=-1)) / (n_p * (n_p - 1))


class _Tables:
    """Values/gradients/Hessians of the test functions along one window; each
    method is one per-cell integrand, contracted with outer-derivative rows.

    ``states`` has one row of particles per grid time: (n+1, M, N) for a
    sweep's window of M repetitions, or (n+1, N) for one measure.  Every
    particle mean reduces the last axis only, so each repetition's
    numbers are the ones its own (n+1, N) rows give, bit for bit.
    Outer-derivative rows carry the same leading axes, then the
    test-function axes.
    """

    def __init__(self, tests: Sequence[TestFunction], states: np.ndarray):
        self.vals = [np.asarray(t.value(states), dtype=float) for t in tests]
        self.grads = [np.asarray(t.grad(states), dtype=float) for t in tests]
        self.hesses = [np.asarray(t.hess(states), dtype=float) for t in tests]
        self.moments = np.stack([p.mean(axis=-1) for p in self.vals], axis=-1)  # (n+1, [M,] k)

    def grad_mean(self, d_outer: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-cell particle mean of sum_a dF_a grad(phi_a) * weights."""
        out = 0.0
        for a, g in enumerate(self.grads):
            out = out + d_outer[:-1, ..., a] * (g[:-1] * weights).mean(axis=-1)
        return out

    def hess_mean(self, d_outer: np.ndarray, weights: np.ndarray) -> np.ndarray:
        out = 0.0
        for a, h in enumerate(self.hesses):
            out = out + d_outer[:-1, ..., a] * (h[:-1] * weights).mean(axis=-1)
        return out

    def pair_mean(self, d2_outer: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-cell pair average of the mixed second-derivative kernel."""
        k = len(self.vals)
        out = 0.0
        for a in range(k):
            wa = self.grads[a][:-1] * weights
            for b in range(k):
                col = d2_outer[:-1, ..., a, b]
                if not np.any(col):
                    continue
                wb = self.grads[b][:-1] * weights
                out = out + col * _ustat_rows(wa, wb)
        return out


@dataclass(frozen=True)
class MeasurePair:
    """Pair (m, m') with the exact mixture lambda m' + (1 - lambda) m."""

    m: EmpiricalMeasure
    m_prime: EmpiricalMeasure

    def mixture(self, lam: float) -> EmpiricalMeasure:
        if lam < 0.0 or lam > 1.0:
            raise InvalidArgumentError("mixture parameter must lie in [0, 1]")
        if lam == 0.0:
            return self.m
        if lam == 1.0:
            return self.m_prime
        wm = (1.0 - lam) * (
            self.m.weights if self.m.weights is not None else np.full(self.m.num_atoms, 1.0 / self.m.num_atoms)
        )
        wp = lam * (
            self.m_prime.weights
            if self.m_prime.weights is not None
            else np.full(self.m_prime.num_atoms, 1.0 / self.m_prime.num_atoms)
        )
        return EmpiricalMeasure(
            np.concatenate([self.m.atoms, self.m_prime.atoms]), np.concatenate([wm, wp])
        )


def _pairing(values_on_mp: np.ndarray, mp: EmpiricalMeasure, values_on_m: np.ndarray, m: EmpiricalMeasure) -> float:
    # <f, m' - m> for f given by its values on each atom set
    return mp.average(values_on_mp) - m.average(values_on_m)


@dataclass(frozen=True)
class FdRow:
    eps: float
    error: float
    observed_order: float | None


def _attach_orders(rows: list[tuple[float, float]]) -> list[FdRow]:
    out: list[FdRow] = []
    for i, (eps, err) in enumerate(rows):
        order = None
        if i + 1 < len(rows):
            e2, err2 = rows[i + 1]
            if err > 1e-14 and err2 > 1e-14:
                order = float(np.log(err / err2) / np.log(eps / e2))
        out.append(FdRow(eps, err, order))
    return out


def _check_eps(eps_list: Sequence[float]) -> None:
    # an observed order needs two step sizes; with fewer the check passes unseen
    if len(eps_list) < 2:
        raise InvalidArgumentError("eps_list needs at least two step sizes")
    if any(e <= 0 for e in eps_list) or any(np.diff(eps_list) >= 0):
        raise InvalidArgumentError("eps_list must be positive and decreasing")


def fd_check_dm(
    u: CylindricalFunctional, pair: MeasurePair, eps_list: Sequence[float]
) -> list[FdRow]:
    """Directional finite differences of u against the derivative pairing.

    Rows report |(u(m + eps (m'-m)) - u(m)) / eps  -  <delta_m u(m), m'-m>|
    and the observed decay order between consecutive eps values.
    """
    _check_eps(eps_list)
    base = evaluate(u, pair.m)
    pairing = _pairing(
        np.asarray(delta_m(u, pair.m, pair.m_prime.atoms)),
        pair.m_prime,
        np.asarray(delta_m(u, pair.m, pair.m.atoms)),
        pair.m,
    )
    rows = []
    for eps in eps_list:
        fd = (evaluate(u, pair.mixture(eps)) - base) / eps
        rows.append((float(eps), abs(fd - pairing)))
    return _attach_orders(rows)


def fd_check_dm2(
    u: CylindricalFunctional, pair: MeasurePair, eps_list: Sequence[float]
) -> list[FdRow]:
    """Same check one level down: differences of delta_m u against delta_m^2.

    The error at each eps is maximized over probe points x drawn from the
    atoms of both measures.
    """
    _check_eps(eps_list)
    probes = np.concatenate([np.atleast_1d(pair.m.atoms), np.atleast_1d(pair.m_prime.atoms)])
    base = np.asarray(delta_m(u, pair.m, probes))
    h = u.outer.hess(moments(u, pair.m))
    pairing = np.zeros_like(probes)
    for a in range(u.k):
        for b in range(u.k):
            if h[a, b] != 0.0:
                gap = pair.m_prime.average(u.tests[b].value(pair.m_prime.atoms)) - pair.m.average(
                    u.tests[b].value(pair.m.atoms)
                )
                pairing = pairing + h[a, b] * u.tests[a].value(probes) * gap
    rows = []
    for eps in eps_list:
        mixed = pair.mixture(eps)
        fd = (np.asarray(delta_m(u, mixed, probes)) - base) / eps
        rows.append((float(eps), float(np.max(np.abs(fd - pairing)))))
    return _attach_orders(rows)


def fd_orders_ok(rows: Sequence[FdRow], floor: float = 1e-13, min_order: float = 0.9) -> bool:
    """True when errors either decay at order >= 1 or sit at the roundoff
    floor (which grows like 1/eps, since the difference quotient divides
    cancellation noise by eps)."""
    for row in rows:
        if row.error <= floor / row.eps:
            continue
        if row.observed_order is not None and row.observed_order < min_order:
            return False
    return all(np.isfinite(row.error) for row in rows)


def integral_identity_gap(u: CylindricalFunctional, pair: MeasurePair) -> float:
    """Gap in u(m') - u(m) = int_0^1 <delta_m u(mixture(lam)), m'-m> dlam.

    The lambda integral uses 16-point Gauss-Legendre, exact for the
    polynomial-in-lambda integrands of polynomial outer maps.
    """
    lhs = evaluate(u, pair.m_prime) - evaluate(u, pair.m)
    rhs = 0.0
    for lam, w in zip(_GL_LAMBDAS, _GL_W01):
        mixed = pair.mixture(float(lam))
        rhs += w * _pairing(
            np.asarray(delta_m(u, mixed, pair.m_prime.atoms)),
            pair.m_prime,
            np.asarray(delta_m(u, mixed, pair.m.atoms)),
            pair.m,
        )
    return abs(lhs - rhs)
