"""Empirical measures and the exact derivative calculus of cylindrical
functionals u(m) = F(<phi_1, m>, ..., <phi_k, m>).

The functional linear derivative of a cylindrical u has the closed form

    delta_m u(m, x)        = sum_a  dF_a(v(m)) phi_a(x)
    delta_m^2 u(m, x, xh)  = sum_ab d2F_ab(v(m)) phi_a(x) phi_b(xh)

with v_a(m) = <phi_a, m>.  The chain rules need three more fields: the
x-gradient of the first expression (the measure derivative in the Lions
sense), that gradient's own x-derivative, and the mixed x, xh gradient
of the second.  The calculus exists once, in :class:`_Tables`: it
evaluates the test functions and their x-derivatives once on a set of
atoms, and contracts them with rows of outer derivatives dF, d2F.  Along
a window of particle states it gives the per-cell particle means
(gradient and Hessian fields) and ordered-pair averages (mixed field)
that the chain-rule verifiers integrate.  On the atoms of a
:class:`MeasurePair` it gives the moments and flat derivatives of m, m'
and their mixtures, which the finite-difference and quadrature checks
below validate against the defining directional limits.

Atoms are scalar: a measure is one uniform (N,) atom row, or a batch of
M uniform measures, one per row of a (M, N) array, as an Euler sweep
hands its coefficients (see ``particle.Sweep``).  A mixture
of a pair is a weight row on the pair's atoms.
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
    """Uniform measure on scalar atoms (a (N,) array), or a batch of M
    uniform measures on the rows of a (M, N) array.

    :meth:`mean` and :meth:`average` reduce the last axis: a numpy
    float64 and a Python float for one measure, and the (M, 1) column of
    per-row values for a batch, which broadcasts against the atoms.
    """

    def __init__(self, atoms: np.ndarray):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim not in (1, 2) or atoms.size == 0:
            raise InvalidArgumentError("need a nonempty (N,) or (M, N) atom array")
        if not np.isfinite(atoms).all():
            raise InvalidArgumentError("atoms must be finite")
        self.atoms = atoms

    @property
    def num_atoms(self) -> int:
        return self.atoms.shape[-1]

    def average(self, values: np.ndarray) -> float | np.ndarray:
        if self.atoms.ndim == 2:
            return np.mean(values, axis=-1, keepdims=True)
        return float(np.mean(values))

    def mean(self):
        return self.atoms.mean(axis=-1, keepdims=self.atoms.ndim == 2)


def empirical(atoms) -> EmpiricalMeasure:
    """Uniform-weight measure on the given atoms (duplicates allowed), or
    a batch of them on the rows of (M, N) atoms."""
    return EmpiricalMeasure(np.asarray(atoms, dtype=float))


@dataclass(frozen=True)
class TestFunction:
    """Scalar test function with exact first and second derivatives.

    Each callable takes an array of atoms and returns the values there,
    or a float where the field is constant, such as the gradient of x or
    the Hessian of x^2; the tables broadcast a float to the atoms.
    """

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


def _ustat_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # ordered-pair average per row (last axis) of two (..., N) arrays
    n_p = a.shape[-1]
    return (a.sum(axis=-1) * b.sum(axis=-1) - (a * b).sum(axis=-1)) / (n_p * (n_p - 1))


class _Tables:
    """Values/gradients/Hessians of the test functions on a set of atoms,
    contracted with outer-derivative rows; the only code that evaluates
    the test functions.

    Along a window, ``states`` has one row of particles per grid time:
    (n+1, M, N) for a sweep's window of M repetitions, or (n+1, N) for
    one measure.  Each of :meth:`grad_mean`, :meth:`hess_mean` and
    :meth:`pair_mean` is one per-cell integrand.  Every particle mean
    reduces the last axis only, so each repetition's numbers are the ones
    its own (n+1, N) rows give, bit for bit.  Outer-derivative rows carry
    the same leading axes, then the test-function axes.

    Each table has the atoms' shape.  A field that a test function
    returns as a float, such as a constant gradient or Hessian, is a
    zero-stride ``np.broadcast_to`` view, so no window fills a table with
    one number.  Its product with a weight still has one element per
    atom, so every particle mean reduces N products.

    On a pair's atoms (``MeasurePair.atoms``, a (N + N',) row),
    :meth:`averages` reads the moments of m, m' or a mixture, and
    :meth:`flat` and :meth:`flat2_pairing` give the flat derivatives
    at every atom.
    """

    def __init__(self, tests: Sequence[TestFunction], states: np.ndarray):
        def table(field):
            return np.broadcast_to(np.asarray(field(states), dtype=float), states.shape)

        self.vals = [table(t.value) for t in tests]
        self.grads = [table(t.grad) for t in tests]
        self.hesses = [table(t.hess) for t in tests]
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
            if not np.any(d2_outer[:-1, ..., a, :]):
                continue
            wa = self.grads[a][:-1] * weights
            for b in range(k):
                col = d2_outer[:-1, ..., a, b]
                if not np.any(col):
                    continue
                wb = self.grads[b][:-1] * weights
                out = out + col * _ustat_rows(wa, wb)
        return out

    def averages(self, measure: np.ndarray | slice) -> np.ndarray:
        """The test-function averages v_a(m), (k,), of one measure on a
        row of atoms: a slice of them, the uniform measure there (a
        mean), or a weight row on all of them (a dot product)."""
        if isinstance(measure, slice):
            v = np.array([np.mean(p[measure]) for p in self.vals])
        else:
            v = np.array([np.dot(measure, p) for p in self.vals])
        if not np.all(np.isfinite(v)):
            raise NumericOverflowError("non-finite test-function averages")
        return v

    def flat(self, d_outer: np.ndarray) -> np.ndarray:
        """delta_m u = sum_a dF_a phi_a at every atom, for dF = ``d_outer``."""
        return sum(d * p for d, p in zip(d_outer, self.vals))

    def flat2_pairing(self, d2_outer: np.ndarray, gaps: np.ndarray) -> np.ndarray:
        """delta_m^2 u paired with m' - m in its second argument,
        sum_ab d2F_ab phi_a gaps_b at every atom, for gaps_b =
        <phi_b, m' - m>."""
        out = np.zeros_like(self.vals[0])
        for a, p in enumerate(self.vals):
            for b, gap in enumerate(gaps):
                if d2_outer[a, b] != 0.0:
                    out = out + d2_outer[a, b] * p * gap
        return out


@dataclass(frozen=True)
class MeasurePair:
    """Pair (m, m') of single measures and their exact mixtures
    lambda m' + (1 - lambda) m, all on :attr:`atoms`, the atoms of m
    followed by those of m'."""

    m: EmpiricalMeasure
    m_prime: EmpiricalMeasure

    def __post_init__(self):
        if self.m.atoms.ndim != 1 or self.m_prime.atoms.ndim != 1:
            raise InvalidArgumentError("a measure pair takes two single measures, not batches")

    @property
    def atoms(self) -> np.ndarray:
        return np.concatenate([self.m.atoms, self.m_prime.atoms])

    def mixture(self, lam: float) -> np.ndarray | slice:
        """The mixture at ``lam`` on :attr:`atoms`: its weight row, or
        at lam = 0 and 1, where it is m or m' itself, the slice of that
        measure's atoms."""
        if not 0.0 <= lam <= 1.0:  # NaN fails too
            raise InvalidArgumentError("mixture parameter must lie in [0, 1]")
        n, n_p = self.m.num_atoms, self.m_prime.num_atoms
        if lam == 0.0:
            return slice(None, n)
        if lam == 1.0:
            return slice(n, None)
        return np.concatenate([(1.0 - lam) * np.full(n, 1.0 / n), lam * np.full(n_p, 1.0 / n_p)])

    def pairing(self, values: np.ndarray) -> float:
        """<f, m' - m> for f given by its values on :attr:`atoms`."""
        n = self.m.num_atoms
        return float(np.mean(values[n:])) - float(np.mean(values[:n]))


def _value(u: CylindricalFunctional, v: np.ndarray) -> float:
    """u = F(v) at the test-function averages v."""
    val = float(u.outer.value(v))
    if not np.isfinite(val):
        raise NumericOverflowError("non-finite functional value")
    return val


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
    eps = np.asarray(eps_list, dtype=float)
    if not (np.all(eps > 0) and np.all(np.diff(eps) < 0)):  # NaN fails too
        raise InvalidArgumentError("eps_list must be positive and decreasing")


def fd_check_dm(
    u: CylindricalFunctional, pair: MeasurePair, eps_list: Sequence[float]
) -> list[FdRow]:
    """Directional finite differences of u against the derivative pairing.

    Rows report |(u(m + eps (m'-m)) - u(m)) / eps  -  <delta_m u(m), m'-m>|
    and the observed decay order between consecutive eps values.
    """
    _check_eps(eps_list)
    tab = _Tables(u.tests, pair.atoms)
    v = tab.averages(pair.mixture(0.0))
    base = _value(u, v)
    pairing = pair.pairing(tab.flat(u.outer.grad(v)))
    rows = []
    for eps in eps_list:
        fd = (_value(u, tab.averages(pair.mixture(eps))) - base) / eps
        rows.append((float(eps), abs(fd - pairing)))
    return _attach_orders(rows)


def fd_check_dm2(
    u: CylindricalFunctional, pair: MeasurePair, eps_list: Sequence[float]
) -> list[FdRow]:
    """Same check one level down: differences of delta_m u against delta_m^2.

    The error at each eps is maximized over probe points x, the atoms of
    both measures.
    """
    _check_eps(eps_list)
    tab = _Tables(u.tests, pair.atoms)
    v = tab.averages(pair.mixture(0.0))
    base = tab.flat(u.outer.grad(v))
    gaps = tab.averages(pair.mixture(1.0)) - v
    pairing = tab.flat2_pairing(u.outer.hess(v), gaps)
    rows = []
    for eps in eps_list:
        fd = (tab.flat(u.outer.grad(tab.averages(pair.mixture(eps)))) - base) / eps
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
    tab = _Tables(u.tests, pair.atoms)
    lhs = _value(u, tab.averages(pair.mixture(1.0))) - _value(u, tab.averages(pair.mixture(0.0)))
    rhs = 0.0
    for lam, w in zip(_GL_LAMBDAS, _GL_W01):
        rhs += w * pair.pairing(tab.flat(u.outer.grad(tab.averages(pair.mixture(float(lam))))))
    return abs(lhs - rhs)
