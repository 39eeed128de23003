import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condflow import (
    InvalidArgumentError,
    MeasurePair,
    NumericOverflowError,
    empirical,
    fd_check_dm,
    fd_check_dm2,
    integral_identity_gap,
)
from condflow import measures
from condflow.measures import _Tables, fd_orders_ok
from condflow.registry import (
    log_second_moment_functional,
    mean_functional,
    mean_squared_functional,
    second_moment_functional,
    second_moment_squared_functional,
    variance_functional,
)

from helpers import pair_average_bruteforce

EPS_LIST = [1e-1, 1e-2, 1e-3, 1e-4]
FUNCTIONALS = {
    u.name: u
    for u in (
        mean_functional(),
        mean_squared_functional(),
        second_moment_functional(),
        variance_functional(),
        second_moment_squared_functional(),
        log_second_moment_functional(),
    )
}


def tables(u, states):
    """Window tables of ``u``'s test functions on ``states`` (one row of
    atoms per grid time; the last row closes the last cell) and ``u``'s
    outer first- and second-derivative rows."""
    tab = _Tables(u.tests, np.asarray(states, dtype=float))
    return tab, u.outer.grad(tab.moments), u.outer.hess(tab.moments)


def one_hot(i, n):
    """Particle weights that turn a particle mean into particle i's value."""
    w = np.zeros(n)
    w[i] = n
    return w


# ---------------------------------------------------------------------------
# empirical measures


def test_empirical_basics():
    m = empirical([1.0, 2.0, 3.0])
    assert m.mean() == pytest.approx(2.0)
    assert empirical([5.0]).num_atoms == 1
    assert empirical([0.0, 0.0]).num_atoms == 2
    with pytest.raises(InvalidArgumentError):
        empirical([])
    with pytest.raises(InvalidArgumentError):
        empirical([np.inf])
    batch = empirical([[1.0, 3.0], [2.0, 6.0]])  # one measure per row
    assert batch.num_atoms == 2
    np.testing.assert_array_equal(batch.mean(), [[2.0], [4.0]])
    np.testing.assert_array_equal(batch.average(batch.atoms**2), [[5.0], [20.0]])
    with pytest.raises(InvalidArgumentError):
        empirical(np.zeros((2, 2, 2)))  # atoms are scalar


# ---------------------------------------------------------------------------
# cylindrical calculus


def test_pair_averages_examples():
    # u at m, at m' and at their even mixture, from one table on the pair's atoms
    pair = MeasurePair(empirical([1.0, 2.0, 3.0]), empirical([0.0, 2.0]))
    for u, at_m, at_mp, mid in (
        (mean_functional(), 2.0, 1.0, 1.5),
        (mean_squared_functional(), 4.0, 1.0, 2.25),
        (second_moment_functional(), 14.0 / 3.0, 2.0, 10.0 / 3.0),
    ):
        tab = _Tables(u.tests, pair.atoms)
        for lam, want in ((0.0, at_m), (1.0, at_mp), (0.5, mid)):
            assert u.outer.value(tab.averages(pair.mixture(lam))) == pytest.approx(want)


def test_fd_checks_overflow():
    pair = MeasurePair(empirical([1e200, 1e200]), empirical([0.0, 1.0]))
    for check in (fd_check_dm, fd_check_dm2):
        with np.errstate(over="ignore"), pytest.raises(NumericOverflowError):
            check(second_moment_squared_functional(), pair, EPS_LIST)
    with np.errstate(over="ignore"), pytest.raises(NumericOverflowError):
        integral_identity_gap(second_moment_squared_functional(), pair)


def test_derivatives_mean():
    tab, d1, d2 = tables(mean_functional(), [[0.5, -1.0, 2.0], [0.3, 0.3, -0.7], [0.0, 0.0, 0.0]])
    for i in range(3):  # the Lions derivative is 1 at every atom of every cell
        np.testing.assert_array_equal(tab.grad_mean(d1, one_hot(i, 3)), [1.0, 1.0])
    np.testing.assert_array_equal(tab.hess_mean(d1, np.ones(3)), [0.0, 0.0])
    assert np.all(tab.pair_mean(d2, np.ones(3)) == 0.0)


def test_derivatives_mean_squared():
    u = mean_squared_functional()
    tab, d1, d2 = tables(u, [[1.0, 3.0], [0.0, 1.0], [7.0, 7.0]])
    # d_lions = 2 mean(m), cell by cell; the mixed kernel is the constant 2
    np.testing.assert_allclose(tab.grad_mean(d1, np.ones(2)), [4.0, 1.0], rtol=1e-15)
    np.testing.assert_allclose(tab.grad_mean(d1, np.array([0.5, 1.5])), [4.0, 1.0], rtol=1e-15)
    np.testing.assert_array_equal(tab.hess_mean(d1, np.ones(2)), [0.0, 0.0])
    np.testing.assert_allclose(tab.pair_mean(d2, np.ones(2)), [2.0, 2.0], rtol=1e-15)
    np.testing.assert_allclose(tab.pair_mean(d2, np.array([1.0, 3.0])), [6.0, 6.0], rtol=1e-15)
    # the flat derivative at m = (1, 3) is 2 mean(m) x
    tab = _Tables(u.tests, np.array([1.0, 3.0, 1.5]))
    flat = tab.flat(u.outer.grad(tab.averages(slice(None, 2))))
    assert flat[-1] == pytest.approx(2.0 * 2.0 * 1.5)


def test_derivatives_second_moment():
    x = np.array([-1.0, 0.5])
    tab, d1, d2 = tables(second_moment_functional(), [x, x + 1.0])
    for i in range(2):  # d_lions = 2x, its x-derivative 2
        np.testing.assert_allclose(tab.grad_mean(d1, one_hot(i, 2)), [2.0 * x[i]], rtol=1e-15)
        np.testing.assert_allclose(tab.hess_mean(d1, one_hot(i, 2)), [2.0], rtol=1e-15)
    assert np.all(tab.pair_mean(d2, np.ones(2)) == 0.0)


def filled(phi: measures.TestFunction) -> measures.TestFunction:
    """``phi`` with each constant derivative written out at every atom."""

    def fill(field):
        return lambda x: np.full(np.shape(x), field(x), dtype=float)

    return measures.TestFunction(phi.name, phi.value, fill(phi.grad), fill(phi.hess))


@pytest.mark.parametrize("weights", ["per-cell", "per-particle"])
def test_float_derivatives_give_the_rows_of_filled_tables(weights):
    # a float gradient or Hessian is a zero-stride view of the atoms'
    # shape, so each product with a (cells, 1, 1) weight still has N
    # elements and each particle mean reduces N products, bit for bit
    gen = np.random.default_rng(31)
    cells, reps, n = 6, 3, 37
    states = gen.normal(size=(cells + 1, reps, n))
    tests = (
        measures.TestFunction("x", lambda x: np.asarray(x, dtype=float), lambda x: 1.0, lambda x: 0.0),
        measures.TestFunction("x^2", lambda x: np.asarray(x, dtype=float) ** 2, lambda x: 2.0 * x, lambda x: 2.0),
    )
    d1 = gen.normal(size=(cells + 1, reps, 2))
    d2 = gen.normal(size=(cells + 1, reps, 2, 2))
    w = gen.normal(size=(cells, 1, 1) if weights == "per-cell" else (cells, reps, n))
    constant, full = _Tables(tests, states), _Tables(tuple(map(filled, tests)), states)
    assert constant.grads[0].strides == constant.hesses[1].strides == (0, 0, 0)
    assert constant.grads[0].shape == constant.hesses[0].shape == states.shape
    for name, rows in (("grad_mean", d1), ("hess_mean", d1), ("pair_mean", d2)):
        got, want = getattr(constant, name)(rows, w), getattr(full, name)(rows, w)
        assert got.shape == (cells, reps)
        assert got.tobytes() == want.tobytes(), name


@settings(max_examples=40)
@given(st.integers(0, 100_000))
def test_dm2_symmetry(seed):
    # the mixed kernel K(x, xh) = sum_ab d2F_ab phi_a'(x) phi_b'(xh) is
    # symmetric, and pair_mean is its average over ordered pairs i != j
    gen = np.random.default_rng(seed)
    states = gen.normal(size=(3, 5))
    w = gen.normal(size=5)
    for u in (variance_functional(), second_moment_squared_functional(), mean_squared_functional()):
        tab, _, d2 = tables(u, states)
        np.testing.assert_array_equal(d2, np.swapaxes(d2, -1, -2))
        got = tab.pair_mean(d2, w)
        for cell in range(2):
            for kernel in (d2[cell], d2[cell].T):
                rows = [g[cell] * w for g in tab.grads]
                want = sum(
                    kernel[a, b] * pair_average_bruteforce(rows[a], rows[b])
                    for a in range(len(u.tests))
                    for b in range(len(u.tests))
                )
                assert got[cell] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_mixture_endpoints_atom_for_atom():
    pair = MeasurePair(empirical([0.0, 1.0]), empirical([2.0, 3.0, 4.0]))
    np.testing.assert_array_equal(pair.atoms, [0.0, 1.0, 2.0, 3.0, 4.0])
    # the end points are m's and m''s own atoms, read as uniform measures
    np.testing.assert_array_equal(pair.atoms[pair.mixture(0.0)], pair.m.atoms)
    np.testing.assert_array_equal(pair.atoms[pair.mixture(1.0)], pair.m_prime.atoms)
    np.testing.assert_allclose(pair.mixture(0.25), [0.375, 0.375, 0.25 / 3, 0.25 / 3, 0.25 / 3])
    for lam in (1.5, -0.1, np.nan):
        with pytest.raises(InvalidArgumentError):
            pair.mixture(lam)
    with pytest.raises(InvalidArgumentError):
        MeasurePair(empirical([[0.0, 1.0]]), pair.m_prime)  # a batch is not one measure


@pytest.mark.parametrize(
    "eps_list", [[], [0.1], [0.1, 0.1], [0.01, 0.1], [0.1, -0.01], [np.nan, 0.1], [0.1, np.nan]]
)
def test_fd_checks_reject_bad_eps_lists(eps_list):
    # fewer than two step sizes give no observed order, so nothing would be checked
    pair = MeasurePair(empirical([0.2, 1.4]), empirical([-0.5, 0.9, 2.2]))
    for check in (fd_check_dm, fd_check_dm2):
        with pytest.raises(InvalidArgumentError):
            check(mean_squared_functional(), pair, eps_list)


def test_fd_check_dm_linear_functional_exact():
    pair = MeasurePair(empirical([0.2, 1.4]), empirical([-0.5, 0.9, 2.2]))
    rows = fd_check_dm(mean_functional(), pair, EPS_LIST)
    for row in rows:
        assert row.error < 1e-12


def test_fd_check_dm_mean_squared_hand_case():
    # m = dirac(0), m' = dirac(1): difference quotient is eps, pairing is 0
    pair = MeasurePair(empirical([0.0]), empirical([1.0]))
    rows = fd_check_dm(mean_squared_functional(), pair, EPS_LIST)
    for row in rows:
        assert row.error == pytest.approx(row.eps, rel=1e-9)
    orders = [r.observed_order for r in rows if r.observed_order is not None]
    assert all(abs(o - 1.0) < 1e-6 for o in orders)


def test_fd_check_dm_same_measure_is_zero():
    m = empirical([0.3, -1.0])
    rows = fd_check_dm(variance_functional(), MeasurePair(m, m), EPS_LIST)
    for row in rows:
        # pure roundoff, amplified by the 1/eps in the difference quotient
        assert row.error < 1e-13 / row.eps


def test_fd_check_dm2_mean_squared_exact():
    pair = MeasurePair(empirical([0.1, 1.1]), empirical([0.7, -0.4]))
    rows = fd_check_dm2(mean_squared_functional(), pair, EPS_LIST)
    for row in rows:
        assert row.error < 1e-11


def test_fd_check_dm2_second_moment_squared_exact():
    # quadratic outer map: the first derivative is affine in the measure,
    # so the directional difference matches the pairing at every eps
    pair = MeasurePair(empirical([0.5, 1.5]), empirical([1.0, -2.0]))
    rows = fd_check_dm2(second_moment_squared_functional(), pair, [1e-1, 1e-2, 1e-3])
    for row in rows:
        assert row.error < 1e-13 / row.eps
    assert fd_orders_ok(rows)


def test_fd_check_dm2_nonpolynomial_order_one():
    pair = MeasurePair(empirical([0.5, 1.5]), empirical([1.0, -2.0]))
    rows = fd_check_dm2(log_second_moment_functional(), pair, [1e-1, 1e-2, 1e-3])
    for row in rows[:-1]:
        assert abs(row.observed_order - 1.0) < 0.05
    assert fd_orders_ok(rows)


def test_fd_battery_all_registry_functionals():
    gen = np.random.default_rng(12)
    pair = MeasurePair(empirical(gen.normal(size=6)), empirical(gen.normal(size=4) + 0.3))
    for name, u in FUNCTIONALS.items():
        assert fd_orders_ok(fd_check_dm(u, pair, EPS_LIST)), name
        assert fd_orders_ok(fd_check_dm2(u, pair, EPS_LIST)), name


def test_integral_identity_polynomials():
    gen = np.random.default_rng(5)
    pair = MeasurePair(empirical(gen.normal(size=5)), empirical(gen.normal(size=7) - 0.4))
    for name in ("mean", "mean-squared", "second-moment", "variance", "second-moment-squared"):
        assert integral_identity_gap(FUNCTIONALS[name], pair) < 1e-10, name
