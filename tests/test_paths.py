from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from condflow import (
    InvalidArgumentError,
    Partition,
    RngStream,
    SamplePath,
    constant_coefficients,
    make_uniform_partition,
    simulate_brownian,
    simulate_factor,
)


def test_uniform_partition_examples():
    p = make_uniform_partition(1.0, 2)
    np.testing.assert_allclose(p.times, [0.0, 0.5, 1.0])
    assert p.deltas.max() == 0.5

    p = make_uniform_partition(1.0, 1)
    np.testing.assert_allclose(p.times, [0.0, 1.0])
    assert p.deltas.max() == 1.0

    p = make_uniform_partition(2.0, 4)
    np.testing.assert_allclose(p.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert p.deltas.max() == 0.5


def test_uniform_partition_rejects_bad_args():
    with pytest.raises(InvalidArgumentError):
        make_uniform_partition(0.0, 4)
    with pytest.raises(InvalidArgumentError):
        make_uniform_partition(-1.0, 4)
    with pytest.raises(InvalidArgumentError):
        make_uniform_partition(1.0, 0)


def test_partition_invariants_rejected():
    with pytest.raises(InvalidArgumentError):
        Partition(np.array([0.0]))
    with pytest.raises(InvalidArgumentError):
        Partition(np.array([0.1, 1.0]))
    with pytest.raises(InvalidArgumentError):
        Partition(np.array([0.0, 0.5, 0.5]))


@given(st.floats(0.1, 50.0), st.integers(1, 400))
def test_uniform_partition_properties(horizon, n):
    p = make_uniform_partition(horizon, n)
    assert p.times.size == n + 1
    assert p.times[0] == 0.0
    assert np.all(np.diff(p.times) > 0)
    assert np.allclose(p.deltas, horizon / n)
    assert p.num_cells == n


def test_brownian_shape_and_decomposition():
    p = make_uniform_partition(2.0, 16)
    path = simulate_brownian(p, RngStream(1, 0))
    assert path.values[0] == 0.0
    assert path.values.shape == (17,)


def test_brownian_determinism():
    p = make_uniform_partition(1.0, 8)
    a = simulate_brownian(p, RngStream(123, 7))
    b = simulate_brownian(p, RngStream(123, 7))
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate_brownian(p, RngStream(123, 8))
    assert not np.array_equal(a.values, c.values)


def test_brownian_terminal_moments():
    # sample mean and variance of W_T across many independent streams
    horizon = 1.5
    p = make_uniform_partition(horizon, 1)
    num = 100_000
    terminals = np.empty(num)
    base = RngStream(2024, 0)
    for i in range(num):
        terminals[i] = simulate_brownian(p, base.child(i)).values[-1]
    assert abs(terminals.mean()) < 4.0 * np.sqrt(horizon / num)
    assert abs(terminals.var() - horizon) < 0.05 * horizon


def test_factor_deterministic_drift():
    p = make_uniform_partition(1.0, 64)
    common = simulate_brownian(p, RngStream(5, 0))
    coeffs = constant_coefficients(k=1.0)
    y = simulate_factor(coeffs, 0.0, p, common, RngStream(5, 1))
    assert y.values[-1] == pytest.approx(1.0, abs=1e-12)


def test_factor_copies_common_path():
    p = make_uniform_partition(1.0, 32)
    common = simulate_brownian(p, RngStream(6, 0))
    coeffs = constant_coefficients(gamma0=1.0)
    y = simulate_factor(coeffs, 0.7, p, common, RngStream(6, 1))
    np.testing.assert_allclose(y.values, 0.7 + common.values, atol=1e-12)


def test_factor_idiosyncratic_variance():
    p = make_uniform_partition(1.0, 1)
    coeffs = constant_coefficients(gamma=1.0)
    num = 100_000
    base = RngStream(99, 0)
    vals = np.empty(num)
    for i in range(num):
        common = simulate_brownian(p, base.child(i, 0))
        vals[i] = simulate_factor(coeffs, 0.0, p, common, base.child(i, 1)).values[-1]
    assert abs(vals.var() - 1.0) < 0.05


def test_factor_path_matches_a_float64_array_loop():
    # the Euler loop on float64 arrays and numpy scalars is the reference;
    # coefficients that read t and y make every step's arithmetic count
    coeffs = replace(
        constant_coefficients(),
        k=lambda t, y: 0.3 - 0.7 * y + np.sin(3.0 * t),
        gamma=lambda t, y: 0.4 + 0.1 * np.cos(y),
        gamma0=lambda t, y: 0.5 * t + 0.2,
    )
    p = Partition(np.cumsum(np.r_[0.0, np.linspace(0.01, 0.03, 64)]))
    common = simulate_brownian(p, RngStream(8, 0))
    y0 = 0.35
    dt = p.deltas
    db = RngStream(8, 1).generator().normal(size=dt.size) * np.sqrt(dt)
    dw0 = np.diff(common.values)
    fv, mart = np.zeros(dt.size + 1), np.zeros(dt.size + 1)
    y = y0
    for i in range(dt.size):
        t = p.times[i]
        fv[i + 1] = fv[i] + coeffs.k(t, y) * dt[i]
        mart[i + 1] = mart[i] + coeffs.gamma(t, y) * db[i] + coeffs.gamma0(t, y) * dw0[i]
        y = y0 + fv[i + 1] + mart[i + 1]
    got = simulate_factor(coeffs, y0, p, common, RngStream(8, 1)).values
    assert got.tobytes() == (y0 + fv + mart).tobytes()


def test_factor_partition_mismatch():
    p = make_uniform_partition(1.0, 8)
    q = make_uniform_partition(1.0, 16)
    common = simulate_brownian(q, RngStream(1, 0))
    with pytest.raises(InvalidArgumentError):
        simulate_factor(constant_coefficients(), 0.0, p, common, RngStream(1, 1))


def test_additive_sde_exact_in_distribution_at_any_mesh():
    # constant-coefficient SDE: terminal moments match the analytic law at
    # coarse and fine meshes alike, within Monte Carlo error
    coeffs = constant_coefficients(k=0.5, gamma=0.8, gamma0=0.6)
    num = 4000
    base = RngStream(31, 0)
    for n in (2, 64):
        p = make_uniform_partition(1.0, n)
        vals = np.empty(num)
        for i in range(num):
            common = simulate_brownian(p, base.child(n, i, 0))
            vals[i] = simulate_factor(coeffs, 0.0, p, common, base.child(n, i, 1)).values[-1]
        var = 0.8**2 + 0.6**2
        assert abs(vals.mean() - 0.5) < 4.0 * np.sqrt(var / num)
        assert abs(vals.var() - var) < 5.0 * var * np.sqrt(2.0 / num)


def test_sample_path_validation():
    p = make_uniform_partition(1.0, 2)
    with pytest.raises(InvalidArgumentError):
        SamplePath(p, np.zeros(4))
    with pytest.raises(InvalidArgumentError):
        SamplePath(p, np.zeros((3, 2)))  # paths are scalar


def test_rng_child_streams_differ():
    base = RngStream(42, 0)
    a = base.child(1).generator().normal(size=4)
    b = base.child(2).generator().normal(size=4)
    c = base.child(1).generator().normal(size=4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, c)
    assert base.child(1, 2).key() == [42, 0, 1, 2]
