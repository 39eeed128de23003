from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condflow import (
    BlowUpError,
    InvalidArgumentError,
    NumericOverflowError,
    RngStream,
    Sweep,
    constant_coefficients,
    dirac_initial,
    empirical,
    gaussian_quantile_initial,
    make_uniform_partition,
    measure_flow_modulus,
    simulate_ensemble,
)
from condflow.measures import _ustat_rows
from condflow.mfc import AffineFeedback, RiccatiFeedback, make_lq_problem
from condflow.paths import SdeCoefficients

from helpers import at_particles, pair_average_bruteforce, set_window, sweep_windows, whole_run


def build(coeffs, initial, n_particles=32, n_cells=16, seed=0, horizon=1.0, control=None):
    """A batch of one on stream (seed, 0)."""
    part = make_uniform_partition(horizon, n_cells)
    return simulate_ensemble(Sweep(coeffs, initial, n_particles, part, [RngStream(seed, 0)], control=control))


def modulus_at(ens, i, j):
    """The flow modulus of a whole run between its grid indices i and j."""
    times = ens.partition.times
    return measure_flow_modulus(ens.coeffs, ens.states[i], ens.states[j], float(times[i]), float(times[j]))


def test_frozen_dynamics():
    atoms = np.array([0.0, 1.0, -2.0, 0.5])
    ens = build(constant_coefficients(), lambda rng, n: atoms.copy(), n_particles=4)
    np.testing.assert_array_equal(ens.states, np.tile(atoms, (17, 1, 1)))


def test_pure_common_noise_moving_dirac():
    ens = build(constant_coefficients(sigma0=1.0), dirac_initial(0.7), n_particles=8)
    expected = 0.7 + ens.common[0].values
    for i in range(8):
        np.testing.assert_array_equal(ens.states[:, 0, i], expected)


def test_idio_noise_empirical_variance():
    reps = 48
    vals = np.empty(reps)
    part = make_uniform_partition(1.0, 16)
    for r in range(reps):
        ens = simulate_ensemble(
            Sweep(constant_coefficients(sigma=1.0), dirac_initial(0.0), 256, part, [RngStream(5, 0).child(r)])
        )
        vals[r] = ens.states[-1, 0].var()
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - 1.0) < 3.0 * se


def test_pair_product_identity_vs_double_loop():
    ens = build(constant_coefficients(sigma=1.0), dirac_initial(0.0), n_particles=12, seed=3)
    f = ens.states[:, 0]
    g = f**2
    fast = _ustat_rows(f, g)
    for k in range(f.shape[0]):
        assert fast[k] == pytest.approx(pair_average_bruteforce(f[k], g[k]), rel=1e-12, abs=1e-15)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_exchangeability(seed):
    ens = build(
        constant_coefficients(sigma=0.8, sigma0=0.5), gaussian_quantile_initial(0.1, 0.4),
        n_particles=16, n_cells=8, seed=seed,
    )
    perm = np.random.default_rng(seed).permutation(16)
    states = ens.states[:, 0]
    permuted = states[:, perm]
    np.testing.assert_allclose(permuted.mean(axis=1), states.mean(axis=1), rtol=1e-12, atol=1e-15)
    pair = _ustat_rows(states, states**2)
    np.testing.assert_allclose(_ustat_rows(permuted, permuted**2), pair, rtol=1e-12, atol=1e-15)


def test_mckean_vlasov_coupling_sees_running_mean():
    # drift pulls every particle toward the running empirical mean; with a
    # Dirac start and no noise everything stays put
    coeffs = SdeCoefficients(
        drift=lambda t, x, y, m, a: m.mean() - x,
        sigma=lambda t, x, y, m, a: np.zeros_like(x),
        sigma0=lambda t, x, y, m, a: np.zeros_like(x),
        k=lambda t, y: 0.0,
        gamma=lambda t, y: 0.0,
        gamma0=lambda t, y: 0.0,
    )
    ens = build(coeffs, lambda rng, n: np.array([1.0, -1.0]), n_particles=2, n_cells=4)
    np.testing.assert_allclose(ens.states[-1, 0].mean(), 0.0, atol=1e-12)
    assert ens.states[-1, 0, 0] < 1.0  # contraction toward the mean


def test_blow_up_names_step():
    coeffs = SdeCoefficients(
        drift=lambda t, x, y, m, a: x * 1e160,
        sigma=lambda t, x, y, m, a: np.zeros_like(x),
        sigma0=lambda t, x, y, m, a: np.zeros_like(x),
        k=lambda t, y: 0.0,
        gamma=lambda t, y: 0.0,
        gamma0=lambda t, y: 0.0,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as err:
            build(coeffs, dirac_initial(1.0), n_particles=4, n_cells=8)
    assert err.value.step >= 1


def test_invalid_particle_counts_and_initials():
    part = make_uniform_partition(1.0, 4)
    streams = [RngStream(0, 0)]
    with pytest.raises(InvalidArgumentError):
        Sweep(constant_coefficients(), dirac_initial(0.0), 1, part, streams)
    # the initial law is a sampler: no number or measure
    for initial in (0.5, empirical([1.5]), empirical([0.0, 1.0, 2.0, 3.0]), empirical(np.zeros((2, 4)))):
        with pytest.raises(InvalidArgumentError):
            Sweep(constant_coefficients(), initial, 4, part, streams)
    for atoms in (np.zeros(3), np.zeros((2, 4))):
        with pytest.raises(InvalidArgumentError, match="one atom per particle"):
            Sweep(constant_coefficients(), lambda rng, n: atoms, 4, part, streams)
    ens = simulate_ensemble(Sweep(constant_coefficients(), dirac_initial(1.5), 4, part, streams))
    np.testing.assert_array_equal(ens.states[0, 0], np.full(4, 1.5))


def test_modulus_frozen_and_translation():
    # both flows are deterministic, so the two streams agree and the SE is 0
    part = make_uniform_partition(1.0, 8)
    streams = [RngStream(0, 0).child(r) for r in range(2)]
    ens = whole_run(constant_coefficients(), dirac_initial(0.0), 32, part, streams)
    res = modulus_at(ens, 2, 6)  # grid times 0.25 and 0.75
    assert res.estimate == 0.0
    assert res.stderr == 0.0
    assert res.passed

    ens = whole_run(constant_coefficients(b=1.0), dirac_initial(0.0), 32, part, streams)
    res = modulus_at(ens, 2, 6)
    assert res.estimate == pytest.approx(0.5, abs=1e-12)
    assert res.bound == pytest.approx(0.5)


def test_modulus_diffusive_within_bound():
    part = make_uniform_partition(1.0, 32)
    streams = [RngStream(8, 0).child(r) for r in range(16)]
    ens = whole_run(constant_coefficients(sigma=1.0), dirac_initial(0.0), 128, part, streams)
    res = modulus_at(ens, 8, 24)  # grid times 0.25 and 0.75
    assert res.passed is True
    assert res.bound == pytest.approx(np.sqrt(0.5))
    with pytest.raises(InvalidArgumentError):
        modulus_at(ens, 24, 8)


@pytest.mark.parametrize("reps", [2, 5])
def test_batched_modulus_is_the_mean_of_the_per_stream_bounds(reps):
    # each repetition of a batch gives the bound of its stream's own sweep,
    # and the estimate and SE are their mean and standard error, not one
    # value pooled over the batch; 150 particles take the pairwise sum
    # past one block
    part = make_uniform_partition(1.0, 16)
    coeffs = constant_coefficients(b=0.3, sigma=0.8, sigma0=0.5)
    streams = [RngStream(9, 0).child(r) for r in range(reps)]
    bounds = []
    for stream in streams:
        states = whole_run(coeffs, dirac_initial(0.1), 150, part, [stream]).states[:, 0]
        diff = states[12] - states[4]  # grid times 0.75 and 0.25
        bounds.append(float(np.sqrt(np.mean(diff * diff))))
    res = modulus_at(whole_run(coeffs, dirac_initial(0.1), 150, part, streams), 4, 12)
    values = np.array(bounds)
    assert res.estimate == float(values.mean())
    assert res.stderr == float(values.std(ddof=1) / np.sqrt(reps))
    assert res.stderr > 0.0


def test_modulus_needs_rows_of_one_shape():
    # rows of different repetition or particle counts are no two times of
    # one sweep
    coeffs = constant_coefficients(sigma=1.0)
    rows = np.zeros((2, 16))
    for other in (np.zeros((3, 16)), np.zeros((2, 8)), np.zeros(16)):
        with pytest.raises(InvalidArgumentError, match="one shape"):
            measure_flow_modulus(coeffs, rows, other, 0.25, 0.75)


def test_modulus_refuses_a_non_finite_statistic():
    # rows 1e300 apart square to inf: that is an overflow, not a failed gate
    coeffs = constant_coefficients(sigma=1.0)
    x_s = np.zeros((2, 16))
    with np.errstate(over="ignore"), pytest.raises(NumericOverflowError):
        measure_flow_modulus(coeffs, x_s, x_s + 1e300, 0.25, 0.75)


@pytest.mark.parametrize("key", ["b", "sigma", "sigma0"])
def test_modulus_needs_every_coefficient_bound(key):
    # a missing bound is no bound of 0, which would fail the gate for the
    # wrong reason
    part = make_uniform_partition(1.0, 8)
    coeffs = constant_coefficients(b=1.0, sigma=0.5, sigma0=0.5)
    coeffs = replace(coeffs, bounds={k: v for k, v in coeffs.bounds.items() if k != key})
    ens = whole_run(coeffs, dirac_initial(0.0), 4, part, [RngStream(0, 0).child(r) for r in range(2)])
    with pytest.raises(InvalidArgumentError, match="bounds"):
        modulus_at(ens, 2, 6)


def test_modulus_needs_two_repetitions():
    # one repetition has no standard error, so its gate would have no
    # allowance: a batch of one is refused
    part = make_uniform_partition(1.0, 8)
    coeffs = constant_coefficients(b=1.0, sigma=0.5, sigma0=0.5)
    ens = whole_run(coeffs, dirac_initial(0.0), 4, part, [RngStream(0, 0)])
    with pytest.raises(InvalidArgumentError, match="two repetitions"):
        modulus_at(ens, 2, 6)


def test_chaos_rate_against_refined_reference():
    # deviation of the conditional-mean estimator from an 8N reference
    # shrinks like N^(-1/2) in the particle count
    coeffs = SdeCoefficients(
        drift=lambda t, x, y, m, a: 0.5 * (m.mean() - x),
        sigma=lambda t, x, y, m, a: np.full_like(x, 1.0),
        sigma0=lambda t, x, y, m, a: np.full_like(x, 0.5),
        k=lambda t, y: 0.0,
        gamma=lambda t, y: 0.0,
        gamma0=lambda t, y: 0.0,
    )
    part = make_uniform_partition(1.0, 16)
    sizes = [32, 128, 512]
    reps = 160
    base = RngStream(77, 0)
    devs = []
    for n in sizes:
        gaps = np.empty(reps)
        for r in range(reps):
            # same stream -> same common-noise path; the estimator is
            # conditional on it, so the reference must share it
            small = simulate_ensemble(Sweep(coeffs, dirac_initial(0.0), n, part, [base.child(n, r)]))
            big = simulate_ensemble(Sweep(coeffs, dirac_initial(0.0), 8 * n, part, [base.child(n, r)]))
            gaps[r] = abs(small.states[-1, 0].mean() - big.states[-1, 0].mean())
        devs.append(gaps.mean())
    slope = np.polyfit(np.log(sizes), np.log(devs), 1)[0]
    assert -0.7 <= slope <= -0.3


@pytest.mark.parametrize("window", [None, 3])
def test_scalar_and_per_particle_coefficients_sweep_alike(monkeypatch, window):
    # a constant coefficient returns its scalar and the sweep keeps it at
    # (cells, 1, 1), so the run, its values broadcast to the particles,
    # matches one whose coefficients return one value per particle
    part = make_uniform_partition(1.0, 8)
    b, sigma, sigma0 = 0.3, 0.8, 0.5
    full = SdeCoefficients(
        drift=lambda t, x, y, m, a: np.full_like(x, b),
        sigma=lambda t, x, y, m, a: np.full_like(x, sigma),
        sigma0=lambda t, x, y, m, a: np.full_like(x, sigma0),
        k=lambda t, y: 0.0,
        gamma=lambda t, y: 0.0,
        gamma0=lambda t, y: 0.0,
    )
    if window is not None:
        set_window(monkeypatch, window, 1, 6)
    runs = [
        sweep_windows(coeffs, dirac_initial(0.2), 6, part, [RngStream(4, 0)])
        for coeffs in (constant_coefficients(b, sigma, sigma0), full)
    ]
    assert len(runs[0]) == (1 if window is None else 3)
    for scalar, per_particle in zip(*runs):
        np.testing.assert_array_equal(scalar.states, per_particle.states)
        for name in ("drift_values", "sigma_values", "sigma0_values"):
            assert getattr(scalar, name).shape == (scalar.num_cells, 1, 1)
            np.testing.assert_array_equal(at_particles(scalar, name), getattr(per_particle, name))


def test_non_finite_initial_atoms_are_rejected(monkeypatch):
    # the step's own measure check sees the initial row; there a non-finite
    # atom is a bad argument, not a blow-up
    part = make_uniform_partition(1.0, 4)
    coeffs = constant_coefficients(sigma=1.0)
    samplers = (
        dirac_initial(np.inf),
        dirac_initial(np.nan),
        lambda rng, n: np.r_[np.zeros(n - 1), -np.inf],
        lambda rng, n: np.full(n, np.nan),
    )
    for initial in samplers:
        for window in (4, 1):  # the whole run, then one cell a window
            set_window(monkeypatch, window, 1, 4)
            with pytest.raises(InvalidArgumentError):
                simulate_ensemble(Sweep(coeffs, initial, 4, part, [RngStream(0, 0)]))


@pytest.mark.parametrize("window", [None, 1, 2, 3])
def test_overflow_in_the_final_cell_names_the_last_step(monkeypatch, window):
    # only the last cell's drift, 1e308 over a cell of width 2, overflows,
    # so the one check of the last row after the loop must catch it
    n_cells = 4
    part = make_uniform_partition(8.0, n_cells)
    last_t = float(part.times[-2])
    coeffs = SdeCoefficients(
        drift=lambda t, x, y, m, a: 1e308 if t == last_t else 0.0,
        sigma=lambda t, x, y, m, a: 0.0,
        sigma0=lambda t, x, y, m, a: 0.0,
        k=lambda t, y: 0.0,
        gamma=lambda t, y: 0.0,
        gamma0=lambda t, y: 0.0,
    )
    if window is not None:
        set_window(monkeypatch, window, 1, 4)
    with np.errstate(over="ignore"), pytest.raises(BlowUpError) as err:
        sweep_windows(coeffs, dirac_initial(1.0), 4, part, [RngStream(0, 0)])
    assert err.value.step == n_cells


@pytest.mark.parametrize("window", [None, 1, 3])
def test_blow_up_step_and_coefficients_see_finite_rows(monkeypatch, window):
    # b(x) = 1e100 x from x0 = 1 overflows after a few cells; the scalar
    # recursion below gives the first non-finite step independently
    n_cells, dt = 16, 1.0 / 16
    seen = []

    def drift(t, x, y, m, a):
        seen.append(bool(np.all(np.isfinite(x)) and np.all(np.isfinite(m.atoms))))
        return 1e100 * x

    coeffs = SdeCoefficients(
        drift=drift,
        sigma=lambda t, x, y, m, a: np.zeros_like(x),
        sigma0=lambda t, x, y, m, a: np.zeros_like(x),
        k=lambda t, y: 0.0,
        gamma=lambda t, y: 0.0,
        gamma0=lambda t, y: 0.0,
    )
    x, fv, expected = 1.0, 0.0, None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_cells):
            fv = fv + 1e100 * x * dt
            x = 1.0 + fv
            if not np.isfinite(x):
                expected = k + 1
                break
        assert expected is not None and expected < n_cells
        part = make_uniform_partition(1.0, n_cells)
        if window is not None:
            set_window(monkeypatch, window, 1, 4)
        with pytest.raises(BlowUpError) as err:
            sweep_windows(coeffs, dirac_initial(1.0), 4, part, [RngStream(0, 0)])
    assert err.value.step == expected
    assert len(seen) == expected and all(seen)


LQ_PROBLEM, LQ_VALUE = make_lq_problem()
# the drift is the feedback control
CONTROLLED = replace(constant_coefficients(sigma=0.4, sigma0=0.3), drift=lambda t, x, y, m, a: a)
# the drift reads the law and sigma0 the state, with no control
LAW_READING = SdeCoefficients(
    drift=lambda t, x, y, m, a: 0.7 * (m.mean() - x),
    sigma=lambda t, x, y, m, a: 0.6,
    sigma0=lambda t, x, y, m, a: 0.4 * np.cos(x),
    k=lambda t, y: 0.0,
    gamma=lambda t, y: 0.0,
    gamma0=lambda t, y: 0.0,
)
# the drift pulls toward the factor, and the factor reverts to 0 through
# both of its noises
FACTOR_READING = SdeCoefficients(
    drift=lambda t, x, y, m, a: 0.5 * (y - x),
    sigma=lambda t, x, y, m, a: 0.6,
    sigma0=lambda t, x, y, m, a: 0.4 * np.cos(x),
    k=lambda t, y: -0.3 * y,
    gamma=lambda t, y: 0.2 + 0.1 * y * y,
    gamma0=lambda t, y: 0.5,
)


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize(
    "coeffs, control, y0",
    [
        (CONTROLLED, RiccatiFeedback(LQ_VALUE, LQ_PROBLEM.a_max), None),
        (CONTROLLED, AffineFeedback(0.2, -0.7, LQ_PROBLEM.a_max), None),
        (LAW_READING, None, None),
        (FACTOR_READING, None, 0.3),
    ],
    ids=["riccati", "affine", "law-reading", "factor-reading"],
)
def test_batched_windows_equal_the_per_repetition_sweeps(monkeypatch, reps, coeffs, control, y0):
    # repetition r of a batch is stream r's batch of one, bit for bit, its
    # coefficients and control reading its own row's law and factor, and
    # its factor path its own; windows of 4 cells divide neither the 14
    # cells nor the batch, the initial atoms come from each stream, and 19
    # particles fill no summation block
    part = make_uniform_partition(1.0, 14)

    def initial(rng, n):
        return rng.generator().normal(size=n)

    streams = [RngStream(6, 0).child(r) for r in range(reps)]
    set_window(monkeypatch, 4, reps, 19)
    windows = sweep_windows(coeffs, initial, 19, part, streams, control, y0)
    assert [w.num_cells for w in windows] == [4, 4, 4, 2]
    assert all(w.num_particles == reps * 19 for w in windows)
    names = ["idio_increments", "drift_values", "sigma0_values"] + ([] if control is None else ["control_values"])
    batched = {
        "states": np.concatenate([windows[0].states[:1]] + [w.states[1:] for w in windows]),
        **{name: np.concatenate([at_particles(w, name) for w in windows]) for name in names},
    }
    set_window(monkeypatch, 14, 1, 19)  # each stream alone in one window
    for r, stream in enumerate(streams):
        alone = simulate_ensemble(Sweep(coeffs, initial, 19, part, [stream], control=control, y0=y0))
        assert alone.num_cells == 14
        alone_rows = {"states": alone.states, **{name: at_particles(alone, name) for name in names}}
        for name, values in batched.items():
            assert values[:, r].tobytes() == alone_rows[name][:, 0].tobytes(), name
        assert windows[0].common[r].values.tobytes() == alone.common[0].values.tobytes()
        if y0 is None:
            assert windows[0].factor is None and alone.factor is None
        else:
            assert windows[-1].factor[r].values.tobytes() == alone.factor[0].values.tobytes()


def _spread(f):
    """``f`` with its value written out at the shape of the state row x."""
    return lambda *args: np.broadcast_to(f(*args), args[1].shape).copy()


# per case: coefficients, control, y0, and the shape its values take after
# the cells axis, "M" and "N" standing for the batch and the particles
SHAPE_CASES = {
    "constant": (constant_coefficients(0.3, 0.8, 0.5), lambda t, x, m: 0.2, None, (1, 1)),
    "law-reading": (
        SdeCoefficients(
            drift=lambda t, x, y, m, a: a + 0.1,
            sigma=lambda t, x, y, m, a: 0.5 + 0.1 * np.tanh(m.mean()),
            sigma0=lambda t, x, y, m, a: 0.4 * np.cos(m.mean()),
            k=lambda t, y: 0.0,
            gamma=lambda t, y: 0.0,
            gamma0=lambda t, y: 0.0,
        ),
        lambda t, x, m: -0.5 * m.mean(),
        None,
        ("M", 1),
    ),
    "factor-reading": (
        replace(
            FACTOR_READING,
            drift=lambda t, x, y, m, a: 0.5 * y,
            sigma=lambda t, x, y, m, a: 0.3 + 0.1 * y * y,
            sigma0=lambda t, x, y, m, a: 0.2 * np.cos(y),
        ),
        None,
        0.3,
        ("M", 1),
    ),
    "state-dependent": (
        replace(
            LAW_READING,
            drift=lambda t, x, y, m, a: a - 0.5 * x,
            sigma=lambda t, x, y, m, a: 0.6 + 0.1 * np.cos(x),
        ),
        lambda t, x, m: np.tanh(x - m.mean()),
        None,
        ("M", "N"),
    ),
}


@pytest.mark.parametrize("case", list(SHAPE_CASES))
def test_coefficient_values_keep_the_shape_the_coefficients_return(monkeypatch, case):
    # each value is stored at the broadcast of its steps' shapes with
    # (1, 1); broadcast to the particles it is, byte for byte, the value of
    # a run whose coefficients and control write out every particle's value
    coeffs, control, y0, shape = SHAPE_CASES[case]
    reps, particles = 3, 5
    part = make_uniform_partition(1.0, 10)
    streams = [RngStream(9, 0).child(r) for r in range(reps)]
    full_coeffs = replace(
        coeffs, drift=_spread(coeffs.drift), sigma=_spread(coeffs.sigma), sigma0=_spread(coeffs.sigma0)
    )
    full_control = None if control is None else _spread(control)
    set_window(monkeypatch, 3, reps, particles)
    runs = [
        sweep_windows(c, dirac_initial(0.1), particles, part, streams, a, y0)
        for c, a in ((coeffs, control), (full_coeffs, full_control))
    ]
    assert [w.num_cells for w in runs[0]] == [3, 3, 3, 1]
    names = ["drift_values", "sigma_values", "sigma0_values"] + ([] if control is None else ["control_values"])
    for kept, full in zip(*runs):
        assert kept.states.tobytes() == full.states.tobytes()
        expected = tuple({"M": reps, "N": particles}.get(axis, axis) for axis in shape)
        for name in names:
            assert getattr(kept, name).shape == (kept.num_cells, *expected), name
            assert getattr(full, name).shape == full.idio_increments.shape, name
            assert at_particles(kept, name).tobytes() == getattr(full, name).tobytes(), name


@pytest.mark.parametrize("value", [np.zeros(7), np.zeros((1, 1, 1))], ids=["other-N", "three-axes"])
def test_a_control_value_that_does_not_fit_the_particles_is_refused(value):
    # the coefficients ignore the control, so only its stored values see
    # the shape; the window is refused whole, and the sweep with it
    part = make_uniform_partition(1.0, 4)

    def control(t, x, m):
        return value

    sweep = Sweep(constant_coefficients(sigma=1.0), dirac_initial(0.0), 5, part, [RngStream(0, 0)], control)
    with pytest.raises(InvalidArgumentError, match="does not broadcast"):
        simulate_ensemble(sweep)
    with pytest.raises(InvalidArgumentError, match="failed at step 3"):
        simulate_ensemble(sweep)
    assert sweep.next_cell == 0


def test_batched_blow_up_names_the_first_step_over_all_repetitions(monkeypatch):
    # b(x) = 1e100 x without noise on cells of width 1 multiplies x by about
    # 1e100 a cell: from 1 the state overflows at step 4, from 1e10 at step
    # 3, and from 0 never
    part = make_uniform_partition(8.0, 8)
    coeffs = SdeCoefficients(
        drift=lambda t, x, y, m, a: 1e100 * x,
        sigma=lambda t, x, y, m, a: 0.0,
        sigma0=lambda t, x, y, m, a: 0.0,
        k=lambda t, y: 0.0,
        gamma=lambda t, y: 0.0,
        gamma0=lambda t, y: 0.0,
    )
    starts = (0.0, 1.0, 1e10)

    def initial(rng, n):  # rng is stream r's child 2
        return np.full(n, starts[rng.path[0]])

    base = RngStream(0, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        alone = []
        for r in (1, 2):
            with pytest.raises(BlowUpError) as err:
                simulate_ensemble(Sweep(coeffs, initial, 4, part, [base.child(r)]))
            alone.append(err.value.step)
        assert alone == [4, 3]
        for reps, expected in ((2, 4), (3, 3)):
            # the widest window the rule allows (8 // reps cells), then one cell
            for window in (8, 1):
                set_window(monkeypatch, window, reps, 4)
                with pytest.raises(BlowUpError) as err:
                    sweep_windows(coeffs, initial, 4, part, [base.child(r) for r in range(reps)])
                assert err.value.step == expected


def test_batched_sweep_rejects_bad_initial_atoms_and_lone_streams():
    part = make_uniform_partition(1.0, 4)
    coeffs = constant_coefficients(sigma=1.0)
    streams = [RngStream(0, 0).child(r) for r in range(3)]

    def initial(rng, n):  # only the second repetition starts at NaN
        return np.full(n, np.nan if rng.path[0] == 1 else 0.0)

    # a batch of three on four cells runs windows of one cell
    with pytest.raises(InvalidArgumentError):
        simulate_ensemble(Sweep(coeffs, initial, 4, part, streams))
    # a lone stream is no sequence of streams, and an empty batch has none
    with pytest.raises(InvalidArgumentError, match="sequence of streams"):
        Sweep(coeffs, dirac_initial(0.0), 4, part, streams[0])
    with pytest.raises(InvalidArgumentError):
        Sweep(coeffs, dirac_initial(0.0), 4, part, [])
    # finite atoms whose mean overflows are no blow-up, batched or alone
    with np.errstate(over="ignore"):
        batched = whole_run(constant_coefficients(), dirac_initial(1e308), 4, part, streams)
        alone = whole_run(constant_coefficients(), dirac_initial(1e308), 4, part, streams[:1])
    assert (batched.states == 1e308).all() and (alone.states == 1e308).all()
