"""Windowed and batched Euler sweeps: the window contract and
byte-identical verifier reports.

Each verifier sweeps a repetition in windows of c = min(n, budget // N)
cells, and, unless there is a factor path, in batches of G = min(M,
c // 16) repetitions with windows of c // G cells, whether or not the
coefficients read the law.  The tests shrink the private budget so that
(n, N) = (64, 128) splits into many windows, or into batches of every
size, and compare against the one-window or the one-stream run with
``==``, not approximately.
"""

import numpy as np
import pytest

from condflow import (
    BrownianFieldSpec,
    EnsembleSpec,
    FieldComponent,
    InvalidArgumentError,
    RandomFieldSpec,
    RngStream,
    VerifyConfig,
    constant_coefficients,
    dirac_initial,
    gaussian_quantile_initial,
    make_uniform_partition,
    simulate_ensemble,
    verify_brownian_corollary,
    verify_factor_model,
    verify_ito,
    verify_ito_wentzell,
)
from condflow import chainrule, particle
from condflow.paths import SdeCoefficients
from condflow.registry import (
    factor_linear_functional,
    mean_functional,
    mean_squared_functional,
    second_moment_functional,
    variance_functional,
)

RNG = RngStream(2024, 0)
N_CELLS, N_PARTICLES = 64, 128
ONE_WINDOW = 1 << 30
# 5 cells per window (12 full windows and one of 4 cells), then 1 cell per window
SPLIT_BUDGETS = (5 * N_PARTICLES, N_PARTICLES)


# measure-dependent drift, so every window must hand the right measure on,
# and every repetition of a batch must see its own
MEAN_REVERTING = SdeCoefficients(
    drift=lambda t, x, y, m, a: 0.7 * (m.mean() - x),
    sigma=lambda t, x, y, m, a: np.full_like(x, 0.6),
    sigma0=lambda t, x, y, m, a: 0.4 * np.cos(x),
    k=lambda t, y: 0.1,
    gamma=lambda t, y: 0.3,
    gamma0=lambda t, y: 0.5,
)


# constant coefficients, all nonzero, so that the drift, bracket and
# cross terms are nonzero
LAW_FREE = constant_coefficients(b=0.3, sigma=0.6, sigma0=0.4)


def spec(y0=None, coeffs=MEAN_REVERTING):
    return EnsembleSpec(
        coeffs=coeffs,
        initial=gaussian_quantile_initial(0.3, 0.5),
        num_particles=N_PARTICLES,
        num_cells=N_CELLS,
        y0=y0,
    )


def row_bytes(report):
    return [(r.lhs, r.terms, r.residual, r.ablation_residual) for r in report.rows]


def assert_same_across_window_counts(monkeypatch, run):
    monkeypatch.setattr(particle, "_WINDOW_ELEMENTS", ONE_WINDOW)
    reference = run()
    for budget in SPLIT_BUDGETS:
        monkeypatch.setattr(particle, "_WINDOW_ELEMENTS", budget)
        report = run()
        assert row_bytes(report) == row_bytes(reference)
        assert report.aggregate == reference.aggregate


def assert_same_across_batches(monkeypatch, run, m, y0=None):
    """Runs in batches of G = 1, M - 1 (a ragged last batch) and M, each
    in several windows, equal the G = 1 run of the same spec in windows of
    8 cells, for law-free and law-reading coefficients.  A factor run is
    never batched."""
    for coeffs in (LAW_FREE, MEAN_REVERTING):
        batched = spec(y0, coeffs)
        monkeypatch.setattr(particle, "_WINDOW_ELEMENTS", 8 * N_PARTICLES)
        assert batched.batch_size(m) == 1
        reference = run(batched)
        for size in (1, m - 1, m):
            # a one-stream window of 16 G cells gives batches of G, 16 cells a window
            monkeypatch.setattr(particle, "_WINDOW_ELEMENTS", 16 * size * N_PARTICLES)
            assert batched.batch_size(m) == (size if y0 is None else 1)
            report = run(batched)
            assert row_bytes(report) == row_bytes(reference)
            assert report.aggregate == reference.aggregate


# ids name the functional, the state-bracket estimator, always analytic,
# and the cross estimator
@pytest.mark.parametrize(
    "functional, cross",
    [
        (second_moment_functional(), "analytic"),
        (mean_squared_functional(), "pairwise"),
        (variance_functional(), "analytic"),
    ],
    ids=["functional0-analytic-analytic", "functional1-analytic-pairwise", "functional2-analytic-analytic"],
)
def test_verify_ito_identical_across_windows(monkeypatch, functional, cross):
    cfg = VerifyConfig(RNG.child(1), outer_paths=3, cross=cross)
    assert_same_across_window_counts(monkeypatch, lambda: verify_ito(functional, spec(), cfg))
    assert_same_across_batches(monkeypatch, lambda s: verify_ito(functional, s, cfg), 3)


@pytest.mark.parametrize("cross", ["analytic", "pairwise"], ids=["analytic-analytic", "analytic-pairwise"])
def test_verify_wentzell_identical_across_windows(monkeypatch, cross):
    fspec = RandomFieldSpec(
        mean_squared_functional(),
        (
            FieldComponent(second_moment_functional(), "fv", "time", scale=0.7),
            FieldComponent(mean_functional(), "martingale", "common", scale=1.3),
            FieldComponent(variance_functional(), "martingale", "independent"),
            FieldComponent(mean_squared_functional(), "martingale", "idiosyncratic", scale=0.9),
        ),
    )
    cfg = VerifyConfig(RNG.child(2), outer_paths=3, cross=cross)
    assert_same_across_window_counts(monkeypatch, lambda: verify_ito_wentzell(fspec, spec(), cfg))
    assert_same_across_batches(monkeypatch, lambda s: verify_ito_wentzell(fspec, s, cfg), 3)


def test_idiosyncratic_driver_carries_across_windows(monkeypatch):
    # the driver is the running sum of particle 0's dW over every window
    fspec = RandomFieldSpec(None, (FieldComponent(mean_functional(), "martingale", "idiosyncratic"),))
    cfg = VerifyConfig(RNG.child(3), outer_paths=4, rule="dt")
    assert_same_across_window_counts(monkeypatch, lambda: verify_ito_wentzell(fspec, spec(), cfg))
    assert_same_across_batches(monkeypatch, lambda s: verify_ito_wentzell(fspec, s, cfg), 4)


def test_verify_brownian_identical_across_windows(monkeypatch):
    bspec = BrownianFieldSpec(
        initial=mean_squared_functional(),
        phi=second_moment_functional(),
        psi=variance_functional(),
        psi0=mean_functional(),
    )
    cfg = VerifyConfig(RNG.child(4), outer_paths=3, rule="dt")
    assert_same_across_window_counts(monkeypatch, lambda: verify_brownian_corollary(bspec, spec(), cfg))
    assert_same_across_batches(monkeypatch, lambda s: verify_brownian_corollary(bspec, s, cfg), 3)


def test_verify_factor_identical_across_windows(monkeypatch):
    cfg = VerifyConfig(RNG.child(5), outer_paths=3, rule="dt")
    fu = factor_linear_functional()
    assert_same_across_window_counts(monkeypatch, lambda: verify_factor_model(fu, spec(y0=0.2), cfg))
    assert_same_across_batches(monkeypatch, lambda s: verify_factor_model(fu, s, cfg), 3, y0=0.2)


def counted(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_only_factor_runs_sweep_one_stream_at_a_time(monkeypatch):
    # n = N = 64: a one-stream window holds min(64, 2**16 // 64) = 64
    # cells, so G = 4; four streams are swept as one in windows of 16
    # cells, then the fifth alone in one window, with one empirical
    # measure argument a swept step whether or not the coefficients read it
    sweeps = counted(monkeypatch, chainrule, "simulate_ensemble")
    measures = counted(monkeypatch, particle, "empirical")
    n, m = 64, 5

    def small(coeffs, y0=None):
        return EnsembleSpec(coeffs, gaussian_quantile_initial(0.3, 0.5), 64, n, y0=y0)

    def streams(call):
        # None for one stream, else the batch's stream count
        rng = call[0][4]
        return None if isinstance(rng, RngStream) else len(rng)

    fspec = RandomFieldSpec(None, (FieldComponent(mean_functional(), "martingale", "common"),))
    for coeffs in (LAW_FREE, MEAN_REVERTING):
        sweeps.clear()
        measures.clear()
        verify_ito_wentzell(fspec, small(coeffs), VerifyConfig(RNG.child(8), outer_paths=m, rule="dt"))
        assert [(streams(c), c[1]["num_cells"]) for c in sweeps] == [(4, 16)] * 4 + [(1, 64)]
        assert len(measures) == 4 * 16 + 64

    # the factor run sweeps one stream at a time, with one empirical
    # measure a step
    sweeps.clear()
    measures.clear()
    cfg = VerifyConfig(RNG.child(9), outer_paths=m, rule="dt")
    verify_factor_model(factor_linear_functional(), small(LAW_FREE, y0=0.2), cfg)
    assert [(streams(c), c[1]["num_cells"]) for c in sweeps] == [(None, 64)] * m
    assert len(measures) == m * n


# ---------------------------------------------------------------------------
# the window contract


def test_windows_tile_the_whole_run(monkeypatch):
    monkeypatch.setattr(particle, "_WINDOW_ELEMENTS", 5 * N_PARTICLES)
    s = spec(y0=0.2)
    whole = simulate_ensemble(s.coeffs, s.initial, N_PARTICLES, s.partition(), RNG.child(6), y0=s.y0)
    windows = list(s.windows(RNG.child(6)))
    assert len(windows) == 13
    assert sum(w.num_cells * w.num_particles for w in windows) == N_CELLS * N_PARTICLES
    assert [w.first_cell for w in windows] == list(range(0, N_CELLS, 5))
    for prev, nxt in zip(windows, windows[1:]):
        np.testing.assert_array_equal(nxt.states[0], prev.states[-1])
    for name in ("idio_increments", "drift_values", "sigma_values", "sigma0_values"):
        joined = np.concatenate([getattr(w, name) for w in windows])
        np.testing.assert_array_equal(joined, getattr(whole, name))
    joined_states = np.concatenate([windows[0].states[:1]] + [w.states[1:] for w in windows])
    np.testing.assert_array_equal(joined_states, whole.states)
    np.testing.assert_array_equal(windows[-1].common.values, whole.common.values)
    np.testing.assert_array_equal(windows[-1].factor.values, whole.factor.values)


@pytest.mark.parametrize("block", [1, 5, 64])
def test_philox_normals_do_not_depend_on_block_size(block):
    # the windows draw dW0 whole, then dW in (block, N) pieces
    one = RNG.child(7).generator()
    pieces = RNG.child(7).generator()
    np.testing.assert_array_equal(one.normal(size=N_CELLS), pieces.normal(size=N_CELLS))
    whole = one.normal(size=(N_CELLS, N_PARTICLES))
    blocks = [pieces.normal(size=(min(block, N_CELLS - k), N_PARTICLES)) for k in range(0, N_CELLS, block)]
    np.testing.assert_array_equal(np.concatenate(blocks), whole)


def test_resume_rules():
    part = make_uniform_partition(1.0, 8)
    coeffs = constant_coefficients(sigma=1.0)
    first = simulate_ensemble(coeffs, dirac_initial(0.0), 4, part, RNG, num_cells=3)
    second = simulate_ensemble(coeffs, first, 4, part, RNG, num_cells=3)
    with pytest.raises(InvalidArgumentError):
        simulate_ensemble(coeffs, first, 4, part, RNG)  # already resumed
    with pytest.raises(InvalidArgumentError):
        simulate_ensemble(coeffs, second, 5, part, RNG)  # other particle count
    with pytest.raises(InvalidArgumentError):
        simulate_ensemble(coeffs, second, 4, make_uniform_partition(1.0, 8), RNG)
    last = simulate_ensemble(coeffs, second, 4, part, RNG)
    assert (last.first_cell, last.num_cells) == (6, 2)
    with pytest.raises(InvalidArgumentError):
        simulate_ensemble(coeffs, last, 4, part, RNG)  # the sweep is finished
    with pytest.raises(InvalidArgumentError):
        simulate_ensemble(coeffs, dirac_initial(0.0), 4, part, RNG, num_cells=0)
