"""Windowed and batched Euler sweeps: the window contract and
byte-identical verifier reports.

Each verifier sweeps its repetitions in batches of G = min(M, c // 16)
streams, where c = min(n, budget // N) is the window of a batch of one,
and each batch in windows of max(1, c // G) cells, whether or not the
coefficients read the law or there is a factor path.  The tests shrink
the private budget so that (n, N) = (64, 128) splits into many windows,
or into batches of every size, and compare against the one-window or
the batch-of-one run with ``==``, not approximately.
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
    8 cells, for law-free and law-reading coefficients, with or without a
    factor path."""
    for coeffs in (LAW_FREE, MEAN_REVERTING):
        batched = spec(y0, coeffs)
        monkeypatch.setattr(particle, "_WINDOW_ELEMENTS", 8 * N_PARTICLES)
        assert batched.batch_size(m) == 1
        reference = run(batched)
        for size in (1, m - 1, m):
            # a batch-of-one window of 16 G cells gives batches of G, 16 cells a window
            monkeypatch.setattr(particle, "_WINDOW_ELEMENTS", 16 * size * N_PARTICLES)
            assert batched.batch_size(m) == size
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


def test_every_verifier_sweeps_in_batches(monkeypatch):
    # n = N = 64: a batch-of-one window holds min(64, 2**16 // 64) = 64
    # cells, so G = 4; four streams are swept as one in windows of 16
    # cells, then the fifth alone in one window, with one empirical
    # measure argument a swept step whether or not the coefficients read
    # the law and whether or not there is a factor path
    sweeps = counted(monkeypatch, chainrule, "simulate_ensemble")
    measures = counted(monkeypatch, particle, "empirical")
    n, m = 64, 5

    def small(coeffs, y0=None):
        return EnsembleSpec(coeffs, gaussian_quantile_initial(0.3, 0.5), 64, n, y0=y0)

    fspec = RandomFieldSpec(None, (FieldComponent(mean_functional(), "martingale", "common"),))
    bspec = BrownianFieldSpec(initial=mean_squared_functional(), psi0=mean_functional())
    runs = [
        lambda coeffs, cfg: verify_ito(second_moment_functional(), small(coeffs), cfg),
        lambda coeffs, cfg: verify_ito_wentzell(fspec, small(coeffs), cfg),
        lambda coeffs, cfg: verify_brownian_corollary(bspec, small(coeffs), cfg),
        lambda coeffs, cfg: verify_factor_model(factor_linear_functional(), small(coeffs, y0=0.2), cfg),
    ]
    for run in runs:
        for coeffs in (LAW_FREE, MEAN_REVERTING):
            sweeps.clear()
            measures.clear()
            run(coeffs, VerifyConfig(RNG.child(8), outer_paths=m, rule="dt"))
            assert [(len(c[0][4]), c[1]["num_cells"]) for c in sweeps] == [(4, 16)] * 4 + [(1, 64)]
            assert len(measures) == 4 * 16 + 64


# ---------------------------------------------------------------------------
# the window contract


def test_windows_tile_the_whole_run(monkeypatch):
    monkeypatch.setattr(particle, "_WINDOW_ELEMENTS", 5 * N_PARTICLES)
    s = spec(y0=0.2)
    whole = simulate_ensemble(s.coeffs, s.initial, N_PARTICLES, s.partition(), [RNG.child(6)], y0=s.y0)
    windows = list(s.windows([RNG.child(6)]))
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
    np.testing.assert_array_equal(windows[-1].common[0].values, whole.common[0].values)
    np.testing.assert_array_equal(windows[-1].factor[0].values, whole.factor[0].values)


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
    streams = [RNG]
    first = simulate_ensemble(coeffs, dirac_initial(0.0), 4, part, streams, num_cells=3)
    second = simulate_ensemble(coeffs, first, 4, part, streams, num_cells=3)
    with pytest.raises(InvalidArgumentError):
        simulate_ensemble(coeffs, first, 4, part, streams)  # already resumed
    with pytest.raises(InvalidArgumentError):
        simulate_ensemble(coeffs, second, 5, part, streams)  # other particle count
    with pytest.raises(InvalidArgumentError):
        simulate_ensemble(coeffs, second, 4, make_uniform_partition(1.0, 8), streams)
    last = simulate_ensemble(coeffs, second, 4, part, streams)
    assert (last.first_cell, last.num_cells) == (6, 2)
    with pytest.raises(InvalidArgumentError):
        simulate_ensemble(coeffs, last, 4, part, streams)  # the sweep is finished
    with pytest.raises(InvalidArgumentError):
        simulate_ensemble(coeffs, dirac_initial(0.0), 4, part, streams, num_cells=0)
