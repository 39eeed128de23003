"""Windowed and batched Euler sweeps: the window contract and
byte-identical verifier reports.

Each verifier sweeps its repetitions in batches of G = min(M, c // 16)
streams, where c = min(n, budget // N) is the window of a batch of one,
and the sweep runs each batch in windows of max(1, c // G) cells, whether
or not the coefficients read the law or there is a factor path; every
other caller of the sweep gets the same windows.  The tests shrink
the private budget so that (n, N) = (64, 128) splits into many windows,
or into batches of every size, and compare against the one-window or
the batch-of-one run with ``==``, not approximately.
"""

from dataclasses import replace

import numpy as np
import pytest

from condflow import (
    BlowUpError,
    BrownianFieldSpec,
    EnsembleSpec,
    FieldComponent,
    InvalidArgumentError,
    RandomFieldSpec,
    RngStream,
    Sweep,
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
from condflow import particle
from condflow.cli import run as run_config
from condflow.paths import SdeCoefficients
from condflow.registry import (
    factor_linear_functional,
    mean_functional,
    mean_squared_functional,
    second_moment_functional,
    variance_functional,
)

from helpers import REPRO_CONFIGS, counted, set_window, sweep_windows

RNG = RngStream(2024, 0)
N_CELLS, N_PARTICLES = 64, 128
ONE_WINDOW = 1 << 30
# 5 cells per window (12 full windows and one of 4 cells), then 1 cell per window
SPLIT_BUDGETS = (5 * N_PARTICLES, N_PARTICLES)


# measure-dependent drift, so every window must hand the right measure on,
# and every repetition of a batch must see its own
MEAN_REVERTING = SdeCoefficients(
    drift=lambda t, x, y, m: 0.7 * (m.mean() - x),
    sigma=lambda t, x, y, m: np.full_like(x, 0.6),
    sigma0=lambda t, x, y, m: 0.4 * np.cos(x),
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
            FieldComponent(second_moment_functional(), "fv", "time"),
            FieldComponent(mean_functional(), "martingale", "common"),
            FieldComponent(variance_functional(), "martingale", "independent"),
            FieldComponent(mean_squared_functional(), "martingale", "idiosyncratic"),
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


def test_every_verifier_sweeps_in_batches(monkeypatch):
    # n = N = 64: a batch-of-one window holds min(64, 2**16 // 64) = 64
    # cells, so G = 4; four streams are swept as one in windows of 16
    # cells, then the fifth alone in one window, with one empirical
    # measure argument a swept step whether or not the coefficients read
    # the law and whether or not there is a factor path
    sweeps = counted(monkeypatch, particle, "simulate_ensemble")
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
            windows = [(len(call["sweep"].streams), ens.num_cells) for call, ens in sweeps]
            assert windows == [(4, 16)] * 4 + [(1, 64)]
            assert len(measures) == 4 * 16 + 64


def test_every_window_keeps_the_budget(monkeypatch):
    # every caller of the sweep, at every registry experiment's smoke size,
    # gets windows of at most max(1, min(n, window_cells(N)) // G) cells,
    # and the windows that simulate_ensemble returns tile each sweep's
    # grid, so a window run past that name leaves a gap;
    # modulus-lq (n 32, N 32, 4 repetitions) sweeps 8-cell windows, and
    # dpp-lq (n 16 < window_cells(32), N 32, M 4) 4-cell windows
    sweeps = counted(monkeypatch, particle, "simulate_ensemble")
    swept = set()
    for cfg in REPRO_CONFIGS:
        sweeps.clear()
        run_config(dict(cfg), write=False)
        reached = {}
        for call, ens in sweeps:
            sweep = call["sweep"]
            n, big_n, g = sweep.partition.num_cells, sweep.num_particles, len(sweep.streams)
            assert ens.num_cells <= max(1, min(n, particle.window_cells(big_n)) // g), cfg
            assert ens.first_cell == reached.get(sweep, 0), cfg
            reached[sweep] = ens.cells.stop
        assert all(stop == sweep.partition.num_cells for sweep, stop in reached.items()), cfg
        if sweeps:
            swept.add(cfg["experiment"])
        if cfg["experiment"] in ("modulus-lq", "dpp-lq"):
            assert {ens.num_cells for _, ens in sweeps} == {8 if cfg["experiment"] == "modulus-lq" else 4}
    assert swept == {cfg["experiment"] for cfg in REPRO_CONFIGS} - {"lemma-qv-bm", "deriv-battery"}


# ---------------------------------------------------------------------------
# the window contract


def test_windows_tile_the_whole_run(monkeypatch):
    s = spec(y0=0.2)
    recipe = (s.coeffs, s.initial, N_PARTICLES, s.partition(), [RNG.child(6)])
    set_window(monkeypatch, N_CELLS, 1, N_PARTICLES)
    whole = simulate_ensemble(Sweep(*recipe, y0=s.y0))
    assert whole.num_cells == N_CELLS
    set_window(monkeypatch, 5, 1, N_PARTICLES)
    windows = sweep_windows(*recipe, y0=s.y0)
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


def test_a_finished_sweep_is_refused(monkeypatch):
    sweep = Sweep(constant_coefficients(sigma=1.0), dirac_initial(0.0), 4, make_uniform_partition(1.0, 8), [RNG])
    set_window(monkeypatch, 3, 1, 4)
    windows = [simulate_ensemble(sweep) for _ in range(3)]
    assert [(w.first_cell, w.num_cells) for w in windows] == [(0, 3), (3, 3), (6, 2)]
    assert sweep.done
    with pytest.raises(InvalidArgumentError, match="finished"):
        simulate_ensemble(sweep)


@pytest.mark.parametrize("raiser", ["drift", "sigma0"])
def test_a_sweep_whose_callable_raised_is_refused(monkeypatch, raiser):
    # the window has drawn its dW before the third call raises, so any
    # exception in it, not only a blow-up, ends the sweep at that step
    calls = []

    def third_call_fails(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ZeroDivisionError("division by zero")
        return 0.5

    coeffs = replace(constant_coefficients(sigma=1.0), **{raiser: third_call_fails})
    sweep = Sweep(coeffs, dirac_initial(0.0), 4, make_uniform_partition(1.0, 8), [RNG])
    set_window(monkeypatch, 8, 1, 4)
    with pytest.raises(ZeroDivisionError):
        simulate_ensemble(sweep)
    for _ in range(2):
        with pytest.raises(InvalidArgumentError, match="failed at step 2"):
            simulate_ensemble(sweep)
    assert sweep.next_cell == 0 and len(calls) == 3


def test_a_sweep_that_blew_up_is_refused(monkeypatch):
    # the window that blew up has drawn its dW, so running it again would
    # rerun its cells on fresh draws
    coeffs = SdeCoefficients(
        drift=lambda t, x, y, m: 1e100 * x,
        sigma=lambda t, x, y, m: np.full_like(x, 1.0),
        sigma0=lambda t, x, y, m: np.zeros_like(x),
        k=lambda t, y: 0.0,
        gamma=lambda t, y: 0.0,
        gamma0=lambda t, y: 0.0,
    )
    sweep = Sweep(coeffs, dirac_initial(1.0), 8, make_uniform_partition(8.0, 8), [RNG])
    set_window(monkeypatch, 4, 1, 8)
    with np.errstate(over="ignore"):
        with pytest.raises(BlowUpError) as err:
            simulate_ensemble(sweep)
        assert err.value.step == 4
        for _ in range(2):
            with pytest.raises(InvalidArgumentError, match="step 4"):
                simulate_ensemble(sweep)
    assert sweep.next_cell == 0
