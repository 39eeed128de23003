from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condflow import (
    BrownianFieldSpec,
    EnsembleSpec,
    FactorFunctional,
    FieldComponent,
    InvalidArgumentError,
    RandomFieldSpec,
    RngStream,
    VerifyConfig,
    constant_coefficients,
    convergence_study,
    dirac_initial,
    gaussian_quantile_initial,
    verify_brownian_corollary,
    verify_factor_model,
    verify_ito,
    verify_ito_wentzell,
)
from condflow import particle
from condflow.chainrule import _quantile_90
from condflow.measures import CylindricalFunctional, OuterFunction
from condflow.registry import (
    factor_linear_functional,
    identity_test,
    mean_functional,
    mean_squared_functional,
    second_moment_functional,
    square_test,
    variance_functional,
)

RNG = RngStream(101, 0)


def constant_functional(c: float) -> CylindricalFunctional:
    outer = OuterFunction(
        f"const({c})",
        value=lambda v: np.full(v.shape[:-1], c),
        grad=lambda v: np.zeros_like(v),
        hess=lambda v: np.zeros(v.shape + (1,)),
    )
    return CylindricalFunctional(outer.name, outer, (identity_test(),))


def common_noise_spec(n=32, particles=16, sigma=0.0, sigma0=1.0, b=0.0, **kw):
    return EnsembleSpec(
        coeffs=constant_coefficients(b=b, sigma=sigma, sigma0=sigma0),
        initial=kw.pop("initial", gaussian_quantile_initial(0.2, 0.5)),
        num_particles=particles,
        num_cells=n,
        horizon=kw.pop("horizon", 1.0),
        **kw,
    )


# ---------------------------------------------------------------------------
# plain chain rule


def test_telescoping_identity_exact_at_any_mesh():
    for n in (4, 64, 512):
        spec = common_noise_spec(n=n)
        cfg = VerifyConfig(RNG.child(n), outer_paths=4, cross="pairwise", rule="exact")
        report = verify_ito(mean_squared_functional(), spec, cfg)
        assert report.passed
        assert report.aggregate["max_abs_residual"] < 1e-12


def test_constant_functional_all_terms_vanish():
    spec = common_noise_spec()
    cfg = VerifyConfig(RNG.child(1), outer_paths=2, rule="exact")
    report = verify_ito(constant_functional(4.2), spec, cfg)
    for row in report.rows:
        assert row.lhs == 0.0
        assert all(v == 0.0 for v in row.terms.values())
        assert row.residual == 0.0


def test_second_moment_idiosyncratic_case():
    # u(mu_t) tracks x0^2 + t; the bracket term carries the full growth
    spec = common_noise_spec(n=128, particles=256, sigma=1.0, sigma0=0.0, initial=dirac_initial(0.5))
    cfg = VerifyConfig(RNG.child(2), outer_paths=24, rule="mc", tolerance_c=0.5)
    report = verify_ito(second_moment_functional(), spec, cfg)
    assert report.passed
    assert report.aggregate["term_second_order"] == pytest.approx(1.0)
    lhs_mean = np.mean([row.lhs for row in report.rows])
    assert abs(lhs_mean - 1.0) < 0.05
    s1 = report.aggregate["term_stochastic_integral"]
    se = np.std([row.terms["stochastic_integral"] for row in report.rows], ddof=1) / np.sqrt(24)
    assert abs(s1) < 4.0 * se


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64), st.integers(1, 4096), st.integers(0, 2**32 - 1))
def test_quantile_90_is_numpys_bit_for_bit(drawn, size, seed):
    # the drawn floats reach NaN, the infinities, signed zeros and ties;
    # the seeded draws reach long arrays of absolute residuals
    rows = [np.array(drawn), np.abs(np.random.default_rng(seed).standard_cauchy(size))]
    with np.errstate(invalid="ignore", over="ignore"):
        for x in rows:
            assert _quantile_90(x).hex() == float(np.quantile(x, 0.9)).hex()


def test_row_accounting_identity():
    spec = common_noise_spec(sigma=0.7, sigma0=0.4)
    cfg = VerifyConfig(RNG.child(3), outer_paths=6, rule="mc", tolerance_c=1.0)
    report = verify_ito(mean_squared_functional(), spec, cfg)
    for row in report.rows:
        assert row.residual == pytest.approx(row.lhs - sum(row.terms.values()), abs=1e-15)


def test_term_linearity_on_shared_noise():
    spec = common_noise_spec(sigma=0.5, sigma0=0.5)
    u1 = mean_squared_functional()
    u2 = second_moment_functional()

    def grad(v):
        out = np.empty_like(v)
        out[..., 0] = 4.0 * v[..., 0]
        out[..., 1] = -3.0
        return out

    def hess(v):
        out = np.zeros(v.shape + (2,))
        out[..., 0, 0] = 4.0
        return out

    # 2 mean^2 - 3 <x^2> as one functional on the tests (x, x^2)
    outer = OuterFunction("2*v1^2-3*v2", lambda v: 2.0 * v[..., 0] ** 2 - 3.0 * v[..., 1], grad, hess)
    combo = CylindricalFunctional("combo", outer, (identity_test(), square_test()))
    reports = {}
    for key, u in (("u1", u1), ("u2", u2), ("combo", combo)):
        cfg = VerifyConfig(RngStream(555, 0), outer_paths=3, rule="mc", tolerance_c=10.0)
        reports[key] = verify_ito(u, spec, cfg)
    for i in range(3):
        for name in reports["u1"].rows[i].terms:
            want = 2.0 * reports["u1"].rows[i].terms[name] - 3.0 * reports["u2"].rows[i].terms[name]
            assert reports["combo"].rows[i].terms[name] == pytest.approx(want, rel=1e-9, abs=1e-12)
        want_lhs = 2.0 * reports["u1"].rows[i].lhs - 3.0 * reports["u2"].rows[i].lhs
        assert reports["combo"].rows[i].lhs == pytest.approx(want_lhs, rel=1e-9, abs=1e-12)


def test_cross_estimator_modes_agree():
    spec = common_noise_spec(n=256, particles=128, sigma=0.6, sigma0=0.8)
    got = {}
    for cross in ("analytic", "pairwise"):
        cfg = VerifyConfig(RngStream(78, 0), outer_paths=8, cross=cross, rule="mc", tolerance_c=1.0)
        got[cross] = verify_ito(mean_squared_functional(), spec, cfg)
    a = got["analytic"].aggregate["term_cross"]
    b = got["pairwise"].aggregate["term_cross"]
    assert a == pytest.approx(b, rel=0.2, abs=0.02)


def test_verify_ito_rejects_bad_config():
    spec = common_noise_spec()
    with pytest.raises(InvalidArgumentError):
        VerifyConfig(RNG, outer_paths=0)
    with pytest.raises(InvalidArgumentError):
        VerifyConfig(RNG, cross="nope")
    bad_spec = common_noise_spec(particles=1)
    with pytest.raises(InvalidArgumentError):
        verify_ito(mean_functional(), bad_spec, VerifyConfig(RNG, outer_paths=2))


def test_verify_config_refuses_bad_allowances():
    # a negative or NaN allowance is a gate that cannot pass, so it is
    # refused before any sweep runs
    for key in ("tolerance_c", "exact_floor"):
        for bad in (-1.0, np.nan):
            with pytest.raises(InvalidArgumentError, match=key):
                VerifyConfig(RNG, **{key: bad})
    VerifyConfig(RNG, tolerance_c=0.0, exact_floor=0.0)


def test_single_repetition_needs_the_exact_rule():
    # one repetition has no standard error, so mc and dt would pass by default
    for rule in ("mc", "dt"):
        with pytest.raises(InvalidArgumentError):
            VerifyConfig(RNG, outer_paths=1, rule=rule)
    cfg = VerifyConfig(RNG.child(5), outer_paths=1, cross="pairwise", rule="exact")
    report = verify_ito(mean_squared_functional(), common_noise_spec(n=8, particles=8), cfg)
    assert len(report.rows) == 1 and report.passed


# ---------------------------------------------------------------------------
# random fields


# ids name the state-bracket estimator, always analytic, and the cross estimator
@pytest.mark.parametrize("cross", ["analytic", "pairwise"], ids=["analytic-analytic", "analytic-pairwise"])
def test_wentzell_without_components_is_plain_ito(monkeypatch, cross):
    # a field with no drivers is a deterministic functional: the Wentzell
    # rule reduces to the Ito rule term for term, across several windows
    monkeypatch.setattr(particle, "_WINDOW_ELEMENTS", 5 * 16)
    spec = common_noise_spec(n=32, particles=16, sigma=0.6, sigma0=0.8)
    u = variance_functional()  # nonzero gradient, Hessian and pair kernel
    cfg = VerifyConfig(RNG.child(40), outer_paths=3, cross=cross)
    plain = verify_ito(u, spec, cfg)
    field = verify_ito_wentzell(RandomFieldSpec(u, ()), spec, cfg)
    for a, b in zip(plain.rows, field.rows):
        assert a.lhs == b.lhs
        for name in ("stochastic_integral", "second_order", "cross"):
            assert a.terms[name] == b.terms[name]
        for name in ("field_fv", "field_martingale", "bracket_correction"):
            assert b.terms[name] == 0.0


def test_wentzell_deterministic_field_reduction():
    # measure-independent field coefficients add plain driver integrals
    fspec = RandomFieldSpec(
        mean_squared_functional(),
        (
            FieldComponent(constant_functional(0.8), "fv", "time"),
            FieldComponent(constant_functional(1.5), "martingale", "independent"),
        ),
    )
    espec = common_noise_spec(n=64, particles=32, sigma0=1.0)
    cfg = VerifyConfig(RNG.child(13), outer_paths=16, cross="pairwise", rule="dt", tolerance_c=2.0)
    report = verify_ito_wentzell(fspec, espec, cfg)
    assert report.passed
    assert report.aggregate["term_bracket_correction"] == 0.0
    assert report.aggregate["term_field_fv"] == pytest.approx(0.8)


def test_wentzell_common_tag_correction_is_load_bearing():
    fspec = RandomFieldSpec(None, (FieldComponent(mean_functional(), "martingale", "common"),))
    espec = common_noise_spec(n=256, particles=32, sigma0=1.0)
    cfg = VerifyConfig(
        RNG.child(14), outer_paths=48, rule="dt", tolerance_c=2.0, expected_correction=1.0
    )
    report = verify_ito_wentzell(fspec, espec, cfg)
    assert report.passed
    assert report.aggregate["term_bracket_correction"] == pytest.approx(1.0)
    # per-path ablation misses by the correction value
    for row in report.rows:
        assert row.ablation_residual == pytest.approx(row.residual + row.terms["bracket_correction"])


def test_wentzell_independent_tag_correction_zero():
    fspec = RandomFieldSpec(None, (FieldComponent(mean_functional(), "martingale", "independent"),))
    espec = common_noise_spec(n=128, particles=32, sigma=1.0, sigma0=0.5)
    cfg = VerifyConfig(
        RNG.child(15), outer_paths=32, rule="dt", tolerance_c=2.0, expected_correction=0.0
    )
    report = verify_ito_wentzell(fspec, espec, cfg)
    assert report.passed
    assert report.aggregate["term_bracket_correction"] == 0.0


def test_wentzell_idiosyncratic_tag_small_ensemble():
    # the tagged-particle bracket enters through one particle out of N,
    # so the correction is scale * sigma * T / N -- visible at small N
    n_particles = 4
    fspec = RandomFieldSpec(
        None, (FieldComponent(mean_functional(), "martingale", "idiosyncratic"),)
    )
    espec = common_noise_spec(n=256, particles=n_particles, sigma=1.0, sigma0=0.0)
    cfg = VerifyConfig(
        RNG.child(16),
        outer_paths=64,
        rule="dt",
        tolerance_c=2.0,
        expected_correction=1.0 / n_particles,
    )
    report = verify_ito_wentzell(fspec, espec, cfg)
    assert report.passed
    assert report.aggregate["term_bracket_correction"] == pytest.approx(1.0 / n_particles)
    # deleting the correction shifts the mean residual by T/N beyond noise
    abl = report.aggregate["mean_ablation_residual"]
    se = report.aggregate["se_ablation_residual"]
    assert abl - 3.0 * se > 0.5 / n_particles


# ---------------------------------------------------------------------------
# Brownian and factor specializations


def test_brownian_designed_instance():
    spec = BrownianFieldSpec(psi0=mean_functional())
    espec = common_noise_spec(n=256, particles=16, sigma0=1.0)
    cfg = VerifyConfig(RNG.child(17), outer_paths=48, rule="dt", tolerance_c=2.0)
    report = verify_brownian_corollary(spec, espec, cfg)
    assert report.passed
    assert report.aggregate["term_bracket_correction"] == pytest.approx(1.0)


def test_brownian_reduction_without_common_noise():
    # psi0 = 0, sigma0 = 0: the corollary collapses to the plain field case
    spec = BrownianFieldSpec(initial=mean_squared_functional(), psi=constant_functional(0.5))
    espec = common_noise_spec(n=128, particles=256, sigma=1.0, sigma0=0.0)
    cfg = VerifyConfig(RNG.child(18), outer_paths=16, rule="mc", tolerance_c=0.5)
    report = verify_brownian_corollary(spec, espec, cfg)
    assert report.passed
    assert report.aggregate["term_field_common"] == 0.0
    assert report.aggregate["term_bracket_correction"] == 0.0


def test_brownian_all_zero():
    spec = BrownianFieldSpec(initial=constant_functional(0.0))
    espec = common_noise_spec(n=16, particles=8, sigma0=0.0)
    cfg = VerifyConfig(RNG.child(19), outer_paths=2, rule="exact")
    report = verify_brownian_corollary(spec, espec, cfg)
    for row in report.rows:
        assert row.lhs == 0.0
        assert row.residual == 0.0


def test_factor_designed_instance():
    espec = EnsembleSpec(
        coeffs=constant_coefficients(sigma0=1.0, gamma0=1.0),
        initial=gaussian_quantile_initial(0.4, 0.3),
        num_particles=16,
        num_cells=256,
        horizon=1.0,
        y0=0.2,
    )
    cfg = VerifyConfig(RNG.child(20), outer_paths=48, rule="dt", tolerance_c=2.0)
    report = verify_factor_model(factor_linear_functional(), espec, cfg)
    assert report.passed
    assert report.aggregate["term_mixed_bracket"] == pytest.approx(1.0)


def test_factor_time_functional_exact():
    # u(t, m, y) = t: only the factor view's time term moves
    fu = FactorFunctional(
        name="factor-time",
        tests=(identity_test(),),
        value=lambda t, v, y: np.broadcast_to(t, np.shape(y)).astype(float),
        dt=lambda t, v, y: np.ones_like(y),
        dv=lambda t, v, y: np.zeros_like(v),
        dvv=lambda t, v, y: np.zeros(v.shape + (1,)),
        dy=lambda t, v, y: np.zeros_like(y),
        dyy=lambda t, v, y: np.zeros_like(y),
        dvy=lambda t, v, y: np.zeros_like(v),
    )
    espec = EnsembleSpec(
        coeffs=constant_coefficients(sigma=0.5, gamma=0.4),
        initial=dirac_initial(0.0),
        num_particles=8,
        num_cells=32,
        horizon=1.0,
        y0=0.1,
    )
    cfg = VerifyConfig(RNG.child(21), outer_paths=4, rule="exact")
    report = verify_factor_model(fu, espec, cfg)
    assert report.passed
    for row in report.rows:
        assert row.lhs == pytest.approx(1.0)
        assert row.terms["time"] == pytest.approx(1.0)


def test_factor_reduces_to_plain_ito_when_y_independent():
    # y-independent functional: the factor terms vanish identically
    fu = factor_linear_functional()
    plain = FactorFunctional(
        name="second-moment-in-disguise",
        tests=fu.tests,
        value=lambda t, v, y: v[..., 0],
        dt=lambda t, v, y: np.zeros_like(y),
        dv=lambda t, v, y: np.ones_like(v),
        dvv=lambda t, v, y: np.zeros(v.shape + (1,)),
        dy=lambda t, v, y: np.zeros_like(y),
        dyy=lambda t, v, y: np.zeros_like(y),
        dvy=lambda t, v, y: np.zeros_like(v),
    )
    espec = EnsembleSpec(
        coeffs=constant_coefficients(sigma=1.0),
        initial=dirac_initial(0.3),
        num_particles=128,
        num_cells=128,
        horizon=1.0,
        y0=0.0,
    )
    cfg = VerifyConfig(RNG.child(22), outer_paths=12, rule="mc", tolerance_c=0.5)
    report = verify_factor_model(plain, espec, cfg)
    assert report.passed
    assert report.aggregate["term_factor_first"] == 0.0
    assert report.aggregate["term_mixed_bracket"] == 0.0


def test_factor_requires_y0():
    espec = common_noise_spec()
    with pytest.raises(InvalidArgumentError):
        verify_factor_model(factor_linear_functional(), espec, VerifyConfig(RNG, outer_paths=2))


@pytest.mark.parametrize("view", ["brownian", "factor"])
def test_brownian_and_factor_views_refuse_the_pairwise_cross(view):
    # both views display the analytic cross term, so a pairwise request
    # would go unheeded and the report would still name "analytic"
    cfg = VerifyConfig(RNG.child(23), outer_paths=2, cross="pairwise", rule="dt")
    espec = common_noise_spec(n=8, particles=8, y0=0.1)
    with pytest.raises(InvalidArgumentError, match="analytic cross"):
        if view == "brownian":
            verify_brownian_corollary(BrownianFieldSpec(initial=mean_squared_functional()), espec, cfg)
        else:
            verify_factor_model(factor_linear_functional(), espec, cfg)


# ---------------------------------------------------------------------------
# sweeps


def sweep(verify, cells, rng):
    """The CLI's sweep: each (n, N, M) cell runs ``verify`` on its own child stream."""

    def run_cell(i, cell):
        aggregate = verify(*cell, rng.child(i)).aggregate
        return aggregate["mean_abs_residual"], aggregate["se_abs_residual"]

    return convergence_study(run_cell, cells)


def test_sweep_single_cell_no_flags():
    spec = common_noise_spec(n=16, particles=8)

    def verify(n, big_n, m, rng):
        cfg = VerifyConfig(rng, outer_paths=m, cross="pairwise", rule="exact")
        return verify_ito(mean_squared_functional(), replace(spec, num_cells=n, num_particles=big_n), cfg)

    study = sweep(verify, [(16, 8, 2)], RNG.child(30))
    assert len(study.rows) == 1
    assert study.rows[0].ratio_vs_coarser is None
    assert not study.passed  # no ratio was checked


def test_sweep_telescoping_residuals_flat_zero():
    spec = common_noise_spec(n=16, particles=8)

    def verify(n, big_n, m, rng):
        cfg = VerifyConfig(rng, outer_paths=m, cross="pairwise", rule="exact")
        return verify_ito(mean_squared_functional(), replace(spec, num_cells=n, num_particles=big_n), cfg)

    study = sweep(verify, [(16, 8, 4), (64, 8, 4), (256, 8, 4)], RNG.child(31))
    for row in study.rows:
        assert row.mean_abs_error < 1e-12


def test_sweep_rate_band_for_second_moment():
    spec = common_noise_spec(particles=1024, sigma=1.0, sigma0=0.0, initial=dirac_initial(0.0))

    def verify(n, big_n, m, rng):
        cfg = VerifyConfig(rng, outer_paths=m, rule="mc", tolerance_c=0.5)
        return verify_ito(second_moment_functional(), replace(spec, num_cells=n, num_particles=big_n), cfg)

    study = sweep(verify, [(256, 1024, 48), (1024, 1024, 48)], RNG.child(32))
    assert study.rows[1].ratio_vs_coarser is not None
    assert 1.3 <= study.rows[1].ratio_vs_coarser <= 3.0
    assert study.passed


def test_sweep_rejects_empty_grid():
    with pytest.raises(InvalidArgumentError):
        convergence_study(lambda *a: None, [])
