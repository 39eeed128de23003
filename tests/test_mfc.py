from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from condflow import RngStream, empirical, gaussian_quantile_initial
from condflow.errors import InvalidArgumentError, NumericOverflowError
from condflow import mfc, particle
from condflow.mfc import (
    AffineFeedback,
    RiccatiFeedback,
    constant_control_gap,
    constant_feedback,
    dpp_check,
    hjb_residual,
    make_lq_problem,
    measure_mean,
    measure_variance,
    nonparametric_gap,
    _linspace_rows,
    _lq_generator_grid,
    _refined_sup,
)

from helpers import constant_gap_closed_form, generator_atom_average, riccati_closed_form, zero_value

PROBLEM, VALUE = make_lq_problem()


def surrogate(t, mean, var, control, problem=PROBLEM, value=VALUE):
    """The generator under the Gaussian surrogate at one node and one affine feedback."""
    return _lq_generator_grid(problem, value, [(t, mean, var)], [[control.c0]], [[control.c1]])[0, 0]


def test_riccati_against_tanh_closed_form():
    consts = PROBLEM.constants
    ts = np.linspace(0.0, 1.0, 11)
    p_exact = riccati_closed_form(consts["q"], -0.5 * consts["c_g"], 1.0, ts)
    r_exact = riccati_closed_form(consts["r"], -0.5 * consts["c_m"], 1.0, ts)
    for t, pe, re_ in zip(ts, p_exact, r_exact):
        qc = VALUE.quad_coeffs(float(t))
        assert qc["P"] == pytest.approx(pe, abs=5e-8)
        assert qc["R"] == pytest.approx(re_, abs=5e-8)
    # every stored node of the solve, where no interpolation error enters
    p_nodes = riccati_closed_form(consts["q"], -0.5 * consts["c_g"], 1.0, VALUE.ts)
    r_nodes = riccati_closed_form(consts["r"], -0.5 * consts["c_m"], 1.0, VALUE.ts)
    assert np.max(np.abs(VALUE.p - p_nodes)) < 1e-8
    assert np.max(np.abs(VALUE.r_coef - r_nodes)) < 1e-8
    # constant coefficient: c(t) = int_t^T (P sigma^2 + R sigma0^2) ds via log-cosh
    q, r = consts["q"], consts["r"]
    sig, sig0 = consts["sigma"], consts["sigma0"]

    def logcosh_int(qq, terminal, t):
        theta_t = np.arctanh(2.0 * terminal / np.sqrt(qq))
        upper = np.log(np.cosh(theta_t))
        lower = np.log(np.cosh(np.sqrt(qq) * (t - 1.0) + theta_t))
        return 0.5 * (upper - lower)

    for t in (0.0, 0.3, 0.8):
        c_exact = sig**2 * logcosh_int(q, -0.25, t) + sig0**2 * logcosh_int(r, -0.25, t)
        assert VALUE.quad_coeffs(t)["c"] == pytest.approx(c_exact, abs=5e-8)


def test_terminal_condition_exact():
    for mu in (-1.0, 0.0, 0.7):
        for var in (0.25, 1.0, 2.0):
            assert VALUE.value(1.0, mu, var) == PROBLEM.terminal_reward(mu, var)


def test_value_derivative_fields_consistent():
    # gradient w.r.t. a single atom matches d_lions / N; time slope matches
    gen = np.random.default_rng(4)
    atoms = gen.normal(size=64)
    m = empirical(atoms)
    t = 0.4
    h = 1e-6
    i = 17
    bumped = atoms.copy()
    bumped[i] += h

    def value(t, m):
        return VALUE.value(t, measure_mean(m), measure_variance(m))

    fd = (value(t, empirical(bumped)) - value(t, m)) / h
    want = VALUE.d_lions(t, m, atoms[i]) / atoms.size
    assert fd == pytest.approx(want, rel=1e-4)
    fd_t = (value(t + 1e-4, m) - value(t - 1e-4, m)) / 2e-4
    qc = VALUE.quad_coeffs(t)
    slope = qc["dP"] * measure_variance(m) + qc["dR"] * measure_mean(m) ** 2 + qc["dc"]
    assert fd_t == pytest.approx(slope, rel=1e-3, abs=1e-6)


def test_generator_zero_everything():
    problem, _ = make_lq_problem(q=0.0, r=0.0, c_g=0.0, c_m=0.0, sigma=0.0, sigma0=0.0, a_max=2.0)
    v0 = zero_value()
    for a in (-1.0, 0.0, 0.8):
        val = surrogate(0.3, 0.5, 1.0, constant_feedback(a, 2.0), problem, v0)
        assert val == pytest.approx(-0.5 * a**2)
    # maximized at a = 0 with value 0
    assert surrogate(0.3, 0.5, 1.0, constant_feedback(0.0, 2.0), problem, v0) == 0.0


def test_degenerate_problem_zero_residual():
    problem, _ = make_lq_problem(q=0.0, r=0.0, c_g=0.0, c_m=0.0, sigma=0.3, sigma0=0.2, a_max=2.0)
    report = hjb_residual(problem, zero_value(), tol=1e-8)
    assert report.max_abs_residual < 1e-10
    assert report.passed


def test_generator_hand_expansion_constant_control():
    # three routes: censored-moment surrogate, atom averages, and a hand
    # expansion valid for constant controls
    t, mu, var, a = 0.35, 0.4, 0.8, 0.6
    qc = VALUE.quad_coeffs(t)
    consts = PROBLEM.constants
    hand = (
        qc["dP"] * var + qc["dR"] * mu**2 + qc["dc"]
        - 0.5 * a**2 - 0.5 * consts["q"] * var - 0.5 * consts["r"] * mu**2
        + a * 2.0 * qc["R"] * mu
        + qc["P"] * (consts["sigma"] ** 2 + consts["sigma0"] ** 2)
        + consts["sigma0"] ** 2 * (qc["R"] - qc["P"])
    )
    control = constant_feedback(a, PROBLEM.a_max)
    surrogate_val = surrogate(t, mu, var, control)
    assert surrogate_val == pytest.approx(hand, rel=1e-12)
    atoms = gaussian_quantile_initial(mu, var)(None, 200_000)
    cloud = empirical(atoms)
    cloud_val = generator_atom_average(PROBLEM, VALUE, t, cloud, control)
    # quantile clouds undershoot the variance slightly; compare at realized moments
    hand_cloud = (
        qc["dP"] * measure_variance(cloud) + qc["dR"] * measure_mean(cloud) ** 2 + qc["dc"]
        - 0.5 * a**2
        - 0.5 * consts["q"] * measure_variance(cloud)
        - 0.5 * consts["r"] * measure_mean(cloud) ** 2
        + a * 2.0 * qc["R"] * measure_mean(cloud)
        + qc["P"] * (consts["sigma"] ** 2 + consts["sigma0"] ** 2)
        + consts["sigma0"] ** 2 * (qc["R"] - qc["P"])
    )
    assert cloud_val == pytest.approx(hand_cloud, rel=1e-10)
    assert cloud_val == pytest.approx(surrogate_val, rel=1e-3)


def test_generator_terminal_time_against_quantile_cloud():
    # affine feedback with a slope, checked against a 10^6-atom quadrature
    control = AffineFeedback(0.3, -0.8, PROBLEM.a_max)
    t = 1.0
    atoms = gaussian_quantile_initial(0.2, 1.1)(None, 1_000_000)
    cloud_val = generator_atom_average(PROBLEM, VALUE, t, empirical(atoms), control)
    assert cloud_val == pytest.approx(surrogate(t, 0.2, 1.1, control), rel=5e-4)


def test_representation_independence_random_clouds():
    control = AffineFeedback(0.2, -0.5, PROBLEM.a_max)
    t, mu, var = 0.5, -0.3, 0.9
    gen = np.random.default_rng(8)
    vals = []
    for _ in range(8):
        atoms = mu + np.sqrt(var) * gen.normal(size=100_000)
        vals.append(generator_atom_average(PROBLEM, VALUE, t, empirical(atoms), control))
    vals = np.array(vals)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - surrogate(t, mu, var, control)) < 3.0 * se


def test_sup_monotone_under_grid_enlargement():
    t, mu, var = 0.25, 0.5, 1.0
    coarse0 = np.linspace(-2.0, 2.0, 9)
    coarse1 = np.linspace(-2.0, 2.0, 9)
    fine0 = np.linspace(-2.0, 2.0, 17)  # superset of coarse
    fine1 = np.linspace(-2.0, 2.0, 17)

    def grid_max(c0s, c1s):
        g0, g1 = np.meshgrid(c0s, c1s, indexing="ij")
        return float(np.max(_lq_generator_grid(PROBLEM, VALUE, [(t, mu, var)], g0.ravel()[None], g1.ravel()[None])))

    assert grid_max(fine0, fine1) >= grid_max(coarse0, coarse1)
    assert set(coarse0).issubset(set(fine0))


def test_hjb_residual_full_lattice():
    report = hjb_residual(PROBLEM, VALUE, tol=1e-4)
    assert len(report.nodes) == 9 * 5 * 5
    assert report.terminal_gap == 0.0
    assert report.max_abs_residual <= 1e-4
    assert report.passed


def test_hjb_perturbed_candidate_fails_visibly():
    report = hjb_residual(PROBLEM, replace(VALUE, p_offset=0.1), tol=1e-4)
    assert report.max_abs_residual >= 0.05
    assert not report.passed


def test_hjb_residual_refuses_bad_tol():
    # a negative or NaN allowance is a gate that cannot pass, and an
    # infinite one a gate that checks no residual
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError, match="tol"):
            hjb_residual(PROBLEM, VALUE, tol=bad)


def test_nonparametric_family_gap_small():
    atoms = gaussian_quantile_initial(0.3, 1.0)(None, 512)
    gaps = nonparametric_gap(PROBLEM, VALUE, 0.2, empirical(atoms))
    assert gaps["family_gap"] >= -1e-10
    assert gaps["family_gap"] <= 1e-4


def test_nonparametric_gap_rejects_times_outside_the_horizon():
    # outside [0, horizon] the interpolated Lions derivative is frozen
    atoms = gaussian_quantile_initial(0.3, 1.0)(None, 64)
    for t in (3.0, -2.0, PROBLEM.horizon + 0.25, np.nan):
        with pytest.raises(InvalidArgumentError):
            nonparametric_gap(PROBLEM, VALUE, t, empirical(atoms))


def test_constant_control_gap_matches_hand_integration():
    consts = PROBLEM.constants
    for a in (0.0, 1.0, -2.0):
        for t0 in (0.0, 0.4):
            tau = 1.0 - t0
            p_w, r_w, s_w, c_w = constant_gap_closed_form(
                consts["q"], consts["r"], consts["c_g"], consts["c_m"],
                consts["sigma"], consts["sigma0"], a, tau,
            )
            mu, var = 0.3, 0.7
            qc0 = VALUE.quad_coeffs(t0)
            want = (p_w - qc0["P"]) * var + (r_w - qc0["R"]) * mu**2 + s_w * mu + (c_w - qc0["c"])
            got = constant_control_gap(PROBLEM, VALUE, a, t0, 1.0, mu, var)
            assert got == pytest.approx(want, abs=1e-7)


def test_constant_gap_is_nonpositive():
    # any constant control underperforms the value function
    for a in np.linspace(-PROBLEM.a_max, PROBLEM.a_max, 7):
        gap = constant_control_gap(PROBLEM, VALUE, float(a), 0.0, 1.0, 0.5, 1.0)
        assert gap <= 1e-10


def test_dpp_optimal_and_suboptimal():
    control = RiccatiFeedback(VALUE, PROBLEM.a_max)
    res = dpp_check(PROBLEM, VALUE, control, 0.0, 1.0, 0.5, 1.0, 256, 128, 24, RngStream(1, 0))
    assert res.verdict == "optimal-consistent"

    const = constant_feedback(PROBLEM.a_max, PROBLEM.a_max)
    res2 = dpp_check(PROBLEM, VALUE, const, 0.0, 1.0, 0.5, 1.0, 256, 128, 24, RngStream(1, 0))
    assert res2.verdict == "suboptimal"
    assert res2.oracle_gap is not None
    assert abs(res2.estimate - res2.oracle_gap) <= 0.25 * abs(res2.oracle_gap)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dpp_rejects_a_wrong_value_candidate(seed):
    # the optimal feedback against V - 0.5 Var overshoots the gap, and
    # against V + 0.5 Var undershoots it
    control = RiccatiFeedback(VALUE, PROBLEM.a_max)
    for p_offset, verdict in ((-0.5, "dpp-violation"), (0.5, "suboptimal")):
        candidate = replace(VALUE, p_offset=p_offset)
        res = dpp_check(PROBLEM, candidate, control, 0.0, 1.0, 0.5, 1.0, 256, 128, 24, RngStream(seed, 0))
        assert res.verdict == verdict


def test_dpp_ordering_under_common_random_numbers():
    control = RiccatiFeedback(VALUE, PROBLEM.a_max)
    controls = [control] + [
        constant_feedback(a, PROBLEM.a_max) for a in (0.0, 0.5 * PROBLEM.a_max, -PROBLEM.a_max)
    ]
    estimates = []
    for c in controls:
        res = dpp_check(PROBLEM, VALUE, c, 0.0, 1.0, 0.5, 1.0, 128, 64, 12, RngStream(55, 0))
        estimates.append(res.estimate)
    assert all(estimates[0] >= e for e in estimates[1:])


def test_dpp_rejects_bad_horizon():
    # an empty interval, and times outside [0, horizon], where V is not solved
    control = RiccatiFeedback(VALUE, PROBLEM.a_max)
    for t0, theta in ((0.5, 0.5), (0.0, 3.0), (-2.0, 1.0), (0.5, PROBLEM.horizon + 0.25)):
        with pytest.raises(InvalidArgumentError):
            dpp_check(PROBLEM, VALUE, control, t0, theta, 0.0, 1.0, 16, 8, 2, RngStream(0, 0))


def test_dpp_rejects_a_negative_tolerance():
    # a negative (or NaN) allowance is a gate that cannot pass, and an
    # infinite one reads every gap as optimal-consistent; with 0 <= C < inf
    # a gap outside the tolerance is a violation or suboptimal, never neither
    control = RiccatiFeedback(VALUE, PROBLEM.a_max)
    for c in (-0.5, -1e-12, float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="tolerance_c"):
            dpp_check(PROBLEM, VALUE, control, 0.0, 1.0, 0.5, 1.0, 16, 8, 2, RngStream(0, 0), tolerance_c=c)
    res = dpp_check(PROBLEM, VALUE, control, 0.0, 1.0, 0.5, 1.0, 16, 8, 2, RngStream(0, 0), tolerance_c=0.0)
    assert res.verdict in ("optimal-consistent", "suboptimal", "dpp-violation")


def test_dpp_non_finite_gap_overflows():
    # a spread of 1.5e308 squares to inf in the array reward, and the gap
    # is NaN: that is an overflow, not a verdict
    control = RiccatiFeedback(VALUE, PROBLEM.a_max)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericOverflowError):
        dpp_check(PROBLEM, VALUE, control, 0.0, 1.0, 0.0, 1.5e308, 16, 8, 2, RngStream(0, 0))


def test_constant_feedback_respects_control_set():
    with pytest.raises(InvalidArgumentError):
        constant_feedback(PROBLEM.a_max + 1.0, PROBLEM.a_max)
    control = AffineFeedback(0.0, 100.0, PROBLEM.a_max)
    vals = control(0.0, np.linspace(-5, 5, 11), empirical([-1.0, 1.0]))
    assert np.max(np.abs(vals)) <= PROBLEM.a_max


def test_blocked_refined_sup_equals_each_node_alone():
    nodes = [(0.0, 0.5, 1.0), (0.25, -1.0, 0.25), (0.5, 0.0, 2.0), (0.875, 1.0, 0.6875), (1.0, -0.5, 1.5)]
    block = _refined_sup(partial(_lq_generator_grid, PROBLEM, VALUE, nodes), len(nodes), PROBLEM.a_max, PROBLEM.a_max)
    for k, node in enumerate(nodes):
        alone = _refined_sup(partial(_lq_generator_grid, PROBLEM, VALUE, [node]), 1, PROBLEM.a_max, PROBLEM.a_max)
        assert [float(a[0]) for a in alone] == [float(b[k]) for b in block]


def test_linspace_rows_match_linspace_row_by_row():
    # the second row's step underflows to zero, which np.linspace handles
    # with its own formula; the other rows must not follow it
    lo = np.array([-1.5, 0.0, 0.1, -3.0])
    hi = np.array([2.0, 1e-320, 0.7, -3.0])
    rows = _linspace_rows(lo, hi, 21)
    for k in range(lo.size):
        assert rows[k].tobytes() == np.linspace(lo[k], hi[k], 21).tobytes()


def test_replaced_candidate_does_not_share_the_memo():
    value = make_lq_problem()[1]
    eps = 0.1
    for t in (0.0, 0.3, 1.0):
        value.quad_coeffs(t)  # warm the base's memo
    perturbed = replace(value, p_offset=eps)
    for t in (0.0, 0.3, 1.0):
        assert perturbed.quad_coeffs(t)["P"] == value.quad_coeffs(t)["P"] + eps
        assert perturbed.quad_coeffs(t)["dP"] == value.quad_coeffs(t)["dP"]


def test_block_sizes_do_not_change_results(monkeypatch):
    def run():
        hjb = hjb_residual(PROBLEM, VALUE)
        control = RiccatiFeedback(VALUE, PROBLEM.a_max)
        dpp = dpp_check(PROBLEM, VALUE, control, 0.25, 1.0, 0.5, 1.0, 64, 16, 3, RngStream(4, 0))
        return hjb, dpp

    reference = run()
    # 7 nodes do not divide the 225 of the lattice; the DPP window budgets
    # are no multiple of a batched row's 3 repetitions of 64 particles and
    # give windows of 1 and 5 cells (5 does not divide the 16 cells); a
    # batch of 3 never runs as one window, so 2^20 also gives 5-cell windows
    for nodes, elements in ((1, 64), (7, 1024), (225, 1 << 20)):
        monkeypatch.setattr(mfc, "_HJB_NODE_BLOCK", nodes)
        monkeypatch.setattr(particle, "_WINDOW_ELEMENTS", elements)
        assert run() == reference
