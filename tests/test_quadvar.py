import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condflow import (
    InvalidArgumentError,
    RngStream,
    SamplePath,
    constant_weight,
    convergence_study,
    lemma_convergence_study,
    make_uniform_partition,
    sampled_weight,
    simulate_brownian,
    weighted_qv_sum,
)
from condflow.quadvar import WeightProcess


def linear_path(n=2, horizon=1.0):
    p = make_uniform_partition(horizon, n)
    return SamplePath(p, p.times.copy())


def realized_qv(path: SamplePath) -> float:
    """Sum of squared increments along the path's own grid."""
    return float(np.sum(np.diff(path.values) ** 2))


def test_realized_qv_linear_and_constant():
    for n in (4, 16, 100):
        path = linear_path(n)
        assert weighted_qv_sum(constant_weight(path.partition), path) == pytest.approx(1.0 / n)
    p = make_uniform_partition(1.0, 3)
    assert weighted_qv_sum(constant_weight(p), SamplePath(p, np.ones(4))) == 0.0


def test_realized_qv_brownian():
    n = 2**14
    p = make_uniform_partition(1.0, n)
    w = simulate_brownian(p, RngStream(7, 3))
    assert abs(weighted_qv_sum(constant_weight(p), w) - 1.0) < 3.0 * np.sqrt(2.0 / n)


def test_weighted_sum_reduces_to_realized_qv():
    p = make_uniform_partition(1.0, 256)
    w = simulate_brownian(p, RngStream(8, 0))
    assert weighted_qv_sum(constant_weight(p), w) == pytest.approx(realized_qv(w))
    c = 2.75
    assert weighted_qv_sum(constant_weight(p, c), w) == pytest.approx(c * realized_qv(w), rel=1e-12)


def test_weighted_sum_independent_paths_centered():
    n = 2**14
    p = make_uniform_partition(1.0, n)
    x = simulate_brownian(p, RngStream(9, 0))
    xhat = simulate_brownian(p, RngStream(9, 1))
    value = weighted_qv_sum(constant_weight(p), x, xhat)
    assert abs(value) < 3.0 * np.sqrt(1.0 / n)


def test_weighted_sum_partition_mismatch():
    p = make_uniform_partition(1.0, 8)
    q = make_uniform_partition(1.0, 12)
    w = simulate_brownian(p, RngStream(1, 0))
    with pytest.raises(InvalidArgumentError):
        weighted_qv_sum(constant_weight(q), w)


@settings(max_examples=60)
@given(
    st.lists(st.floats(-3, 3), min_size=4, max_size=4),
    st.lists(st.floats(-3, 3), min_size=4, max_size=4),
    st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    st.floats(-3, 3),
)
def test_weighted_sum_bilinearity(dx, dxh, h, alpha):
    p = make_uniform_partition(1.0, 4)
    weights = WeightProcess(p, np.asarray(h))
    x = SamplePath(p, np.concatenate([[0.0], np.cumsum(dx)]))
    x_scaled = SamplePath(p, alpha * x.values)
    xhat = SamplePath(p, np.concatenate([[0.0], np.cumsum(dxh)]))
    base = weighted_qv_sum(weights, x, xhat)
    scaled = weighted_qv_sum(weights, x_scaled, xhat)
    assert scaled == pytest.approx(alpha * base, rel=1e-10, abs=1e-12)
    w_scaled = WeightProcess(p, alpha * np.asarray(h))
    assert weighted_qv_sum(w_scaled, x, xhat) == pytest.approx(alpha * base, rel=1e-10, abs=1e-12)


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_mixed_term_cauchy_schwarz(seed):
    # |sum H dA dM| <= sup|H| sqrt(QV(A)) sqrt(QV(M)) holds pathwise
    gen = np.random.default_rng(seed)
    n = 12
    p = make_uniform_partition(1.0, n)
    a = SamplePath(p, np.concatenate([[0.0], np.cumsum(gen.normal(size=n) * 0.2)]))
    m = SamplePath(p, np.concatenate([[0.0], np.cumsum(gen.normal(size=n) * 0.4)]))
    h = gen.normal(size=n)
    lhs = abs(weighted_qv_sum(WeightProcess(p, h), a, m))
    rhs = np.max(np.abs(h)) * np.sqrt(realized_qv(a)) * np.sqrt(realized_qv(m))
    assert lhs <= rhs * (1.0 + 1e-12)


def test_martingale_compensated_square_is_centered():
    # per-cell (dM)^2 - d<M> averages to zero across independent paths
    n, paths = 16, 4000
    p = make_uniform_partition(1.0, n)
    dt = 1.0 / n
    base = RngStream(17, 0)
    stats = np.empty(paths)
    for i in range(paths):
        w = simulate_brownian(p, base.child(i))
        stats[i] = np.sum(np.diff(w.values) ** 2 - dt)
    se = stats.std(ddof=1) / np.sqrt(paths)
    assert abs(stats.mean()) < 4.0 * se


def test_lemma_study_pure_drift_exact():
    def drift_path(partition, rng):
        t = partition.times
        return SamplePath(partition, t.copy())

    study = lemma_convergence_study(
        drift_path, constant_weight, [8, 32], 3, 1.0, 0.0, RngStream(1, 0)
    )
    assert study.rows[0].mean_abs_error == pytest.approx(1.0 / 8)
    assert study.rows[1].mean_abs_error == pytest.approx(1.0 / 32)
    assert study.rows[0].stderr == 0.0


def test_lemma_study_time_weight_hits_integral():
    study = lemma_convergence_study(
        simulate_brownian,
        lambda p: sampled_weight(p, lambda t: t),
        [1024],
        100,
        1.0,
        0.5,
        RngStream(3, 0),
    )
    row = study.rows[0]
    # mean of the statistic across seeds should sit on the analytic limit
    assert row.mean_abs_error < 4.0 * np.sqrt(2.0 / (3 * 1024))
    assert row.ratio_ok is None


def test_lemma_study_single_row_no_flags():
    study = lemma_convergence_study(simulate_brownian, constant_weight, [64], 10, 1.0, 1.0, RngStream(5, 0))
    assert len(study.rows) == 1
    assert study.rows[0].ratio_vs_coarser is None
    assert not study.passed  # nothing checked


def test_lemma_study_ratio_band():
    study = lemma_convergence_study(
        simulate_brownian, constant_weight, [64, 256, 1024], 200, 1.0, 1.0, RngStream(6, 0)
    )
    assert study.passed
    for row in study.rows[1:]:
        assert 1.3 <= row.ratio_vs_coarser <= 3.0


def test_lemma_study_needs_two_seeds():
    with pytest.raises(InvalidArgumentError):
        lemma_convergence_study(simulate_brownian, constant_weight, [16, 64], 1, 1.0, 1.0, RngStream(5, 0))


def test_convergence_study_pairs_by_rest_and_skips_roundoff():
    errors = {(8, 1): 0.4, (32, 1): 0.2, (8, 2): 1e-13, (32, 2): 1e-14, (128, 1): 0.01}
    study = convergence_study(lambda i, cell: (errors[cell], 0.0), list(errors))
    assert [r.flag for r in study.rows] == ["", "ok", "", "", "out-of-band"]
    assert study.rows[1].ratio_vs_coarser == 2.0
    assert not study.passed
    assert convergence_study(lambda i, cell: (errors[cell], 0.0), list(errors)[:2]).passed
