"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``) and
enforces the runtime budget alongside the numerical criterion.
"""

import time

from condflow import RngStream
from condflow.chainrule import EnsembleSpec, VerifyConfig, verify_ito
from condflow.cli import run
from condflow.particle import dirac_initial
from condflow.paths import constant_coefficients
from condflow.registry import get_experiment, mean_squared_functional
from helpers import REPRO_CONFIGS

SEED = 20_240_817


def _run_experiment(name, **overrides):
    exp = get_experiment(name)
    params = dict(exp.defaults, **overrides)
    return exp.runner(params, RngStream(SEED, 0))


def _report_line(num, passed, elapsed, budget, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert passed, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_1_functional_derivative_battery():
    start = time.perf_counter()
    out = _run_experiment("deriv-battery")
    elapsed = time.perf_counter() - start
    worst_gap = max(out.report["quadrature_gaps"].values())
    _report_line(1, out.passed, elapsed, 1.0, f"max quadrature gap {worst_gap:.2e}")


def test_criterion_2_weighted_qv_convergence():
    start = time.perf_counter()
    out = _run_experiment("lemma-qv-bm")
    elapsed = time.perf_counter() - start
    finals = {k: v["final_error"] for k, v in out.report["studies"].items()}
    detail = ", ".join(f"{k}: {v:.4f}" for k, v in finals.items())
    passed = out.passed and all(v < 0.05 for v in finals.values())
    _report_line(2, passed, elapsed, 30.0, detail)


def test_criterion_3_chain_rule_for_deterministic_functional():
    start = time.perf_counter()
    # (a) exact telescoping at several meshes
    exact_ok = True
    worst = 0.0
    for n in (16, 256, 1024):
        spec = EnsembleSpec(
            coeffs=constant_coefficients(sigma0=1.0),
            initial=dirac_initial(0.2),
            num_particles=64,
            num_cells=n,
            horizon=1.0,
        )
        cfg = VerifyConfig(RngStream(SEED, 1).child(n), outer_paths=8, cross="pairwise", rule="exact")
        rep = verify_ito(mean_squared_functional(), spec, cfg)
        worst = max(worst, rep.aggregate["max_abs_residual"])
        exact_ok = exact_ok and rep.passed
    # (b) + (c) statistical instance at the stated scale
    out = _run_experiment("ito-second-moment", n=1024, N=4096, M=64)
    agg = out.report["aggregate"]
    tol = out.report["tolerance"]["tol"]
    stats_ok = agg["mean_abs_residual"] <= tol and agg["q90_abs_residual"] <= tol
    elapsed = time.perf_counter() - start
    detail = (
        f"telescoping max |res| {worst:.2e}; mean|res| {agg['mean_abs_residual']:.2e}, "
        f"q90 {agg['q90_abs_residual']:.2e}, tol {tol:.2e} (C={out.report['tolerance']['C']})"
    )
    _report_line(3, exact_ok and out.passed and stats_ok, elapsed, 300.0, detail)


def test_criterion_4_random_field_bracket_ablation():
    start = time.perf_counter()
    out = _run_experiment("wentzell-ablation")
    agg = out.report["aggregate"]
    tolerance = out.report["tolerance"]
    dt = out.report["params"]["horizon"] / out.report["params"]["n"]
    tol_full = 3.0 * agg["se_residual"] + tolerance["C"] * dt
    tol_abl = 3.0 * agg["se_ablation_residual"] + tolerance["C"] * dt
    full_ok = abs(agg["mean_residual"]) <= tol_full
    ablation_ok = abs(agg["mean_ablation_residual"] - 1.0) <= tol_abl
    elapsed = time.perf_counter() - start
    detail = (
        f"full {agg['mean_residual']:+.4f} (tol {tol_full:.4f}), "
        f"ablation {agg['mean_ablation_residual']:.4f} vs 1.0 (tol {tol_abl:.4f})"
    )
    _report_line(4, out.passed and full_ok and ablation_ok, elapsed, 300.0, detail)


def test_criterion_5_specialized_verifiers():
    start = time.perf_counter()
    brownian = _run_experiment("brownian-corollary")
    elapsed_b = time.perf_counter() - start
    start_f = time.perf_counter()
    factor = _run_experiment("factor-linear")
    elapsed_f = time.perf_counter() - start_f
    detail = (
        f"common-driver term gap {brownian.report['correction_gap']:.2e}, "
        f"state-factor term gap {factor.report['mixed_bracket_gap']:.2e}"
    )
    passed = brownian.passed and factor.passed and elapsed_b < 300.0 and elapsed_f < 300.0
    _report_line(5, passed, elapsed_b + elapsed_f, 600.0, detail)


def test_criterion_6_dynamic_programming_equation():
    start = time.perf_counter()
    out = _run_experiment("lq-common-noise")
    elapsed = time.perf_counter() - start
    rep = out.report
    detail = (
        f"max |residual| {rep['max_abs_residual']:.2e} (tol {rep['tol_hjb']:.0e}), "
        f"perturbed {rep['perturbed_max_residual']:.3f} >= {rep['perturbation_floor']}, "
        f"MC cross-check {'ok' if rep['mc_cross_check_ok'] else 'off'}"
    )
    _report_line(6, out.passed, elapsed, 120.0, detail)


def test_criterion_7_dynamic_programming_principle():
    start = time.perf_counter()
    optimal = _run_experiment("dpp-lq", control="optimal")
    suboptimal = _run_experiment("dpp-lq", control="constant-max")
    elapsed = time.perf_counter() - start
    rel = abs(suboptimal.report["estimate"] - suboptimal.report["oracle_gap"]) / abs(
        suboptimal.report["oracle_gap"]
    )
    detail = (
        f"optimal gap {optimal.report['estimate']:+.4f} (tol {optimal.report['tol']:.4f}); "
        f"suboptimal gap {suboptimal.report['estimate']:.2f} vs oracle "
        f"{suboptimal.report['oracle_gap']:.2f} (rel {rel:.3f})"
    )
    _report_line(7, optimal.passed and suboptimal.passed and rel <= 0.25, elapsed, 120.0, detail)


def test_criterion_8_measure_flow_modulus():
    start = time.perf_counter()
    out = _run_experiment("modulus-lq")
    elapsed = time.perf_counter() - start
    header, rows = out.tables["modulus.csv"]
    flags = [row[-1] for row in rows]
    detail = f"{len(rows)} (s, t) pairs, all within bound + 3 SE: {all(f == 'ok' for f in flags)}"
    _report_line(8, out.passed and len(rows) == 20, elapsed, 60.0, detail)


def test_criterion_9_reproducibility():
    start = time.perf_counter()
    all_equal = True
    for cfg in REPRO_CONFIGS:
        _, first = run(dict(cfg), write=False)
        _, second = run(dict(cfg), write=False)
        if first != second:
            all_equal = False
            print(f"  repro mismatch in {cfg['experiment']}")
    elapsed = time.perf_counter() - start
    _report_line(9, all_equal, elapsed, 120.0, f"{len(REPRO_CONFIGS)} experiment families, byte-identical payloads")
