"""Built-in functionals and named experiments.

Functionals are cylindrical maps of the empirical law used across the
verification battery; experiments bundle a verifier, its designed
coefficient instance, default sizes, and the pass rule, so the command
line (and the acceptance suite) can run them by name.
"""

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import _gate, chainrule, mfc, quadvar
from .chainrule import (
    BrownianFieldSpec,
    EnsembleSpec,
    FactorFunctional,
    FieldComponent,
    RandomFieldSpec,
    VerifyConfig,
)
from .errors import InvalidArgumentError
from .measures import (
    CylindricalFunctional,
    MeasurePair,
    OuterFunction,
    TestFunction,
    empirical,
    fd_check_dm,
    fd_check_dm2,
    fd_orders_ok,
    integral_identity_gap,
)
from .particle import (
    Sweep,
    dirac_initial,
    gaussian_quantile_initial,
    measure_flow_modulus,
    simulate_ensemble,
)
from .paths import RngStream, constant_coefficients, make_uniform_partition, simulate_brownian

__all__ = [
    "identity_test",
    "square_test",
    "get_experiment",
    "list_registry",
    "RunOutput",
]


# ---------------------------------------------------------------------------
# test functions and outer maps


def identity_test() -> TestFunction:
    return TestFunction(
        "x",
        value=lambda x: np.asarray(x, dtype=float),
        grad=lambda x: 1.0,
        hess=lambda x: 0.0,
    )


def square_test() -> TestFunction:
    return TestFunction(
        "x^2",
        value=lambda x: np.asarray(x, dtype=float) ** 2,
        grad=lambda x: 2.0 * np.asarray(x, dtype=float),
        hess=lambda x: 2.0,
    )


def _outer_identity() -> OuterFunction:
    return OuterFunction(
        "v1",
        value=lambda v: v[..., 0],
        grad=lambda v: np.ones_like(v),
        hess=lambda v: np.zeros(v.shape + (1,)),
    )


def _outer_square() -> OuterFunction:
    def hess(v):
        out = np.zeros(v.shape + (1,))
        out[..., 0, 0] = 2.0
        return out

    return OuterFunction("v1^2", value=lambda v: v[..., 0] ** 2, grad=lambda v: 2.0 * v, hess=hess)


def mean_functional() -> CylindricalFunctional:
    return CylindricalFunctional("mean", _outer_identity(), (identity_test(),))


def mean_squared_functional() -> CylindricalFunctional:
    return CylindricalFunctional("mean-squared", _outer_square(), (identity_test(),))


def second_moment_functional() -> CylindricalFunctional:
    return CylindricalFunctional("second-moment", _outer_identity(), (square_test(),))


def second_moment_squared_functional() -> CylindricalFunctional:
    return CylindricalFunctional("second-moment-squared", _outer_square(), (square_test(),))


def variance_functional() -> CylindricalFunctional:
    def value(v):
        return v[..., 1] - v[..., 0] ** 2

    def grad(v):
        out = np.empty_like(v)
        out[..., 0] = -2.0 * v[..., 0]
        out[..., 1] = 1.0
        return out

    def hess(v):
        out = np.zeros(v.shape + (2,))
        out[..., 0, 0] = -2.0
        return out

    outer = OuterFunction("v2-v1^2", value, grad, hess)
    return CylindricalFunctional("variance", outer, (identity_test(), square_test()))


def log_second_moment_functional() -> CylindricalFunctional:
    def value(v):
        return np.log1p(v[..., 0])

    def grad(v):
        return 1.0 / (1.0 + v)

    def hess(v):
        out = np.zeros(v.shape + (1,))
        out[..., 0, 0] = -1.0 / (1.0 + v[..., 0]) ** 2
        return out

    outer = OuterFunction("log(1+v1)", value, grad, hess, polynomial=False)
    return CylindricalFunctional("log-second-moment", outer, (square_test(),))


def factor_linear_functional() -> FactorFunctional:
    """u(t, m, y) = y * mean(m)."""
    return FactorFunctional(
        name="factor-linear",
        tests=(identity_test(),),
        value=lambda t, v, y: y * v[..., 0],
        dt=lambda t, v, y: np.zeros_like(y),
        dv=lambda t, v, y: y[..., None] * np.ones_like(v),
        dvv=lambda t, v, y: np.zeros(v.shape + (1,)),
        dy=lambda t, v, y: v[..., 0],
        dyy=lambda t, v, y: np.zeros_like(y),
        dvy=lambda t, v, y: np.ones_like(v),
    )


_FUNCTIONALS: dict[str, Callable[[], CylindricalFunctional]] = {
    "mean": mean_functional,
    "mean-squared": mean_squared_functional,
    "second-moment": second_moment_functional,
    "second-moment-squared": second_moment_squared_functional,
    "variance": variance_functional,
    "log-second-moment": log_second_moment_functional,
}


# ---------------------------------------------------------------------------
# experiment definitions


@dataclass
class RunOutput:
    passed: bool
    report: dict
    tables: dict[str, tuple[list[str], list[list]]] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentDef:
    kind: str  # CLI subcommand family
    defaults: dict
    runner: Callable  # (params: dict, rng: RngStream) -> RunOutput


def _report_payload(report: chainrule.VerificationReport) -> dict:
    return {
        "experiment": report.experiment,
        "params": report.params,
        "tolerance": report.tolerance,
        "aggregate": report.aggregate,
        "passed": report.passed,
    }


def _run_verification(report: chainrule.VerificationReport) -> RunOutput:
    header, rows = report.csv_rows()
    return RunOutput(report.passed, _report_payload(report), {"terms.csv": (header, rows)})


def _ito_telescoping(params: dict, rng: RngStream) -> RunOutput:
    spec = EnsembleSpec(
        coeffs=constant_coefficients(sigma0=params["sigma0"]),
        initial=gaussian_quantile_initial(0.2, 0.5),
        num_particles=params["N"],
        num_cells=params["n"],
        horizon=params["horizon"],
    )
    cfg = VerifyConfig(
        rng=rng,
        outer_paths=params["M"],
        cross="pairwise",
        rule="exact",
        exact_floor=params["tol_exact"],
    )
    report = chainrule.verify_ito(mean_squared_functional(), spec, cfg, name="ito-telescoping")
    return _run_verification(report)


def _ito_second_moment(params: dict, rng: RngStream) -> RunOutput:
    spec = EnsembleSpec(
        coeffs=constant_coefficients(sigma=params["sigma"]),
        initial=dirac_initial(params["x0"]),
        num_particles=params["N"],
        num_cells=params["n"],
        horizon=params["horizon"],
    )
    cfg = VerifyConfig(rng=rng, outer_paths=params["M"], rule="mc", tolerance_c=params["C"])
    report = chainrule.verify_ito(second_moment_functional(), spec, cfg, name="ito-second-moment")
    return _run_verification(report)


def _wentzell(tag: str):
    def run(params: dict, rng: RngStream) -> RunOutput:
        sigma0 = params["sigma0"]
        sigma = params["sigma"]
        spec = RandomFieldSpec(
            initial=None,
            components=(FieldComponent(mean_functional(), "martingale", tag),),
        )
        espec = EnsembleSpec(
            coeffs=constant_coefficients(sigma=sigma, sigma0=sigma0),
            initial=gaussian_quantile_initial(0.3, 0.5),
            num_particles=params["N"],
            num_cells=params["n"],
            horizon=params["horizon"],
        )
        expected = sigma0 * params["horizon"] if tag == "common" else 0.0
        cfg = VerifyConfig(
            rng=rng,
            outer_paths=params["M"],
            rule="dt",
            tolerance_c=params["C"],
            expected_correction=expected,
        )
        report = chainrule.verify_ito_wentzell(spec, espec, cfg, name=f"wentzell-{tag}")
        return _run_verification(report)

    return run


def _designed_term_gate(params: dict, report, term: str, target: float, key: str) -> RunOutput:
    """The verification's output, which also passes only if ``term`` is within
    ``condflow._gate``'s 3 se_residual + C T/n of the ``target`` its designed
    instance fixes; the target and gap are reported as ``<key>_target`` and ``<key>_gap``."""
    out = _run_verification(report)
    gap = abs(report.aggregate[term] - target)
    tol = _gate.tolerance(report.aggregate["se_residual"], params["C"] * params["horizon"] / params["n"])
    out.report[f"{key}_target"] = target
    out.report[f"{key}_gap"] = gap
    out.passed = out.passed and gap <= tol
    out.report["passed"] = out.passed
    return out


def _brownian(params: dict, rng: RngStream) -> RunOutput:
    spec = BrownianFieldSpec(psi0=mean_functional())
    espec = EnsembleSpec(
        coeffs=constant_coefficients(sigma0=params["sigma0"]),
        initial=gaussian_quantile_initial(0.3, 0.5),
        num_particles=params["N"],
        num_cells=params["n"],
        horizon=params["horizon"],
    )
    cfg = VerifyConfig(rng=rng, outer_paths=params["M"], rule="dt", tolerance_c=params["C"])
    report = chainrule.verify_brownian_corollary(spec, espec, cfg, name="brownian-corollary")
    # the designed instance makes the correction term equal sigma0 * T exactly
    target = params["sigma0"] * params["horizon"]
    return _designed_term_gate(params, report, "term_bracket_correction", target, "correction")


def _factor(params: dict, rng: RngStream) -> RunOutput:
    espec = EnsembleSpec(
        coeffs=constant_coefficients(sigma0=params["sigma0"], gamma0=params["gamma0"]),
        initial=gaussian_quantile_initial(0.4, 0.3),
        num_particles=params["N"],
        num_cells=params["n"],
        horizon=params["horizon"],
        y0=params["y0"],
    )
    cfg = VerifyConfig(rng=rng, outer_paths=params["M"], rule="dt", tolerance_c=params["C"])
    report = chainrule.verify_factor_model(
        factor_linear_functional(), espec, cfg, name="factor-linear"
    )
    target = params["sigma0"] * params["gamma0"] * params["horizon"]
    return _designed_term_gate(params, report, "term_mixed_bracket", target, "mixed_bracket")


def _lemma_qv(params: dict, rng: RngStream) -> RunOutput:
    horizon = params["horizon"]
    counts = params["cell_counts"]
    seeds = params["num_seeds"]
    studies = {
        "lemma_h_const.csv": quadvar.lemma_convergence_study(
            simulate_brownian, lambda p: quadvar.constant_weight(p, 1.0), counts, seeds, horizon, horizon, rng.child(0)
        ),
        "lemma_h_time.csv": quadvar.lemma_convergence_study(
            simulate_brownian,
            lambda p: quadvar.sampled_weight(p, lambda t: t),
            counts,
            seeds,
            horizon,
            0.5 * horizon**2,
            rng.child(1),
        ),
    }
    tables = {}
    passed = True
    summary = {}
    for fname, study in studies.items():
        header = ["n", "mean_abs_error", "stderr", "ratio_flag"]
        rows = [[*r.cell, r.mean_abs_error, r.stderr, r.flag] for r in study.rows]
        tables[fname] = (header, rows)
        passed = passed and study.passed
        passed = passed and study.rows[-1].mean_abs_error <= params["l1_threshold"]
        summary[fname] = {
            "final_error": study.rows[-1].mean_abs_error,
            "ratios_ok": study.passed,
        }
    return RunOutput(passed, {"experiment": "lemma-qv-bm", "studies": summary, "passed": passed}, tables)


def _deriv_battery(params: dict, rng: RngStream) -> RunOutput:
    gen = rng.generator()
    eps_list = params["eps_list"]
    pair = MeasurePair(
        empirical(gen.normal(size=7)), empirical(gen.normal(size=5) + 0.5)
    )
    header = ["functional", "check", "eps", "error", "observed_order"]
    rows = []
    passed = True
    quad_gaps = {}
    for name in sorted(_FUNCTIONALS):
        u = _FUNCTIONALS[name]()
        for check, fn in (("dm", fd_check_dm), ("dm2", fd_check_dm2)):
            table = fn(u, pair, eps_list)
            passed = passed and fd_orders_ok(table)
            for row in table:
                rows.append(
                    [name, check, row.eps, row.error, row.observed_order if row.observed_order is not None else ""]
                )
        gap = integral_identity_gap(u, pair)
        quad_gaps[name] = gap
        if u.outer.polynomial:
            passed = passed and gap <= params["quadrature_tol"]
    report = {
        "experiment": "deriv-battery",
        "quadrature_gaps": quad_gaps,
        "passed": passed,
    }
    return RunOutput(passed, report, {"battery.csv": (header, rows)})


def _lq_problem(params: dict):
    """The LQ instance of an experiment's parameters and its solved value."""
    keys = ("q", "r", "c_g", "c_m", "sigma", "sigma0", "horizon")
    return mfc.make_lq_problem(**{key: params[key] for key in keys})


def _hjb_lq(params: dict, rng: RngStream) -> RunOutput:
    problem, value = _lq_problem(params)
    hjb = mfc.hjb_residual(problem, value, tol=params["tol_hjb"])
    perturbed = mfc.hjb_residual(
        problem, replace(value, p_offset=params["perturbation"]), tol=params["tol_hjb"]
    )
    # the wrong candidate must fail the HJB gate, not only clear the floor:
    # a zero perturbation and a zero floor would otherwise pass by default
    discriminative = perturbed.max_abs_residual >= params["perturbation_floor"] and not perturbed.passed

    # Monte Carlo cross-check of the value at spot nodes under the optimal feedback
    control = mfc.RiccatiFeedback(value, problem.a_max)
    # spot times scale with the horizon, as the HJB lattice does
    horizon = problem.horizon
    spot_nodes = [(0.0 * horizon, 0.5, 1.0), (0.25 * horizon, -0.5, 0.5), (0.5 * horizon, 0.0, 1.5)]
    mc_rows = []
    mc_ok = True
    for i, (t0, mu, var) in enumerate(spot_nodes):
        res = mfc.dpp_check(
            problem,
            value,
            control,
            t0,
            problem.horizon,
            mu,
            var,
            params["mc_particles"],
            params["mc_cells"],
            params["mc_paths"],
            rng.child(10 + i),
            tolerance_c=params["C"],
        )
        ok = res.verdict == "optimal-consistent"
        mc_ok = mc_ok and ok
        mc_rows.append([t0, mu, var, res.estimate, res.stderr, res.tol, "ok" if ok else "off"])

    gap_rows = []
    for i, (t0, mu, var) in enumerate(spot_nodes):
        atoms = gaussian_quantile_initial(mu, var)(None, 256)
        gaps = mfc.nonparametric_gap(problem, value, t0, empirical(atoms))
        gap_rows.append([t0, mu, var, gaps["pointwise_sup"], gaps["affine_sup"], gaps["family_gap"]])

    passed = hjb.passed and discriminative and mc_ok
    report = {
        "experiment": "lq-common-noise",
        "a_max": problem.a_max,
        "ode_error": value.ode_error,
        "max_abs_residual": hjb.max_abs_residual,
        "terminal_gap": hjb.terminal_gap,
        "tol_hjb": params["tol_hjb"],
        "perturbed_max_residual": perturbed.max_abs_residual,
        "perturbation_floor": params["perturbation_floor"],
        "discriminative": discriminative,
        "mc_cross_check_ok": mc_ok,
        "passed": passed,
    }
    tables = {
        "residuals.csv": (
            ["t", "mean", "var", "residual", "best_c0", "best_c1"],
            [[n.t, n.mean, n.var, n.residual, n.best_c0, n.best_c1] for n in hjb.nodes],
        ),
        "mc_cross_check.csv": (
            ["t", "mean", "var", "estimate", "stderr", "tol", "flag"],
            mc_rows,
        ),
        "family_gap.csv": (
            ["t", "mean", "var", "pointwise_sup", "affine_sup", "family_gap"],
            gap_rows,
        ),
    }
    return RunOutput(passed, report, tables)


def _dpp_lq(params: dict, rng: RngStream) -> RunOutput:
    problem, value = _lq_problem(params)
    which = params["control"]
    if which == "optimal":
        control = mfc.RiccatiFeedback(value, problem.a_max)
    elif which == "constant-max":
        control = mfc.constant_feedback(problem.a_max, problem.a_max)
    else:
        raise InvalidArgumentError(f"unknown control {which!r}")
    res = mfc.dpp_check(
        problem,
        value,
        control,
        params["t0"],
        params["theta"],
        params["mean0"],
        params["var0"],
        params["N"],
        params["n"],
        params["M"],
        rng,
        tolerance_c=params["C"],
    )
    if which == "optimal":
        passed = res.verdict == "optimal-consistent"
    else:
        passed = res.verdict == "suboptimal"
        if res.oracle_gap is not None:
            passed = passed and abs(res.estimate - res.oracle_gap) <= 0.25 * abs(res.oracle_gap)
    report = {
        "experiment": "dpp-lq",
        "control": which,
        "estimate": res.estimate,
        "stderr": res.stderr,
        "tol": res.tol,
        "verdict": res.verdict,
        "oracle_gap": res.oracle_gap,
        "passed": passed,
    }
    return RunOutput(passed, report)


def _modulus(params: dict, rng: RngStream) -> RunOutput:
    """Flow modulus at ``num_pairs`` random grid-time pairs s < t of one
    sweep of ``repeats`` repetitions.

    The pairs are drawn first, from ``rng.child(999)``, which the sweep
    does not read.  The sweep then runs window by window and copies only
    the (M, N) state rows the pairs read, so it holds one window and
    those rows at a time.
    """
    n = params["n"]
    if n < 2:  # the pair draw below takes s from the first n - 1 grid times
        raise InvalidArgumentError("modulus-lq needs n >= 2")
    gen = rng.child(999).generator()
    pairs = []
    for _ in range(params["num_pairs"]):
        i = int(gen.integers(0, n - 1))
        pairs.append((i, int(gen.integers(i + 1, n + 1))))
    coeffs = constant_coefficients(b=params["b"], sigma=params["sigma"], sigma0=params["sigma0"])
    part = make_uniform_partition(params["horizon"], n)
    streams = [rng.child(r) for r in range(params["repeats"])]
    read = {k for pair in pairs for k in pair}
    states = {}
    sweep = Sweep(coeffs, dirac_initial(0.0), params["N"], part, streams)
    while not sweep.done:
        ens = simulate_ensemble(sweep)
        for k in read & set(range(ens.first_cell, ens.cells.stop + 1)):
            states[k] = ens.states[k - ens.first_cell].copy()
    times = part.times
    rows = []
    passed = True
    for i, j in pairs:
        res = measure_flow_modulus(coeffs, states[i], states[j], float(times[i]), float(times[j]))
        rows.append([times[i], times[j], res.estimate, res.stderr, res.bound, "ok" if res.passed else "off"])
        passed = passed and res.passed
    header = ["s", "t", "estimate", "stderr", "bound", "flag"]
    return RunOutput(passed, {"experiment": "modulus-lq", "passed": passed}, {"modulus.csv": (header, rows)})


_EXPERIMENTS: dict[str, ExperimentDef] = {
    "ito-telescoping": ExperimentDef(
        "verify-ito",
        {"n": 64, "N": 128, "M": 8, "horizon": 1.0, "sigma0": 1.0, "tol_exact": 1e-10},
        _ito_telescoping,
    ),
    "ito-second-moment": ExperimentDef(
        "verify-ito",
        {"n": 1024, "N": 4096, "M": 64, "horizon": 1.0, "sigma": 1.0, "x0": 0.5, "C": 0.5},
        _ito_second_moment,
    ),
    "wentzell-ablation": ExperimentDef(
        "verify-wentzell",
        {"n": 512, "N": 64, "M": 64, "horizon": 1.0, "sigma": 0.0, "sigma0": 1.0, "C": 2.0},
        _wentzell("common"),
    ),
    "wentzell-independent": ExperimentDef(
        "verify-wentzell",
        {"n": 256, "N": 64, "M": 32, "horizon": 1.0, "sigma": 1.0, "sigma0": 0.5, "C": 2.0},
        _wentzell("independent"),
    ),
    "brownian-corollary": ExperimentDef(
        "verify-brownian",
        {"n": 512, "N": 64, "M": 64, "horizon": 1.0, "sigma0": 1.0, "C": 2.0},
        _brownian,
    ),
    "factor-linear": ExperimentDef(
        "verify-factor",
        {
            "n": 512,
            "N": 64,
            "M": 64,
            "horizon": 1.0,
            "sigma0": 1.0,
            "gamma0": 1.0,
            "y0": 0.2,
            "C": 2.0,
        },
        _factor,
    ),
    "lemma-qv-bm": ExperimentDef(
        "lemma-qv",
        {
            "horizon": 1.0,
            "cell_counts": [256, 1024, 4096],
            "num_seeds": 200,
            "l1_threshold": 0.05,
        },
        _lemma_qv,
    ),
    "deriv-battery": ExperimentDef(
        "deriv-check",
        {"eps_list": [1e-1, 1e-2, 1e-3, 1e-4], "quadrature_tol": 1e-10},
        _deriv_battery,
    ),
    "lq-common-noise": ExperimentDef(
        "hjb-lq",
        {
            "q": 1.0,
            "r": 0.5,
            "c_g": 0.5,
            "c_m": 0.5,
            "sigma": 0.4,
            "sigma0": 0.3,
            "horizon": 1.0,
            # the residual takes the closed-form sup and the tables' own time
            # derivative, so the solved tables give 1.05e-8 here and tables
            # that do not solve the Riccati equations 1e-2 or more
            "tol_hjb": 1e-6,
            "perturbation": 0.1,
            "perturbation_floor": 0.05,
            "mc_particles": 1024,
            "mc_cells": 128,
            "mc_paths": 32,
            "C": 2.0,
        },
        _hjb_lq,
    ),
    "dpp-lq": ExperimentDef(
        "dpp-check",
        {
            "q": 1.0,
            "r": 0.5,
            "c_g": 0.5,
            "c_m": 0.5,
            "sigma": 0.4,
            "sigma0": 0.3,
            "horizon": 1.0,
            "control": "optimal",
            "t0": 0.0,
            "theta": 1.0,
            "mean0": 0.5,
            "var0": 1.0,
            "N": 512,
            "n": 256,
            "M": 48,
            "C": 2.0,
        },
        _dpp_lq,
    ),
    "modulus-lq": ExperimentDef(
        "modulus",
        {
            "b": 1.0,
            "sigma": 0.5,
            "sigma0": 0.5,
            "horizon": 1.0,
            "n": 256,
            "N": 256,
            "repeats": 32,
            "num_pairs": 20,
        },
        _modulus,
    ),
}


def get_experiment(name: str) -> ExperimentDef:
    if name not in _EXPERIMENTS:
        raise InvalidArgumentError(f"unknown experiment {name!r}")
    return _EXPERIMENTS[name]


def list_registry() -> list[str]:
    """Stable sorted names of built-in functionals and experiments."""
    names = set(_FUNCTIONALS) | set(_EXPERIMENTS)
    return sorted(names)
