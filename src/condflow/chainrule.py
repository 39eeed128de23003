"""Discrete assembly of both sides of the measure-flow chain rules.

Each verifier simulates M independent common-noise repetitions, builds
the left side u(mu_T) - u(mu_0) from the empirical conditional-law flow,
assembles every right-side term with left-endpoint evaluation, and
reports the per-repetition residuals.  The residual is the accounting
identity LHS - sum(terms) by construction, so a failure localizes to a
term, not to bookkeeping.

A repetition is swept in time windows of about 2^16 particle-steps
(:meth:`EnsembleSpec.windows`), so memory is O(N) rather than O(n N).
Every right-side term is a sum over cells of a left-endpoint quantity
times the cell increment: each window fills its cells of per-cell term
vectors (length n) and its rows of per-time vectors (length n+1), and
the terms are reduced from those vectors after the sweep.  Particle
averages reduce each row on its own, so the vectors, and with them every
report, are the same bytes however the sweep is split.

Bracket increments default to the analytic form implied by the known
coefficients (sigma^2 + sigma0^2) dt; realized squared increments and
pairwise increment products are available as estimator cross-checks.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .measures import (
    CylindricalFunctional,
    EmpiricalMeasure,
    TestFunction,
    linear_combination,
)
from .particle import ParticleEnsemble, simulate_ensemble
from .paths import Partition, RngStream, SamplePath, SdeCoefficients, make_uniform_partition

__all__ = [
    "EnsembleSpec",
    "VerifyConfig",
    "PathRow",
    "VerificationReport",
    "FieldComponent",
    "RandomFieldSpec",
    "RandomField",
    "BrownianFieldSpec",
    "FactorFunctional",
    "build_random_field",
    "verify_ito",
    "verify_ito_wentzell",
    "verify_brownian_corollary",
    "verify_factor_model",
    "SweepRow",
    "SweepTable",
    "convergence_sweep",
]


# ---------------------------------------------------------------------------
# configuration and report containers

# particle-steps per window: each (cells, N) float64 window array is 512 KiB
_WINDOW_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for building one ensemble repetition."""

    coeffs: SdeCoefficients
    initial: object
    num_particles: int
    num_cells: int
    horizon: float = 1.0
    y0: float | None = None
    control: Callable | None = None

    def partition(self) -> Partition:
        return make_uniform_partition(self.horizon, self.num_cells)

    def build(self, rng: RngStream) -> ParticleEnsemble:
        """The whole run as one ensemble."""
        return simulate_ensemble(
            self.coeffs,
            self.initial,
            self.num_particles,
            self.partition(),
            rng,
            control=self.control,
            y0=self.y0,
        )

    def windows(self, rng: RngStream):
        """Yield the same run as :meth:`build`, as consecutive windows of
        max(1, 2^16 // N) cells (the last one may be shorter)."""
        part = self.partition()
        step = max(1, _WINDOW_ELEMENTS // self.num_particles)
        ens = self.initial
        for _ in range(0, self.num_cells, step):
            ens = simulate_ensemble(
                self.coeffs,
                ens,
                self.num_particles,
                part,
                rng,
                control=self.control,
                y0=self.y0,
                num_cells=step,
            )
            yield ens

    def resized(self, num_cells: int | None = None, num_particles: int | None = None):
        return replace(
            self,
            num_cells=num_cells or self.num_cells,
            num_particles=num_particles or self.num_particles,
        )


@dataclass(frozen=True)
class VerifyConfig:
    """Common settings for the verifiers.

    ``rule`` picks the pass criterion: "exact" (max |residual| below an
    absolute floor), "mc" (mean and 0.9-quantile of |residual| within
    3 SE + C (n^-1/2 + N^-1/2)), or "dt" (signed mean residual within
    3 SE + C dt).
    """

    rng: RngStream
    outer_paths: int = 16
    bracket: str = "analytic"  # or "realized"
    cross: str = "analytic"  # or "pairwise"
    rule: str = "mc"
    tolerance_c: float = 0.5
    exact_floor: float = 1e-10
    expected_correction: float | None = None

    def __post_init__(self):
        if self.outer_paths < 1:
            raise InvalidArgumentError("need at least one outer repetition")
        if self.bracket not in ("analytic", "realized"):
            raise InvalidArgumentError("bracket must be 'analytic' or 'realized'")
        if self.cross not in ("analytic", "pairwise"):
            raise InvalidArgumentError("cross must be 'analytic' or 'pairwise'")
        if self.rule not in ("exact", "mc", "dt"):
            raise InvalidArgumentError("rule must be 'exact', 'mc' or 'dt'")


@dataclass(frozen=True)
class PathRow:
    """Term breakdown for one common-noise repetition."""

    lhs: float
    terms: dict[str, float]
    residual: float
    ablation_residual: float | None = None


@dataclass(frozen=True)
class VerificationReport:
    experiment: str
    rows: tuple[PathRow, ...]
    params: dict
    tolerance: dict
    aggregate: dict
    passed: bool

    @property
    def term_names(self) -> list[str]:
        return list(self.rows[0].terms.keys())

    def csv_rows(self) -> tuple[list[str], list[list[float]]]:
        names = self.term_names
        header = ["path", "lhs", *names, "residual"]
        has_ablation = self.rows[0].ablation_residual is not None
        if has_ablation:
            header.append("ablation_residual")
        out = []
        for i, r in enumerate(self.rows):
            row = [float(i), r.lhs, *[r.terms[n] for n in names], r.residual]
            if has_ablation:
                row.append(r.ablation_residual)
            out.append(row)
        return header, out


def _finalize(
    experiment: str,
    rows: list[PathRow],
    params: dict,
    cfg: VerifyConfig,
) -> VerificationReport:
    res = np.array([r.residual for r in rows])
    abs_res = np.abs(res)
    m = res.size
    se = float(res.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    se_abs = float(abs_res.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    aggregate = {
        "mean_residual": float(res.mean()),
        "mean_abs_residual": float(abs_res.mean()),
        "max_abs_residual": float(abs_res.max()),
        "q90_abs_residual": float(np.quantile(abs_res, 0.9)),
        "se_residual": se,
        "se_abs_residual": se_abs,
    }
    for name in rows[0].terms:
        aggregate[f"term_{name}"] = float(np.mean([r.terms[name] for r in rows]))
    n = params["n"]
    big_n = params["N"]
    dt = params["horizon"] / n
    tolerance = {"rule": cfg.rule, "C": cfg.tolerance_c}
    if cfg.rule == "exact":
        tolerance["tol"] = cfg.exact_floor
        passed = aggregate["max_abs_residual"] <= cfg.exact_floor
    elif cfg.rule == "mc":
        tol = 3.0 * se_abs + cfg.tolerance_c * (n**-0.5 + big_n**-0.5)
        tolerance["tol"] = tol
        passed = aggregate["mean_abs_residual"] <= tol and aggregate["q90_abs_residual"] <= tol
    else:
        tol = 3.0 * se + cfg.tolerance_c * dt
        tolerance["tol"] = tol
        passed = abs(aggregate["mean_residual"]) <= tol
    if rows[0].ablation_residual is not None:
        abl = np.array([r.ablation_residual for r in rows])
        aggregate["mean_ablation_residual"] = float(abl.mean())
        aggregate["se_ablation_residual"] = (
            float(abl.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
        )
        if cfg.expected_correction is not None:
            tol_abl = 3.0 * aggregate["se_ablation_residual"] + cfg.tolerance_c * dt
            tolerance["ablation_target"] = cfg.expected_correction
            tolerance["ablation_tol"] = tol_abl
            passed = passed and abs(
                aggregate["mean_ablation_residual"] - cfg.expected_correction
            ) <= tol_abl
    return VerificationReport(experiment, tuple(rows), params, tolerance, aggregate, passed)


# ---------------------------------------------------------------------------
# vectorized derivative tables


def _ustat_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # ordered-pair average per row of two (n, N) arrays
    n_p = a.shape[1]
    return (a.sum(axis=1) * b.sum(axis=1) - (a * b).sum(axis=1)) / (n_p * (n_p - 1))


class _TestTables:
    """Values/gradients/Hessians of the test functions along the ensemble."""

    def __init__(self, tests: Sequence[TestFunction], states: np.ndarray):
        self.vals = [np.asarray(t.value(states), dtype=float) for t in tests]
        self.grads = [np.asarray(t.grad(states), dtype=float) for t in tests]
        self.hesses = [np.asarray(t.hess(states), dtype=float) for t in tests]
        self.moments = np.stack([p.mean(axis=1) for p in self.vals], axis=-1)  # (n+1, k)

    def grad_mean(self, d_outer: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-cell particle mean of sum_a dF_a grad(phi_a) * weights."""
        out = 0.0
        for a, g in enumerate(self.grads):
            out = out + d_outer[:-1, a] * (g[:-1] * weights).mean(axis=1)
        return out

    def hess_mean(self, d_outer: np.ndarray, weights: np.ndarray) -> np.ndarray:
        out = 0.0
        for a, h in enumerate(self.hesses):
            out = out + d_outer[:-1, a] * (h[:-1] * weights).mean(axis=1)
        return out

    def cross_ustat(self, d2_outer: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-cell pair average of the mixed second-derivative kernel."""
        k = len(self.vals)
        out = 0.0
        for a in range(k):
            wa = self.grads[a][:-1] * weights
            for b in range(k):
                col = d2_outer[:-1, a, b]
                if not np.any(col):
                    continue
                wb = self.grads[b][:-1] * weights
                out = out + col * _ustat_rows(wa, wb)
        return out


class _FunctionalTables(_TestTables):
    """Test tables plus the outer map's value/gradient/Hessian rows."""

    def __init__(self, u: CylindricalFunctional, states: np.ndarray):
        super().__init__(u.tests, states)
        self.u = u
        self.values = np.asarray(u.outer.value(self.moments), dtype=float)  # (n+1,)
        self.d_outer = np.asarray(u.outer.grad(self.moments), dtype=float)  # (n+1, k)
        self.d2_outer = np.asarray(u.outer.hess(self.moments), dtype=float)  # (n+1, k, k)

    def drift_term(self, weights: np.ndarray) -> np.ndarray:
        return self.grad_mean(self.d_outer, weights)

    def second_term(self, weights: np.ndarray) -> np.ndarray:
        return self.hess_mean(self.d_outer, weights)

    def cross_term(self, weights: np.ndarray) -> np.ndarray:
        return self.cross_ustat(self.d2_outer, weights)


def _bracket_increments(ens: ParticleEnsemble, cfg: VerifyConfig, dx: np.ndarray) -> np.ndarray:
    if cfg.bracket == "analytic":
        return (ens.sigma_values**2 + ens.sigma0_values**2) * ens.deltas[:, None]
    return dx * dx


def _cross_cell_terms(tab, ens: ParticleEnsemble, cfg: VerifyConfig, dx: np.ndarray) -> np.ndarray:
    if cfg.cross == "analytic":
        return tab.cross_term(ens.sigma0_values) * ens.deltas
    return tab.cross_term(dx)


# ---------------------------------------------------------------------------
# plain chain rule for a deterministic functional


def verify_ito(
    u: CylindricalFunctional, spec: EnsembleSpec, cfg: VerifyConfig, name: str = "verify-ito"
) -> VerificationReport:
    """Compare u(mu_T) - u(mu_0) against the three-term right side.

    Terms per repetition: the particle average of the measure-derivative
    integral against dX, half the second x-derivative against the state
    bracket, and half the pair average of the mixed second functional
    derivative against the cross bracket of two distinct particles.
    """
    if spec.num_particles < 2:
        raise InvalidArgumentError("need at least two particles")
    n = spec.num_cells
    rows = []
    for r in range(cfg.outer_paths):
        values = np.empty(n + 1)
        drift, second, cross = np.empty(n), np.empty(n), np.empty(n)
        for ens in spec.windows(cfg.rng.child(r)):
            tab = _FunctionalTables(u, ens.states)
            dx = ens.state_increments()
            values[ens.time_points] = tab.values
            drift[ens.cells] = tab.drift_term(dx)
            second[ens.cells] = tab.second_term(_bracket_increments(ens, cfg, dx))
            cross[ens.cells] = _cross_cell_terms(tab, ens, cfg, dx)
        s1 = float(drift.sum())
        s2 = 0.5 * float(second.sum())
        s3 = 0.5 * float(cross.sum())
        lhs = float(values[-1] - values[0])
        terms = {"stochastic_integral": s1, "second_order": s2, "cross": s3}
        rows.append(PathRow(lhs, terms, lhs - s1 - s2 - s3))
    params = {
        "n": spec.num_cells,
        "N": spec.num_particles,
        "M": cfg.outer_paths,
        "horizon": spec.horizon,
        "functional": u.name,
        "bracket": cfg.bracket,
        "cross": cfg.cross,
        "seed": cfg.rng.key(),
    }
    return _finalize(name, rows, params, cfg)


# ---------------------------------------------------------------------------
# random fields driven by finite-variation and martingale paths


@dataclass(frozen=True)
class FieldComponent:
    """One driver term of a random field.

    ``driver`` is "fv" (absolutely continuous, B_t = scale * t) or
    "martingale" with a correlation tag choosing which Brownian drives
    it: "common" (the shared path), "independent" (a fresh one), or
    "idiosyncratic" (the tagged particle's own noise, whose bracket with
    the ensemble enters through that single particle only).
    """

    coeff: CylindricalFunctional
    driver: str
    tag: str = ""
    scale: float = 1.0

    def __post_init__(self):
        if self.driver not in ("fv", "martingale"):
            raise InvalidArgumentError("driver must be 'fv' or 'martingale'")
        if self.driver == "martingale" and self.tag not in (
            "common",
            "independent",
            "idiosyncratic",
        ):
            raise InvalidArgumentError("martingale tag must name its Brownian source")


@dataclass(frozen=True)
class RandomFieldSpec:
    initial: CylindricalFunctional | None
    components: tuple[FieldComponent, ...] = ()

    def martingale_components(self):
        return [c for c in self.components if c.driver == "martingale"]


class RandomField:
    """A field realized on one ensemble: U_t(m) = U_0(m) + sum_c coeff_c(m) D_c(t).

    Driver paths are accumulated with the same grid increments used by
    every verifier term, so the derivative decompositions hold exactly at
    grid level by linearity.
    """

    def __init__(self, spec: RandomFieldSpec, partition: Partition, drivers: list[np.ndarray]):
        self.spec = spec
        self.partition = partition
        self.drivers = drivers  # one (n+1,) cumulative path per component

    def as_functional(self, index: int) -> CylindricalFunctional:
        """Materialize U_{t_index} as a cylindrical functional."""
        terms = []
        if self.spec.initial is not None:
            terms.append((1.0, self.spec.initial))
        for comp, path in zip(self.spec.components, self.drivers):
            terms.append((float(path[index]), comp.coeff))
        if not terms:
            raise InvalidArgumentError("empty field")
        return linear_combination(terms, name=f"field@{index}")

    def value(self, index: int, m: EmpiricalMeasure) -> float:
        from .measures import evaluate

        return evaluate(self.as_functional(index), m)

    def d_lions(self, index: int, m: EmpiricalMeasure, x):
        from .measures import d_lions as _dl

        return _dl(self.as_functional(index), m, x)


def _bracket_with_state(comp: FieldComponent, ens: ParticleEnsemble) -> np.ndarray:
    """Analytic per-particle increments of <N_c, M^i> on each cell of the window."""
    out = np.zeros(ens.idio_increments.shape)
    dt = ens.deltas
    if comp.driver != "martingale" or comp.tag == "independent":
        return out
    if comp.tag == "common":
        out[:] = comp.scale * ens.sigma0_values * dt[:, None]
    else:  # idiosyncratic: only the tagged particle shares the noise
        out[:, 0] = comp.scale * ens.sigma_values[:, 0] * dt
    return out


def _field_drivers(
    spec: RandomFieldSpec,
    part: Partition,
    common: SamplePath,
    tagged_increments: np.ndarray,
    rng: RngStream,
) -> list[np.ndarray]:
    # ``tagged_increments`` are particle 0's own dW on every cell
    drivers = []
    for idx, comp in enumerate(spec.components):
        if comp.driver == "fv":
            drivers.append(comp.scale * part.times)
        elif comp.tag == "common":
            drivers.append(comp.scale * common.values)
        elif comp.tag == "idiosyncratic":
            path = np.concatenate([[0.0], np.cumsum(tagged_increments)])
            drivers.append(comp.scale * path)
        else:
            gen = rng.child(1000 + idx).generator()
            inc = gen.normal(size=part.num_cells) * np.sqrt(part.deltas)
            drivers.append(comp.scale * np.concatenate([[0.0], np.cumsum(inc)]))
    return drivers


def build_random_field(
    spec: RandomFieldSpec, ensemble: ParticleEnsemble, rng: RngStream
) -> RandomField:
    """Realize the field's driver paths on a whole-run ensemble's grid."""
    part = ensemble.partition
    drivers = _field_drivers(spec, part, ensemble.common, ensemble.idio_increments[:, 0], rng)
    return RandomField(spec, part, drivers)


def verify_ito_wentzell(
    spec: RandomFieldSpec,
    espec: EnsembleSpec,
    cfg: VerifyConfig,
    name: str = "verify-wentzell",
) -> VerificationReport:
    """Full chain rule for a random field along the conditional-law flow.

    Besides the three state terms this adds the field's own driver
    integrals and the bracket correction between the field's martingale
    drivers and the particles' martingale parts.  Each row also carries
    the ablation residual computed with the correction deleted, so the
    necessity of that term is observable.
    """
    n = espec.num_cells
    # the initial functional (weight 1) first, then one per component
    funcs = [c.coeff for c in spec.components]
    offset = 0
    if spec.initial is not None:
        funcs.insert(0, spec.initial)
        offset = 1
    k = len(funcs)
    rows = []
    for r in range(cfg.outer_paths):
        values = np.empty((k, n + 1))
        drift, second, cross = np.empty((k, n)), np.empty((k, n)), np.empty((k, n))
        corrections = np.empty((k, n))
        tagged = np.empty(n)
        for ens in espec.windows(cfg.rng.child(r)):
            cells = ens.cells
            dx = ens.state_increments()
            qv = _bracket_increments(ens, cfg, dx)
            tagged[cells] = ens.idio_increments[:, 0]
            for j, f in enumerate(funcs):
                tab = _FunctionalTables(f, ens.states)
                values[j, ens.time_points] = tab.values
                drift[j, cells] = tab.drift_term(dx)
                second[j, cells] = tab.second_term(qv)
                cross[j, cells] = _cross_cell_terms(tab, ens, cfg, dx)
                if j >= offset and spec.components[j - offset].driver == "martingale":
                    bracket = _bracket_with_state(spec.components[j - offset], ens)
                    corrections[j, cells] = tab.drift_term(bracket)
        part = ens.partition
        drivers = _field_drivers(spec, part, ens.common, tagged, cfg.rng.child(r, 1))
        weights = [np.ones(n + 1)] * offset + drivers

        s1 = s2 = s3 = 0.0
        for j, w in enumerate(weights):
            s1 += float((w[:-1] * drift[j]).sum())
            s2 += 0.5 * float((w[:-1] * second[j]).sum())
            s3 += 0.5 * float((w[:-1] * cross[j]).sum())

        field_fv = field_mart = correction = 0.0
        for idx, comp in enumerate(spec.components):
            j = offset + idx
            contribution = float((values[j, :-1] * np.diff(drivers[idx])).sum())
            if comp.driver == "fv":
                field_fv += contribution
            else:
                field_mart += contribution
                correction += float(corrections[j].sum())

        lhs = 0.0
        for j, w in enumerate(weights):
            lhs += float(w[-1] * values[j, -1] - w[0] * values[j, 0])
        terms = {
            "stochastic_integral": s1,
            "second_order": s2,
            "cross": s3,
            "field_fv": field_fv,
            "field_martingale": field_mart,
            "bracket_correction": correction,
        }
        residual = lhs - sum(terms.values())
        rows.append(PathRow(lhs, terms, residual, ablation_residual=residual + correction))
    params = {
        "n": espec.num_cells,
        "N": espec.num_particles,
        "M": cfg.outer_paths,
        "horizon": espec.horizon,
        "field_components": [f"{c.driver}:{c.tag or 'time'}" for c in spec.components],
        "bracket": cfg.bracket,
        "cross": cfg.cross,
        "seed": cfg.rng.key(),
    }
    return _finalize(name, rows, params, cfg)


# ---------------------------------------------------------------------------
# Brownian specialization


@dataclass(frozen=True)
class BrownianFieldSpec:
    """Field dU = phi dt + psi dW_u + psi0 dW0 with an explicit term list.

    The field's own idiosyncratic driver W_u is a fresh Brownian,
    conditionally independent of every particle, so only the common
    driver produces a bracket correction.
    """

    initial: CylindricalFunctional | None = None
    phi: CylindricalFunctional | None = None
    psi: CylindricalFunctional | None = None
    psi0: CylindricalFunctional | None = None


def verify_brownian_corollary(
    spec: BrownianFieldSpec,
    espec: EnsembleSpec,
    cfg: VerifyConfig,
    name: str = "verify-brownian",
) -> VerificationReport:
    """Term-by-term check of the Brownian-driver specialization.

    The right side is assembled exactly as displayed for this case: the
    three field integrals, the conditional drift and common-noise
    integrals of the measure derivative, the second-order term against
    (sigma^2 + sigma0^2) dt, the correction pairing the common field
    driver with sigma0, and the pair-average cross term against
    sigma0 sigma0-hat dt.
    """
    named = [("initial", spec.initial), ("phi", spec.phi), ("psi", spec.psi), ("psi0", spec.psi0)]
    named = [(key, f) for key, f in named if f is not None]
    if not named:
        raise InvalidArgumentError("empty field specification")
    at = {key: j for j, (key, _) in enumerate(named)}
    n = espec.num_cells
    k = len(named)
    rows = []
    for r in range(cfg.outer_paths):
        values = np.empty((k, n + 1))
        drift, common, second, cross = (np.empty((k, n)) for _ in range(4))
        correction = np.empty(n)
        for ens in espec.windows(cfg.rng.child(r)):
            cells = ens.cells
            dt = ens.deltas
            dw0 = np.diff(ens.common.values[ens.time_points])
            drift_w = ens.drift_values * dt[:, None]
            common_w = ens.sigma0_values * dw0[:, None]
            second_w = (ens.sigma_values**2 + ens.sigma0_values**2) * dt[:, None]
            for j, (key, f) in enumerate(named):
                tab = _FunctionalTables(f, ens.states)
                values[j, ens.time_points] = tab.values
                drift[j, cells] = tab.drift_term(drift_w)
                common[j, cells] = tab.drift_term(common_w)
                second[j, cells] = tab.second_term(second_w)
                cross[j, cells] = tab.cross_term(ens.sigma0_values)
                if key == "psi0":
                    correction[cells] = tab.drift_term(ens.sigma0_values * dt[:, None])
        part = ens.partition
        dt = part.deltas
        dw0 = np.diff(ens.common.values)
        gen = cfg.rng.child(r, 1).generator()
        dwu = gen.normal(size=part.num_cells) * np.sqrt(dt)
        drivers = {
            "initial": np.ones(part.times.size),
            "phi": part.times.copy(),
            "psi": np.concatenate([[0.0], np.cumsum(dwu)]),
            "psi0": ens.common.values.copy(),
        }

        def field_integral(key, increments):
            return float((values[at[key], :-1] * increments).sum()) if key in at else 0.0

        terms = {
            "field_dt": field_integral("phi", dt),
            "field_idio": field_integral("psi", dwu),
            "field_common": field_integral("psi0", dw0),
            "drift": 0.0,
            "common_integral": 0.0,
            "second_order": 0.0,
            "bracket_correction": float(correction.sum()) if "psi0" in at else 0.0,
            "cross": 0.0,
        }
        lhs = 0.0
        for j, (key, _) in enumerate(named):
            w = drivers[key]
            terms["drift"] += float((w[:-1] * drift[j]).sum())
            terms["common_integral"] += float((w[:-1] * common[j]).sum())
            terms["second_order"] += 0.5 * float((w[:-1] * second[j]).sum())
            terms["cross"] += 0.5 * float((w[:-1] * cross[j] * dt).sum())
            lhs += float(w[-1] * values[j, -1] - w[0] * values[j, 0])
        residual = lhs - sum(terms.values())
        rows.append(PathRow(lhs, terms, residual))
    params = {
        "n": espec.num_cells,
        "N": espec.num_particles,
        "M": cfg.outer_paths,
        "horizon": espec.horizon,
        "bracket": "analytic",
        "cross": "analytic",
        "seed": cfg.rng.key(),
    }
    return _finalize(name, rows, params, cfg)


# ---------------------------------------------------------------------------
# factor-model specialization


@dataclass(frozen=True)
class FactorFunctional:
    """u(t, m, y) = G(t, <phi, m>, y) with exact partial derivatives.

    Outer callables are vectorized over a leading time axis and take
    (t, v, y) with v of trailing shape (k,); ``dv``/``dvy`` return
    trailing (k,), ``dvv`` trailing (k, k).  Each output row may depend
    only on its own time row: the verifier passes one window at a time.
    """

    name: str
    tests: tuple[TestFunction, ...]
    value: Callable
    dt: Callable
    dv: Callable
    dvv: Callable
    dy: Callable
    dyy: Callable
    dvy: Callable


def verify_factor_model(
    fu: FactorFunctional,
    espec: EnsembleSpec,
    cfg: VerifyConfig,
    name: str = "verify-factor",
) -> VerificationReport:
    """Chain rule for u(t, mu_t, Y_t) with a simulated common factor.

    The factor terms use analytic bracket increments (gamma^2 +
    gamma0^2) dt and the state-factor bracket sigma0 gamma0 dt, both at
    left endpoints.
    """
    if espec.y0 is None:
        raise InvalidArgumentError("factor verification needs y0 in the ensemble spec")
    n = espec.num_cells
    rows = []
    for r in range(cfg.outer_paths):
        moments = np.empty((n + 1, len(fu.tests)))
        gam, gam0 = np.empty(n), np.empty(n)
        stoch, second, mixed, cross = (np.empty(n) for _ in range(4))
        for ens in espec.windows(cfg.rng.child(r)):
            cells = ens.cells
            dt = ens.deltas
            times = ens.partition.times[ens.time_points]
            y = ens.factor.values[ens.time_points]
            tab = _TestTables(fu.tests, ens.states)
            v = tab.moments
            moments[ens.time_points] = v
            d_v = np.asarray(fu.dv(times, v, y), dtype=float)
            d_vv = np.asarray(fu.dvv(times, v, y), dtype=float)
            d_vy = np.asarray(fu.dvy(times, v, y), dtype=float)
            gam[cells] = [ens.coeffs.gamma(float(t), float(yy)) for t, yy in zip(times[:-1], y[:-1])]
            gam0[cells] = [ens.coeffs.gamma0(float(t), float(yy)) for t, yy in zip(times[:-1], y[:-1])]
            qv_x = (ens.sigma_values**2 + ens.sigma0_values**2) * dt[:, None]
            bracket_xy = ens.sigma0_values * (gam0[cells] * dt)[:, None]
            stoch[cells] = tab.grad_mean(d_v, ens.state_increments())
            second[cells] = tab.hess_mean(d_v, qv_x)
            mixed[cells] = tab.grad_mean(d_vy, bracket_xy)
            cross[cells] = tab.cross_ustat(d_vv, ens.sigma0_values) * dt

        part = ens.partition
        dt = part.deltas
        times = part.times
        y = ens.factor.values
        val = np.asarray(fu.value(times, moments, y), dtype=float)
        d_t = np.asarray(fu.dt(times, moments, y), dtype=float)
        d_y = np.asarray(fu.dy(times, moments, y), dtype=float)
        d_yy = np.asarray(fu.dyy(times, moments, y), dtype=float)
        qv_y = (gam**2 + gam0**2) * dt

        terms = {
            "time": float((d_t[:-1] * dt).sum()),
            "factor_first": float((d_y[:-1] * np.diff(y)).sum()),
            "factor_second": 0.5 * float((d_yy[:-1] * qv_y).sum()),
            "stochastic_integral": float(stoch.sum()),
            "second_order": 0.5 * float(second.sum()),
            "mixed_bracket": float(mixed.sum()),
            "cross": 0.5 * float(cross.sum()),
        }
        lhs = float(val[-1] - val[0])
        rows.append(PathRow(lhs, terms, lhs - sum(terms.values())))
    params = {
        "n": espec.num_cells,
        "N": espec.num_particles,
        "M": cfg.outer_paths,
        "horizon": espec.horizon,
        "functional": fu.name,
        "bracket": "analytic",
        "cross": "analytic",
        "seed": cfg.rng.key(),
    }
    return _finalize(name, rows, params, cfg)


# ---------------------------------------------------------------------------
# convergence sweeps


@dataclass(frozen=True)
class SweepRow:
    n: int
    N: int
    M: int
    mean_abs_residual: float
    stderr: float
    ratio_vs_coarser: float | None
    ratio_ok: bool | None


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]

    def flagged_ok(self) -> bool:
        checked = [r.ratio_ok for r in self.rows if r.ratio_ok is not None]
        return all(checked) if checked else True


def convergence_sweep(
    run_cell: Callable[[int, int, int, RngStream], VerificationReport],
    cells: Sequence[tuple[int, int, int]],
    rng: RngStream,
    ratio_band: tuple[float, float] = (1.3, 3.0),
    threads: int = 1,
    noise_floor: float = 1e-12,
) -> SweepTable:
    """Run a verifier over a grid of (n, N, M) and flag error ratios.

    Rows whose cell count quadruples a previous row at the same (N, M)
    get a mean-error ratio with an inside-band flag (target 2 for a
    rate-1/2 statistic); a single cell yields one row and no flags.
    Errors at the roundoff floor carry no flag (their ratios are noise).
    """
    if not cells:
        raise InvalidArgumentError("sweep grid must be nonempty")

    def one(args):
        i, (n, big_n, m) = args
        rep = run_cell(n, big_n, m, rng.child(i))
        return rep.aggregate["mean_abs_residual"], rep.aggregate["se_abs_residual"]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            stats = list(pool.map(one, enumerate(cells)))
    else:
        stats = [one(x) for x in enumerate(cells)]

    rows: list[SweepRow] = []
    for i, (n, big_n, m) in enumerate(cells):
        err, se = stats[i]
        ratio = ok = None
        for j in range(i - 1, -1, -1):
            nj, bj, mj = cells[j]
            if bj == big_n and mj == m and n == 4 * nj and err > noise_floor and stats[j][0] > noise_floor:
                ratio = stats[j][0] / err
                ok = ratio_band[0] <= ratio <= ratio_band[1]
                break
        rows.append(SweepRow(n, big_n, m, err, se, ratio, ok))
    return SweepTable(tuple(rows))
