"""Discrete assembly of both sides of the measure-flow chain rules.

The Ito rule, the Ito-Wentzell rule for random fields and its Brownian
and factor-model corollaries are one identity with different driver
terms, so one private kernel, ``_verify``, runs all four.  It simulates
M independent common-noise repetitions, G repetitions at a time as one
(cells, G, N) batch (:meth:`EnsembleSpec.batch_size`): each batch is one
``particle.Sweep``, run by ``particle.simulate_ensemble`` in time windows
of at most about 2^16 particle-steps each, so memory is O(N) rather than
O(n N).  Each repetition has its own
common-noise and factor paths, and its coefficients read its own
empirical measure; batching cuts the per-step interpreter work of a
small-N run by about G.  Each window fills per-time buffers (length n+1)
and per-cell term vectors (length n) of its repetitions from its
test-function tables (``measures._Tables``, the windowed derivative
calculus).  Every right-side term is a sum over cells of a left-endpoint
quantity times the cell increment, and particle averages reduce each row
of one repetition on its own, so every report is the same bytes however
the sweep is split or batched.  Each public verifier is a view: it names
its functionals and the integrands it needs against the gradient, the
Hessian and the pair U-statistic, and turns the buffers and its driver
paths into named terms and the residual LHS - sum(terms).  That residual
is an accounting identity, so a failure localizes to a term, not to
bookkeeping.

Bracket increments take the analytic form implied by the known
coefficients, (sigma^2 + sigma0^2) dt; the cross term defaults to the
analytic sigma0 sigma0-hat dt, and the Ito and Ito-Wentzell views offer
pairwise increment products as an estimator cross-check.  The Brownian
and factor views display the analytic cross term and refuse the other.

Every report ends in a gate whose SE and tolerance are ``condflow._gate``'s.
"""

from collections import defaultdict
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from . import _gate
from .errors import InvalidArgumentError, NumericOverflowError
from .measures import CylindricalFunctional, TestFunction, _Tables
from .particle import ParticleEnsemble, Sweep, simulate_ensemble, window_cells
from .paths import Partition, RngStream, SamplePath, SdeCoefficients, make_uniform_partition

__all__ = [
    "EnsembleSpec",
    "VerifyConfig",
    "PathRow",
    "VerificationReport",
    "FieldComponent",
    "RandomFieldSpec",
    "BrownianFieldSpec",
    "FactorFunctional",
    "verify_ito",
    "verify_ito_wentzell",
    "verify_brownian_corollary",
    "verify_factor_model",
]


# ---------------------------------------------------------------------------
# configuration and report containers

@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for building the ensemble of each repetition.

    Repetition r runs on stream ``rng.child(r)``.  The verifiers sweep
    the repetitions in batches of G = :meth:`batch_size` streams, one
    (cells, G, N) state per batch.  Each repetition's run is its run in
    a batch of one, bit for bit, whatever its coefficients read of the
    law or the factor.
    """

    coeffs: SdeCoefficients
    initial: Callable
    num_particles: int
    num_cells: int
    horizon: float = 1.0
    y0: float | None = None

    def partition(self) -> Partition:
        return make_uniform_partition(self.horizon, self.num_cells)

    def batch_size(self, repetitions: int) -> int:
        """Repetitions per batch, G: one per 16 cells of a batch-of-one
        window, so that a batch's windows keep at least 16 cells and hold
        no more particle-steps than a batch-of-one window."""
        cells = min(self.num_cells, window_cells(self.num_particles))
        return min(repetitions, max(1, cells // 16))


@dataclass(frozen=True)
class VerifyConfig:
    """Common settings for the verifiers.

    ``rule`` picks the pass criterion: "exact" (max |residual| below an
    absolute floor), "mc" (mean and 0.9-quantile of |residual| within
    3 SE + C (n^-1/2 + N^-1/2)), or "dt" (signed mean residual within
    3 SE + C dt), by ``condflow._gate``, with C = ``tolerance_c`` and the
    floor ``exact_floor`` both nonnegative and finite.  ``cross`` picks
    the estimator of the cross term between two distinct particles: the
    analytic sigma0 sigma0-hat dt or pairwise products of their increments.
    """

    rng: RngStream
    outer_paths: int = 16
    cross: str = "analytic"  # or "pairwise"
    rule: str = "mc"
    tolerance_c: float = 0.5
    exact_floor: float = 1e-10
    expected_correction: float | None = None

    def __post_init__(self):
        if self.cross not in ("analytic", "pairwise"):
            raise InvalidArgumentError("cross must be 'analytic' or 'pairwise'")
        if self.rule not in ("exact", "mc", "dt"):
            raise InvalidArgumentError("rule must be 'exact', 'mc' or 'dt'")
        need = 1 if self.rule == "exact" else 2  # one repetition has no standard error
        if self.outer_paths < need:
            raise InvalidArgumentError(f"the {self.rule!r} rule needs at least {need} outer repetitions")
        for key in ("tolerance_c", "exact_floor"):
            _gate.require_allowance(key, getattr(self, key))


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


def _quantile_90(values: np.ndarray) -> float:
    """The 0.9 quantile by numpy's default (linear) rule, bit for bit
    ``np.quantile(values, 0.9)``, which on its first call in a process
    imports ``numpy.ma`` (through ``np.unique``)."""
    s = np.sort(values)
    if np.isnan(s[-1]):  # a NaN anywhere makes the quantile NaN
        return float(s[-1])
    v = 0.9 * (s.size - 1)
    i = int(v)
    if i + 1 < s.size:
        a, b, g = s[i], s[i + 1], v - i
    else:  # one value: numpy takes it as both neighbours, with weight v + 1 = 1
        a, b, g = s[-1], s[-1], v + 1.0
    if g >= 0.5:
        return float(b - (b - a) * (1.0 - g))
    return float(a + (b - a) * g)


def _finalize(
    experiment: str,
    rows: list[PathRow],
    params: dict,
    cfg: VerifyConfig,
) -> VerificationReport:
    res = np.array([r.residual for r in rows])
    abs_res = np.abs(res)
    mean, se = _gate.mean_se(res)
    mean_abs, se_abs = _gate.mean_se(abs_res)
    aggregate = {
        "mean_residual": mean,
        "mean_abs_residual": mean_abs,
        "max_abs_residual": float(abs_res.max()),
        "q90_abs_residual": _quantile_90(abs_res),
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
        tol = _gate.tolerance(se_abs, cfg.tolerance_c * (n**-0.5 + big_n**-0.5))
        tolerance["tol"] = tol
        passed = mean_abs <= tol and aggregate["q90_abs_residual"] <= tol
    else:
        tol = _gate.tolerance(se, cfg.tolerance_c * dt)
        tolerance["tol"] = tol
        passed = abs(mean) <= tol
    if rows[0].ablation_residual is not None:
        mean_abl, se_abl = _gate.mean_se([r.ablation_residual for r in rows])
        aggregate["mean_ablation_residual"] = mean_abl
        aggregate["se_ablation_residual"] = se_abl
        if cfg.expected_correction is not None:
            tol_abl = _gate.tolerance(se_abl, cfg.tolerance_c * dt)
            tolerance["ablation_target"] = cfg.expected_correction
            tolerance["ablation_tol"] = tol_abl
            passed = passed and abs(mean_abl - cfg.expected_correction) <= tol_abl
    # a non-finite number would pass no gate for the right reason and is
    # not valid JSON; the aggregates cover every residual and term mean
    numbers = [*aggregate.values(), *(v for v in tolerance.values() if not isinstance(v, str))]
    if not np.isfinite(numbers).all():
        raise NumericOverflowError("non-finite residual, term mean or tolerance")
    return VerificationReport(experiment, tuple(rows), params, tolerance, aggregate, passed)


# ---------------------------------------------------------------------------
# the chain-rule kernel


def _path_rows(paths: Sequence[SamplePath], points: slice) -> np.ndarray:
    """The values of a window's per-repetition paths at grid indices
    ``points``, one column per repetition: (points, G)."""
    return np.stack([path.values[points] for path in paths], axis=1)


def _verify(
    name: str,
    espec: EnsembleSpec,
    cfg: VerifyConfig,
    funcs: Sequence,
    coefficients: Callable,
    window: Callable,
    assemble: Callable,
    **params,
) -> VerificationReport:
    """Sweep the repetitions batch by batch and window by window, then
    finalize the report.

    Each batch of G streams is one :class:`particle.Sweep`, run in the
    windows :func:`simulate_ensemble` chooses: ``max(1, c // G)`` cells
    each (the last one may be shorter), where c =
    ``min(n, particle.window_cells(N))`` is the window of a batch of one.
    Every window's arrays are (cells, G, N), and particle means reduce
    the last axis.
    ``coefficients(f, ens, v)`` maps functional ``f``'s moment rows ``v``
    (cells+1, G, k) on window ``ens`` to named rows: the derivative rows
    that the integrands name, and per-time (cells+1, G) rows, such as
    "value", that no integrand names and that are kept for ``assemble``.
    ``window(ens)`` returns the integrands, each (key, _Tables method,
    derivative, weights, functional index or None for all), and named
    per-cell (cells, G) vectors.  ``assemble(rep)`` turns one repetition
    into its row; ``rep`` has the index ``r``, the ``partition``, its
    own ``common`` and ``factor`` paths, the kept per-time ``values`` (k,
    n+1) by name, and per-cell ``cells`` (k, n) and ``extras`` (n,).
    """
    n, k, m = espec.num_cells, len(funcs), cfg.outer_paths
    size = espec.batch_size(m)
    rows = []
    for first in range(0, m, size):
        reps = range(first, min(m, first + size))
        streams = [cfg.rng.child(r) for r in reps]
        sweep = Sweep(espec.coeffs, espec.initial, espec.num_particles, espec.partition(), streams, y0=espec.y0)
        # per-repetition buffers, repetition axis first
        values = defaultdict(lambda: np.empty((len(reps), k, n + 1)))
        cells = defaultdict(lambda: np.empty((len(reps), k, n)))
        extras = defaultdict(lambda: np.empty((len(reps), n)))
        while not sweep.done:
            ens = simulate_ensemble(sweep)
            integrands, vectors = window(ens)
            contracted = {c for _, _, c, _, _ in integrands}
            # window rows are (time, repetition); the buffers take the transpose
            for key, vec in vectors.items():
                extras[key][:, ens.cells] = np.transpose(vec)
            for j, f in enumerate(funcs):
                tab = _Tables(f.tests, ens.states)
                coef = {c: np.asarray(v, dtype=float) for c, v in coefficients(f, ens, tab.moments).items()}
                for c in coef.keys() - contracted:
                    values[c][:, j, ens.time_points] = np.transpose(coef[c])
                for key, mean, c, weights, only in integrands:
                    if only is None or only == j:
                        cells[key][:, j, ens.cells] = np.transpose(mean(tab, coef[c], weights))
        for i, r in enumerate(reps):
            rep = SimpleNamespace(
                r=r,
                partition=ens.partition,
                common=ens.common[i],
                factor=None if ens.factor is None else ens.factor[i],
                values={key: buf[i] for key, buf in values.items()},
                cells={key: buf[i] for key, buf in cells.items()},
                extras={key: buf[i] for key, buf in extras.items()},
            )
            rows.append(assemble(rep))
        # free this batch's sweep and buffers before the next batch makes its own
        del sweep, values, cells, extras, rep
    params = {
        "n": espec.num_cells,
        "N": espec.num_particles,
        "M": cfg.outer_paths,
        "horizon": espec.horizon,
        "bracket": "analytic",  # the state-bracket estimator; reports name it
        "cross": cfg.cross,
        "seed": cfg.rng.key(),
        **params,
    }
    return _finalize(name, rows, params, cfg)


def _cylindrical(u: CylindricalFunctional, ens: ParticleEnsemble, v: np.ndarray) -> dict:
    return {"value": u.outer.value(v), "d1": u.outer.grad(v), "d2": u.outer.hess(v)}


def _analytic_bracket(ens: ParticleEnsemble) -> np.ndarray:
    """(sigma^2 + sigma0^2) dt on each cell of the window, at the
    broadcast shape of the two coefficients' values: (cells, 1, 1) for
    constants, up to (cells, G, N)."""
    return (ens.sigma_values**2 + ens.sigma0_values**2) * ens.deltas[:, None, None]


def _state_integrands(ens: ParticleEnsemble, cfg: VerifyConfig) -> list:
    """dX, the analytic state bracket and the cross bracket by cfg's estimator."""
    dx = ens.state_increments()
    pair = ens.sigma0_values if cfg.cross == "analytic" else dx
    return [
        ("drift", _Tables.grad_mean, "d1", dx, None),
        ("second", _Tables.hess_mean, "d1", _analytic_bracket(ens), None),
        ("cross", _Tables.pair_mean, "d2", pair, None),
    ]


def _weighted(weights: Sequence[np.ndarray], rows: np.ndarray) -> float:
    """sum over functionals j and cells i of w_j(t_{i-1}) rows[j, i]."""
    total = 0.0
    for w, row in zip(weights, rows):
        total += float((w[:-1] * row).sum())
    return total


def _state_terms(rep, cfg: VerifyConfig, weights: Sequence[np.ndarray]) -> tuple[float, float, float]:
    """The stochastic integral, second-order and cross terms."""
    cross = rep.cells["cross"]
    if cfg.cross == "analytic":  # sigma0 sigma0-hat dt, scaled before weighting
        cross = cross * rep.partition.deltas
    drift, second = rep.cells["drift"], rep.cells["second"]
    return _weighted(weights, drift), 0.5 * _weighted(weights, second), 0.5 * _weighted(weights, cross)


def _weighted_lhs(weights: Sequence[np.ndarray], values: np.ndarray) -> float:
    lhs = 0.0
    for w, v in zip(weights, values):
        lhs += float(w[-1] * v[-1] - w[0] * v[0])
    return lhs


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

    def assemble(rep):
        s1, s2, s3 = _state_terms(rep, cfg, [np.ones(spec.num_cells + 1)])
        lhs = float(rep.values["value"][0, -1] - rep.values["value"][0, 0])
        terms = {"stochastic_integral": s1, "second_order": s2, "cross": s3}
        return PathRow(lhs, terms, lhs - s1 - s2 - s3)

    def window(ens):
        return _state_integrands(ens, cfg), {}

    return _verify(name, spec, cfg, [u], _cylindrical, window, assemble, functional=u.name)


# ---------------------------------------------------------------------------
# random fields driven by finite-variation and martingale paths


@dataclass(frozen=True)
class FieldComponent:
    """One driver term of a random field.

    ``driver`` is "fv" (absolutely continuous, B_t = t) or
    "martingale" with a correlation tag choosing which Brownian drives
    it: "common" (the shared path), "independent" (a fresh one), or
    "idiosyncratic" (the tagged particle's own noise, whose bracket with
    the ensemble enters through that single particle only).
    """

    coeff: CylindricalFunctional
    driver: str
    tag: str = ""

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
    """U_t(m) = U_0(m) + sum_c coeff_c(m) D_c(t); ``initial`` is U_0 or None."""

    initial: CylindricalFunctional | None
    components: tuple[FieldComponent, ...] = ()


def _bracket_with_state(comp: FieldComponent, ens: ParticleEnsemble) -> np.ndarray:
    """Analytic per-particle increments of <N_c, M^i> on each cell of the
    window, broadcasting to (cells, G, N).  A common driver gives
    sigma0 dt at sigma0's shape, and an independent one (cells, 1, 1)
    zeros; an idiosyncratic one is (cells, G, N), since only the tagged
    particle shares its noise."""
    if comp.driver == "martingale" and comp.tag == "common":
        return ens.sigma0_values * ens.deltas[:, None, None]
    if comp.driver != "martingale" or comp.tag == "independent":
        return np.zeros((ens.num_cells, 1, 1))
    out = np.zeros(ens.idio_increments.shape)
    out[..., 0] = ens.sigma_values[..., 0] * ens.deltas[:, None]
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
            drivers.append(part.times)
        elif comp.tag == "common":
            drivers.append(common.values)
        elif comp.tag == "idiosyncratic":
            drivers.append(np.concatenate([[0.0], np.cumsum(tagged_increments)]))
        else:
            gen = rng.child(1000 + idx).generator()
            inc = gen.normal(size=part.num_cells) * np.sqrt(part.deltas)
            drivers.append(np.concatenate([[0.0], np.cumsum(inc)]))
    return drivers


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
    # the initial functional (weight 1) first, then one per component
    initial = [] if spec.initial is None else [spec.initial]
    funcs = initial + [c.coeff for c in spec.components]
    offset = len(initial)

    def window(ens):
        integrands = _state_integrands(ens, cfg)
        for idx, comp in enumerate(spec.components):
            if comp.driver == "martingale":
                bracket = _bracket_with_state(comp, ens)
                integrands.append(("correction", _Tables.grad_mean, "d1", bracket, offset + idx))
        return integrands, {"tagged": ens.idio_increments[..., 0]}

    def assemble(rep):
        drivers = _field_drivers(spec, rep.partition, rep.common, rep.extras["tagged"], cfg.rng.child(rep.r, 1))
        weights = [np.ones(espec.num_cells + 1)] * offset + drivers
        s1, s2, s3 = _state_terms(rep, cfg, weights)
        field_fv = field_mart = correction = 0.0
        for idx, comp in enumerate(spec.components):
            j = offset + idx
            contribution = float((rep.values["value"][j, :-1] * np.diff(drivers[idx])).sum())
            if comp.driver == "fv":
                field_fv += contribution
            else:
                field_mart += contribution
                correction += float(rep.cells["correction"][j].sum())
        lhs = _weighted_lhs(weights, rep.values["value"])
        terms = {
            "stochastic_integral": s1,
            "second_order": s2,
            "cross": s3,
            "field_fv": field_fv,
            "field_martingale": field_mart,
            "bracket_correction": correction,
        }
        residual = lhs - sum(terms.values())
        return PathRow(lhs, terms, residual, ablation_residual=residual + correction)

    components = [f"{c.driver}:{c.tag or 'time'}" for c in spec.components]
    return _verify(name, espec, cfg, funcs, _cylindrical, window, assemble, field_components=components)


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
    sigma0 sigma0-hat dt, so ``cfg.cross`` must be "analytic".
    """
    if cfg.cross != "analytic":
        raise InvalidArgumentError("the Brownian view takes the analytic cross term only")
    named = [("initial", spec.initial), ("phi", spec.phi), ("psi", spec.psi), ("psi0", spec.psi0)]
    named = [(key, f) for key, f in named if f is not None]
    if not named:
        raise InvalidArgumentError("empty field specification")
    at = {key: j for j, (key, _) in enumerate(named)}

    def window(ens):
        dt = ens.deltas[:, None, None]
        dw0 = np.diff(_path_rows(ens.common, ens.time_points), axis=0)
        integrands = [
            ("drift", _Tables.grad_mean, "d1", ens.drift_values * dt, None),
            ("common", _Tables.grad_mean, "d1", ens.sigma0_values * dw0[..., None], None),
            ("second", _Tables.hess_mean, "d1", _analytic_bracket(ens), None),
            ("cross", _Tables.pair_mean, "d2", ens.sigma0_values, None),
        ]
        if "psi0" in at:
            correction = ens.sigma0_values * dt
            integrands.append(("correction", _Tables.grad_mean, "d1", correction, at["psi0"]))
        return integrands, {}

    def assemble(rep):
        part, common = rep.partition, rep.common
        dt = part.deltas
        dw0 = np.diff(common.values)
        dwu = cfg.rng.child(rep.r, 1).generator().normal(size=part.num_cells) * np.sqrt(dt)
        drivers = {
            "initial": np.ones(part.times.size),
            "phi": part.times,
            "psi": np.concatenate([[0.0], np.cumsum(dwu)]),
            "psi0": common.values,
        }
        weights = [drivers[key] for key, _ in named]

        def field_integral(key, increments):
            return float((rep.values["value"][at[key], :-1] * increments).sum()) if key in at else 0.0

        cross = 0.0  # sigma0 sigma0-hat dt, scaled after weighting
        for w, row in zip(weights, rep.cells["cross"]):
            cross += 0.5 * float((w[:-1] * row * dt).sum())
        terms = {
            "field_dt": field_integral("phi", dt),
            "field_idio": field_integral("psi", dwu),
            "field_common": field_integral("psi0", dw0),
            "drift": _weighted(weights, rep.cells["drift"]),
            "common_integral": _weighted(weights, rep.cells["common"]),
            "second_order": 0.5 * _weighted(weights, rep.cells["second"]),
            "bracket_correction": float(rep.cells["correction"][at["psi0"]].sum()) if "psi0" in at else 0.0,
            "cross": cross,
        }
        lhs = _weighted_lhs(weights, rep.values["value"])
        return PathRow(lhs, terms, lhs - sum(terms.values()))

    funcs = [f for _, f in named]
    return _verify(name, espec, cfg, funcs, _cylindrical, window, assemble)


# ---------------------------------------------------------------------------
# factor-model specialization


@dataclass(frozen=True)
class FactorFunctional:
    """u(t, m, y) = G(t, <phi, m>, y) with exact partial derivatives.

    Outer callables take the rows of one window: times t (cells+1, 1),
    moments v (cells+1, G, k) and factor values y (cells+1, G), one
    column per repetition of a batch.  ``value``, ``dt``, ``dy`` and
    ``dyy`` return (cells+1, G) rows, ``dv``/``dvy`` trailing (k,),
    ``dvv`` trailing (k, k).  Each output entry may depend only on its
    own time and repetition: the verifier passes one window of one batch
    at a time.
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


def _factor(fu: FactorFunctional, ens: ParticleEnsemble, v: np.ndarray) -> dict:
    # "dt", "dy" and "dyy" are per-time rows for the time and factor terms
    times, y = ens.partition.times[ens.time_points, None], _path_rows(ens.factor, ens.time_points)
    rows = {"value": fu.value, "d1": fu.dv, "d2": fu.dvv, "d1y": fu.dvy, "dt": fu.dt, "dy": fu.dy, "dyy": fu.dyy}
    return {key: row(times, v, y) for key, row in rows.items()}


def verify_factor_model(
    fu: FactorFunctional,
    espec: EnsembleSpec,
    cfg: VerifyConfig,
    name: str = "verify-factor",
) -> VerificationReport:
    """Chain rule for u(t, mu_t, Y_t) with a simulated common factor.

    The factor terms use analytic bracket increments (gamma^2 +
    gamma0^2) dt and the state-factor bracket sigma0 gamma0 dt, both at
    left endpoints.  The cross term is the analytic sigma0 sigma0-hat
    dt, so ``cfg.cross`` must be "analytic".
    """
    if espec.y0 is None:
        raise InvalidArgumentError("factor verification needs y0 in the ensemble spec")
    if cfg.cross != "analytic":
        raise InvalidArgumentError("the factor view takes the analytic cross term only")

    def window(ens):
        # gamma and gamma0 of each (cell, repetition), called on Python floats
        left = list(zip(ens.partition.times[ens.cells].tolist(), _path_rows(ens.factor, ens.cells).tolist()))
        gam = np.array([[ens.coeffs.gamma(t, y) for y in ys] for t, ys in left], dtype=float)
        gam0 = np.array([[ens.coeffs.gamma0(t, y) for y in ys] for t, ys in left], dtype=float)
        dt = ens.deltas[:, None]
        integrands = [
            ("stoch", _Tables.grad_mean, "d1", ens.state_increments(), None),
            ("second", _Tables.hess_mean, "d1", _analytic_bracket(ens), None),
            ("mixed", _Tables.grad_mean, "d1y", ens.sigma0_values * (gam0 * dt)[..., None], None),
            ("cross", _Tables.pair_mean, "d2", ens.sigma0_values, None),
        ]
        return integrands, {"gamma": gam, "gamma0": gam0}

    def assemble(rep):
        dt, y = rep.partition.deltas, rep.factor.values
        d_t, d_y, d_yy = (rep.values[key][0] for key in ("dt", "dy", "dyy"))
        qv_y = (rep.extras["gamma"] ** 2 + rep.extras["gamma0"] ** 2) * dt
        terms = {
            "time": float((d_t[:-1] * dt).sum()),
            "factor_first": float((d_y[:-1] * np.diff(y)).sum()),
            "factor_second": 0.5 * float((d_yy[:-1] * qv_y).sum()),
            "stochastic_integral": float(rep.cells["stoch"][0].sum()),
            "second_order": 0.5 * float(rep.cells["second"][0].sum()),
            "mixed_bracket": float(rep.cells["mixed"][0].sum()),
            "cross": 0.5 * float((rep.cells["cross"][0] * dt).sum()),
        }
        lhs = float(rep.values["value"][0, -1] - rep.values["value"][0, 0])
        return PathRow(lhs, terms, lhs - sum(terms.values()))

    return _verify(name, espec, cfg, [fu], _factor, window, assemble, functional=fu.name)
