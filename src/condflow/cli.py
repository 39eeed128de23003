"""Command-line runner: named experiments, seeded execution, report files.

Every run writes a JSON report, CSV term tables, and a manifest echoing
the resolved configuration; re-running a manifest reproduces the numeric
payloads byte for byte.  Exit status is 0 when all pass flags are set,
1 on a tolerance violation (reports are still written), and 2 on usage
errors and on runs whose numbers overflow (nothing is written): every
number of a report and its tables must be finite.  The
``sweep`` subcommand runs a verifier over a grid of (n, N, M) cells
through the package's one refinement study,
:func:`condflow.quadvar.convergence_study`; it passes only when at least
one error ratio was checked and every checked ratio is in band.  A
cell's own pass flag does not count: the sweep asks only whether the
error falls at the expected rate, its grid may hold cells too coarse or
with too few repetitions for a single-run gate to mean anything, and each
cell's own verdict is what a plain run of that cell's config reports.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BlowUpError, InvalidArgumentError, NumericOverflowError
from .output import csv_text, json_text
from .paths import RngStream
from .quadvar import convergence_study
from .registry import get_experiment, list_registry

__all__ = ["load_config", "resolve_params", "run", "main", "UsageError"]

USAGE_EXIT = 2
FAILURE_EXIT = 1

_SUBCOMMAND_DEFAULTS = {
    "verify-ito": "ito-telescoping",
    "verify-wentzell": "wentzell-ablation",
    "verify-brownian": "brownian-corollary",
    "verify-factor": "factor-linear",
    "lemma-qv": "lemma-qv-bm",
    "deriv-check": "deriv-battery",
    "hjb-lq": "lq-common-noise",
    "dpp-check": "dpp-lq",
    "modulus": "modulus-lq",
}

_TOLERANCE_KEYS = {"C", "tol_hjb", "tol_exact", "perturbation_floor", "quadrature_tol", "l1_threshold"}
_TOP_KEYS = {"experiment", "seed", "out", "n", "N", "M", "horizon", "tolerance", "coefficients", "control", "grid"}
# least value of each integer parameter: pair terms need two particles (N,
# mc_particles), a standard error needs two draws (repeats, num_seeds,
# mc_paths), and a gate over an empty loop (num_pairs, mc_cells) checks nothing
_INT_MINIMUM = {
    "seed": 0,
    "n": 1,
    "N": 2,
    "M": 1,
    "num_pairs": 1,
    "repeats": 2,
    "num_seeds": 2,
    "mc_paths": 2,
    "mc_cells": 1,
    "mc_particles": 2,
}


class UsageError(Exception):
    pass


def _check_int(key: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise UsageError(f"{key} must be an integer >= {least}, got {value!r}")


def _fits(value, default) -> bool:
    """Whether ``value`` has the type of a registry default: a bool is not a
    number, an int stands for a float, a float must be finite, and a list
    matches element by element."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, float) and not isinstance(value, bool):
        # NaN fails every comparison; an int compares exactly, so one too
        # large for a float fails as well
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return type(value) is type(default)


def load_config(path: str | Path) -> dict:
    """Read a YAML config; a manifest (with a ``config`` key) replays its echo."""
    import yaml  # here, not at module level: a run from a dict reads no YAML

    try:
        raw = yaml.safe_load(Path(path).read_text())
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from exc
    except yaml.YAMLError as exc:
        raise UsageError(f"malformed config: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config must be a mapping")
    if "config" in raw and isinstance(raw["config"], dict):
        return raw["config"]
    return raw


def resolve_params(config: dict) -> tuple[str, int, dict, dict]:
    """Validate a config against its experiment's parameter set.

    Returns (experiment name, seed, resolved params, extras) where extras
    carries out/grid.  Unknown keys anywhere, a value whose type differs
    from its registry default, a float (or list element) that is infinite
    or NaN, a negative tolerance, an out that is not a string, and an integer
    (:data:`_INT_MINIMUM`, each ``cell_counts`` element) or a horizon out
    of range are usage errors.
    """
    unknown = set(config) - _TOP_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if "experiment" not in config:
        raise UsageError("config must name an experiment")
    if "seed" not in config:
        raise UsageError("config must carry a seed (no wall-clock default)")
    name = config["experiment"]
    if not isinstance(name, str):
        raise UsageError(f"experiment must be a name, got {name!r}")
    try:
        exp = get_experiment(name)
    except InvalidArgumentError as exc:
        raise UsageError(str(exc)) from exc
    params = dict(exp.defaults)

    def apply(key, value):
        if key not in params:
            raise UsageError(f"experiment {name!r} does not accept parameter {key!r}")
        if not _fits(value, exp.defaults[key]):
            raise UsageError(
                f"{key} must have the type of its default {exp.defaults[key]!r} and be finite, got {value!r}"
            )
        params[key] = value

    for key in ("n", "N", "M", "horizon", "control"):
        if key in config:
            apply(key, config[key])
    tol = config.get("tolerance", {})
    if not isinstance(tol, dict):
        raise UsageError("tolerance must be a mapping")
    for key, value in tol.items():
        if key not in _TOLERANCE_KEYS:
            raise UsageError(f"unknown tolerance key {key!r}")
        apply(key, value)
    coeffs = config.get("coefficients", {})
    if not isinstance(coeffs, dict):
        raise UsageError("coefficients must be a mapping")
    for key, value in coeffs.items():
        apply(key, value)
    # whichever mapping set it, a negative allowance is a gate that cannot pass
    for key in sorted(_TOLERANCE_KEYS & params.keys()):
        if params[key] < 0:
            raise UsageError(f"tolerance {key} must be nonnegative, got {params[key]!r}")
    checked = {**params, "seed": config["seed"]}
    for key, least in _INT_MINIMUM.items():
        _check_int(key, checked.get(key, least), least)
    for count in params.get("cell_counts", []):
        _check_int("cell_counts element", count, 1)
    horizon = params.get("horizon", 1.0)
    if not horizon > 0:  # its type and finiteness were checked against the default
        raise UsageError(f"horizon must be positive, got {horizon!r}")
    if "out" in config and not isinstance(config["out"], str):
        raise UsageError(f"out must be a directory name, got {config['out']!r}")
    extras = {"out": config.get("out"), "grid": config.get("grid")}
    return name, config["seed"], params, extras


def _finite(obj) -> bool:
    """Whether every number in a report or a table is finite."""
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return _finite(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        return math.isfinite(obj)
    return True


def _run_sweep(name: str, params: dict, rng: RngStream, grid: dict):
    exp = get_experiment(name)
    if exp.kind not in ("verify-ito", "verify-wentzell", "verify-brownian", "verify-factor"):
        raise UsageError("sweep needs a verification experiment")
    if not isinstance(grid, dict) or not grid:
        raise UsageError("sweep needs a nonempty grid mapping")
    unknown = set(grid) - {"n", "N", "M"}
    if unknown:
        raise UsageError(f"unknown grid keys: {sorted(unknown)}")
    axes = {key: grid.get(key, [params[key]]) for key in ("n", "N", "M")}
    for key, values in axes.items():
        if not isinstance(values, list) or not values:
            raise UsageError(f"grid {key} must be a nonempty list")
        for value in values:
            _check_int(f"grid {key}", value, _INT_MINIMUM[key])
    ns, big_ns, ms = axes["n"], axes["N"], axes["M"]
    cells = [(n, bn, m) for bn in big_ns for m in ms for n in ns]

    def run_cell(i, cell):
        n, bn, m = cell
        aggregate = exp.runner(dict(params, n=n, N=bn, M=m), rng.child(i)).report["aggregate"]
        return aggregate["mean_abs_residual"], aggregate["se_abs_residual"]

    study = convergence_study(run_cell, cells)
    header = ["n", "N", "M", "mean_abs_residual", "stderr", "ratio", "ratio_flag"]
    rows = []
    for r in study.rows:
        ratio = r.ratio_vs_coarser if r.ratio_vs_coarser is not None else ""
        rows.append([*r.cell, r.mean_abs_error, r.stderr, ratio, r.flag])
    report = {"experiment": name, "mode": "sweep", "passed": study.passed}
    return study.passed, report, {"sweep.csv": (header, rows)}


def run(config: dict, out_dir: str | Path | None = None, write: bool = True):
    """Execute a config; returns (exit_code, payloads) with file contents.

    ``payloads`` maps file names to their exact text, so callers can
    check reproducibility without touching the filesystem.
    """
    name, seed, params, extras = resolve_params(config)
    rng = RngStream(seed, 0)
    if extras["grid"] is not None:
        passed, report, tables = _run_sweep(name, params, rng, extras["grid"])
    else:
        out = get_experiment(name).runner(params, rng)
        passed, report, tables = out.passed, out.report, out.tables
    # a non-finite number passes no gate for the right reason and is not valid JSON
    if not _finite([report, [rows for _, rows in tables.values()]]):
        raise NumericOverflowError(f"{name} produced a non-finite number")
    manifest = {
        "version": __version__,
        "config": config,
        "resolved_params": params,
        "streams": {"root": rng.key()},
        "outputs": sorted(["report.json", *tables.keys(), "manifest.json"]),
        "passed": passed,
    }
    payloads = {"report.json": json_text(report)}
    for fname, (header, rows) in tables.items():
        payloads[fname] = csv_text(header, rows)
    payloads["manifest.json"] = json_text(manifest)
    if write:
        target = Path(out_dir or extras["out"] or Path("out") / name)
        target.mkdir(parents=True, exist_ok=True)
        for fname, text in payloads.items():
            (target / fname).write_text(text)
    return (0 if passed else FAILURE_EXIT), payloads


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="condflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in [*sorted(_SUBCOMMAND_DEFAULTS), "sweep"]:
        p = sub.add_parser(cmd)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
    sub.add_parser("list")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in list_registry():
            print(name)
        return 0
    try:
        if args.config is not None:
            config = load_config(args.config)
        else:
            if args.command == "sweep":
                raise UsageError("sweep requires --config with a grid")
            config = {"experiment": _SUBCOMMAND_DEFAULTS[args.command]}
        if args.seed is not None:
            config["seed"] = args.seed
        if args.out is not None:
            config["out"] = args.out
        name, _, _, _ = resolve_params(config)
        expected_kind = None if args.command == "sweep" else args.command
        if expected_kind is not None and get_experiment(name).kind != expected_kind:
            raise UsageError(
                f"experiment {name!r} belongs to subcommand {get_experiment(name).kind!r}"
            )
        if args.command == "sweep" and config.get("grid") is None:
            raise UsageError("sweep requires a grid in the config")
        code, _ = run(config)
        return code
    except (UsageError, InvalidArgumentError, BlowUpError, NumericOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
