import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import condflow
from condflow import InvalidArgumentError, list_registry
from condflow.cli import UsageError, load_config, main, resolve_params, run
from condflow.registry import _EXPERIMENTS, _FUNCTIONALS, get_experiment

from helpers import REPRO_CONFIGS


def small_config(**overrides):
    cfg = {"experiment": "ito-telescoping", "seed": 11, "n": 16, "N": 32, "M": 3}
    cfg.update(overrides)
    return cfg


def test_registry_contains_expected_names():
    names = list_registry()
    assert "mean-squared" in names
    assert "lq-common-noise" in names
    assert names == sorted(names)
    assert names == list_registry()  # stable across calls
    # every name is something a run reaches: an experiment, or a
    # functional whose derivatives deriv-battery checks
    _, payloads = run({"experiment": "deriv-battery", "seed": 7}, write=False)
    checked = json.loads(payloads["report.json"])["quadrature_gaps"]
    for name in names:
        if name not in checked:
            get_experiment(name)


def test_registry_rejects_unknown_names():
    with pytest.raises(InvalidArgumentError):
        get_experiment("no-such-experiment")


def test_resolve_rejects_unknown_keys():
    with pytest.raises(UsageError):
        resolve_params(small_config(banana=1))
    with pytest.raises(UsageError):
        resolve_params(small_config(tolerance={"weird": 2}))
    with pytest.raises(UsageError):
        resolve_params(small_config(coefficients={"zeta": 2}))
    with pytest.raises(UsageError):  # no experiment takes a functional
        resolve_params(small_config(functional="mean"))
    with pytest.raises(UsageError):
        resolve_params({"experiment": "ito-telescoping"})  # missing seed
    with pytest.raises(UsageError):
        resolve_params({"seed": 3})  # missing experiment


def test_resolve_applies_overrides():
    name, seed, params, extras = resolve_params(
        small_config(coefficients={"sigma0": 2.0}, tolerance={"tol_exact": 1e-9})
    )
    assert name == "ito-telescoping"
    assert seed == 11
    assert params["n"] == 16 and params["N"] == 32 and params["M"] == 3
    assert params["sigma0"] == 2.0
    assert params["tol_exact"] == 1e-9


def test_run_writes_files_and_passes(tmp_path):
    code, payloads = run(small_config(), out_dir=tmp_path)
    assert code == 0
    for fname in ("report.json", "terms.csv", "manifest.json"):
        assert (tmp_path / fname).exists()
        assert (tmp_path / fname).read_text() == payloads[fname]
    manifest = json.loads(payloads["manifest.json"])
    assert manifest["passed"] is True
    assert manifest["streams"]["root"] == [11, 0]


def test_run_is_byte_deterministic(tmp_path):
    _, first = run(small_config(), write=False)
    _, second = run(small_config(), write=False)
    assert first == second


def test_manifest_replay_reproduces_payloads(tmp_path):
    code, payloads = run(small_config(), out_dir=tmp_path)
    assert code == 0
    replayed = load_config(tmp_path / "manifest.json")
    code2, payloads2 = run(replayed, write=False)
    assert code2 == 0
    assert payloads2["report.json"] == payloads["report.json"]
    assert payloads2["terms.csv"] == payloads["terms.csv"]


def test_failing_tolerance_still_writes_report(tmp_path):
    # C = 0 makes the statistical budget collapse; the mean absolute
    # residual of a noisy instance cannot beat 3 SE alone
    cfg = {
        "experiment": "ito-second-moment",
        "seed": 5,
        "n": 64,
        "N": 64,
        "M": 16,
        "tolerance": {"C": 0.0},
    }
    code, payloads = run(cfg, out_dir=tmp_path)
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is False
    assert (tmp_path / "terms.csv").exists()


def test_sweep_through_run(tmp_path):
    # telescoping residuals sit at roundoff, so no ratio is checked and the
    # sweep fails rather than passing by default
    cfg = small_config(grid={"n": [8, 32]})
    code, payloads = run(cfg, out_dir=tmp_path)
    assert code == 1
    assert json.loads(payloads["report.json"])["passed"] is False
    lines = payloads["sweep.csv"].strip().splitlines()
    assert lines[0].startswith("n,N,M,mean_abs_residual")
    assert len(lines) == 3


def test_sweep_without_a_quadrupled_pair_fails(tmp_path):
    cfg = small_config(experiment="ito-second-moment", grid={"n": [8, 16]})
    code, payloads = run(cfg, out_dir=tmp_path)
    assert code == 1
    assert [line.split(",")[-1] for line in payloads["sweep.csv"].strip().splitlines()[1:]] == ["", ""]


def test_threads_flag_is_gone(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(small_config(out=str(tmp_path / "out"), grid={"n": [8, 32]})))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg_path), "--threads", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_cli_main_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(small_config(out=str(tmp_path / "out"))))
    assert main(["verify-ito", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "report.json").exists()

    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(small_config(nonsense=1)))
    assert main(["verify-ito", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "nonsense" in err

    # subcommand/experiment family mismatch is a usage error
    wrong = tmp_path / "wrong.yaml"
    wrong.write_text(yaml.safe_dump(small_config()))
    assert main(["verify-wentzell", "--config", str(wrong)]) == 2


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"experiment": "ito-telescoping", "n": 8, "N": 16, "M": 2}))
    # no seed anywhere -> usage error
    assert main(["verify-ito", "--config", str(cfg_path)]) == 2
    assert main(["verify-ito", "--config", str(cfg_path), "--seed", "3", "--out", str(tmp_path / "o")]) == 0


def test_lq_common_noise_spot_times_scale_with_the_horizon(tmp_path):
    # fixed spot times would put t0 = 0.5 past a horizon of 0.4
    out = tmp_path / "out"
    cfg = {
        "experiment": "lq-common-noise",
        "seed": 7,
        "horizon": 0.4,
        "coefficients": {"mc_particles": 64, "mc_cells": 16, "mc_paths": 4},
        "out": str(out),
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert main(["hjb-lq", "--config", str(cfg_path)]) == 0
    rows = (out / "mc_cross_check.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.25 * 0.4, 0.5 * 0.4]


def test_unperturbed_candidate_is_not_discriminative(tmp_path):
    # a zero perturbation leaves the base candidate, whose residual clears
    # a zero floor; the check must still fail, since the HJB gate passes it
    out = tmp_path / "out"
    cfg = {
        "experiment": "lq-common-noise",
        "seed": 7,
        "coefficients": {"perturbation": 0.0, "mc_particles": 64, "mc_cells": 16, "mc_paths": 4},
        "tolerance": {"perturbation_floor": 0.0},
        "out": str(out),
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert main(["hjb-lq", "--config", str(cfg_path)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["perturbed_max_residual"] <= report["tol_hjb"]
    assert report["discriminative"] is False
    assert report["passed"] is False


@pytest.mark.parametrize("experiment, key", [("deriv-battery", "quadrature_tol"), ("lemma-qv-bm", "l1_threshold")])
def test_a_threshold_equal_to_its_statistic_passes(experiment, key):
    # the gates compare with <=, so a threshold may be met exactly; at seed
    # 3 the largest polynomial quadrature gap is a few ulps, not 0
    code, payloads = run({"experiment": experiment, "seed": 3}, write=False)
    assert code == 0
    report = json.loads(payloads["report.json"])
    if experiment == "deriv-battery":
        polynomial = [name for name, make in _FUNCTIONALS.items() if make().outer.polynomial]
        statistic = max(report["quadrature_gaps"][name] for name in polynomial)
    else:
        statistic = max(study["final_error"] for study in report["studies"].values())
    assert statistic > 0.0
    code, _ = run({"experiment": experiment, "seed": 3, "tolerance": {key: statistic}}, write=False)
    assert code == 0


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "mean-squared" in out
    assert "lq-common-noise" in out


def test_cli_import_and_run_leave_scipy_unloaded():
    # a fresh interpreter, so modules that other tests imported do not
    # count; the run reaches ndtr (the HJB sup) and ndtri (the Gaussian
    # quantile atoms), which condflow ports instead of importing scipy
    src = str(Path(condflow.__file__).resolve().parents[1])
    config = {"experiment": "lq-common-noise", "seed": 7, "coefficients": {"mc_particles": 64, "mc_cells": 16, "mc_paths": 4}}
    code = f"""
import sys
from condflow import cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()
assert cli.run({config!r}, write=False)[0] == 0
assert not scipy_modules(), scipy_modules()
"""
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_repro_runs_leave_numpy_ma_unloaded():
    # np.quantile imports numpy.ma on its first call in a process, about
    # 15 ms inside a run's wall time; a fresh interpreter, so modules that
    # other tests imported do not count
    src = str(Path(condflow.__file__).resolve().parents[1])
    code = f"""
import sys
from condflow import cli

assert "numpy.ma" not in sys.modules
for config in {REPRO_CONFIGS!r}:
    cli.run(config, write=False)
assert "numpy.ma" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_default_experiment_requires_seed(tmp_path):
    assert main(["verify-ito", "--out", str(tmp_path)]) == 2
    assert main(["deriv-check", "--seed", "9", "--out", str(tmp_path / "d")]) == 0


@pytest.mark.parametrize(
    "override",
    [
        {"seed": -1},
        {"seed": True},
        {"n": 0},
        {"N": 1},
        {"horizon": -1},
        {"n": "abc"},
        {"experiment": "ito-second-moment", "M": 1},
        {"experiment": "wentzell-ablation", "M": 1},
        {"experiment": "modulus-lq", "n": 1, "N": 8, "M": None},
        {"threads": "abc"},
        {"threads": 0},
        {"coefficients": {"sigma0": "abc"}},
        {"grid": {"n": ["abc"]}},
        {"experiment": "dpp-lq", "control": "constant-max", "M": 1, "n": 64, "N": 128},
        {"experiment": "lq-common-noise", "n": None, "N": None, "M": None, "coefficients": {"mc_paths": 1}},
        {"threads": 2},
        {"out": 5},
        {"experiment": "modulus-lq", "n": 16, "N": 8, "M": None, "coefficients": {"num_pairs": 0}},
        {"experiment": "modulus-lq", "n": 16, "N": 8, "M": None, "coefficients": {"num_pairs": -3}},
        {"experiment": "modulus-lq", "n": 16, "N": 8, "M": None, "coefficients": {"repeats": 1}},
        {"experiment": "lemma-qv-bm", "n": None, "N": None, "M": None, "coefficients": {"num_seeds": 1}},
        {"experiment": "lemma-qv-bm", "n": None, "N": None, "M": None, "coefficients": {"num_seeds": 0}},
        {"experiment": "lemma-qv-bm", "n": None, "N": None, "M": None, "coefficients": {"cell_counts": [16, 0]}},
        {"experiment": "lq-common-noise", "n": None, "N": None, "M": None, "coefficients": {"mc_cells": 0}},
        {"experiment": "lq-common-noise", "n": None, "N": None, "M": None, "coefficients": {"mc_particles": 1}},
        {"experiment": "deriv-battery", "n": None, "N": None, "M": None, "coefficients": {"eps_list": [0.1]}},
        {"experiment": "deriv-battery", "n": None, "N": None, "M": None, "coefficients": {"eps_list": []}},
        {"experiment": "ito-second-moment", "n": 8, "N": 8, "M": 2, "tolerance": {"C": math.inf}},
        {"experiment": "ito-second-moment", "n": 8, "N": 8, "M": 2, "tolerance": {"C": math.nan}},
        {"experiment": "dpp-lq", "n": 16, "N": 32, "M": 4, "coefficients": {"theta": 3.0}},
        {"experiment": "dpp-lq", "n": 16, "N": 32, "M": 4, "coefficients": {"t0": -2.0}},
        # a state that overflows in the sweep, and finite states whose terms overflow
        {"experiment": "ito-second-moment", "seed": 1, "n": 64, "N": 8, "M": 2, "coefficients": {"sigma": 1.7e308}},
        {"experiment": "ito-second-moment", "seed": 1, "n": 8, "N": 8, "M": 2, "coefficients": {"sigma": 1.0e300}},
        # sigma**2 overflows in the Riccati solve and in the modulus bound
        {"experiment": "lq-common-noise", "seed": 1, "n": None, "N": None, "M": None, "coefficients": {"sigma": 1.0e300}},
        {"experiment": "dpp-lq", "seed": 1, "n": 8, "N": 16, "M": 2, "coefficients": {"sigma": 1.0e300}},
        {
            "experiment": "modulus-lq",
            "seed": 1,
            "n": 16,
            "N": 8,
            "M": None,
            "coefficients": {"sigma": 1.0e300, "repeats": 2, "num_pairs": 3},
        },
        # a non-verifier runner whose table holds non-finite numbers
        {
            "experiment": "modulus-lq",
            "seed": 1,
            "n": 16,
            "N": 8,
            "M": None,
            "coefficients": {"b": 1.0e308, "repeats": 2, "num_pairs": 3},
        },
        # mean**2 overflows in the DPP running reward
        {
            "experiment": "dpp-lq",
            "seed": 1,
            "n": 8,
            "N": 16,
            "M": 4,
            "control": "constant-max",
            "coefficients": {"mean0": 1.0e200},
        },
        # a negative allowance is a gate that cannot pass
        {"experiment": "dpp-lq", "n": 16, "N": 32, "M": 4, "tolerance": {"C": -5.0}},
        {"experiment": "lq-common-noise", "n": None, "N": None, "M": None, "tolerance": {"tol_hjb": -1e-4}},
        # and so it is under coefficients
        {"experiment": "wentzell-ablation", "n": 16, "N": 8, "M": 4, "coefficients": {"C": -5.0}},
        {"experiment": "ito-telescoping", "coefficients": {"tol_exact": -1.0}},
    ],
)
def test_bad_input_exits_2_and_writes_nothing(tmp_path, override):
    out = tmp_path / "out"
    # an override of None drops that key of the small config
    cfg = {k: v for k, v in {**small_config(out=str(out)), **override}.items() if v is not None}
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    command = "sweep" if "grid" in cfg else get_experiment(cfg["experiment"]).kind
    assert main([command, "--config", str(cfg_path)]) == 2
    assert not out.exists()


SCALARS = st.one_of(st.integers(-5, 2**40), st.floats(), st.booleans(), st.text(max_size=4), st.none())
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_EXPERIMENTS)), st.data())
def test_resolve_params_returns_or_raises_usage_error(experiment, data):
    defaults = get_experiment(experiment).defaults
    cfg = {"experiment": experiment, "seed": data.draw(VALUES)}
    for key in ("n", "N", "M", "horizon", "out"):
        if data.draw(st.booleans()):
            cfg[key] = data.draw(VALUES)
    cfg["coefficients"] = {data.draw(st.sampled_from(sorted(defaults))): data.draw(VALUES)}
    try:
        _, seed, params, extras = resolve_params(cfg)
    except UsageError:
        return
    assert type(seed) is int and type(extras["out"]) in (str, type(None))
    for key, default in defaults.items():
        assert type(params[key]) is type(default) or (type(default) is float and type(params[key]) is int)
        values = params[key] if isinstance(params[key], list) else [params[key]]
        assert all(math.isfinite(v) for v in values if isinstance(v, float))
