"""Payload bytes against a committed record, so a change that moves any
payload byte fails here and not only in a by-hand comparison.

``golden_payloads.json`` holds the sha256 of every payload file of the
reproducibility configs, of one small sweep per non-exact verifier
experiment, of two runs whose sweeps take several windows, of two runs swept
in batches and of two more ``dpp-lq`` runs (the constant control, and a
later start time), and of every config of the benchmark's workloads
(``bench/workloads.py``) at seed 1, so that byte identity at the sizes
the benchmark measures is a test too.  It records the numpy and scipy
versions it was recorded under.  Each batched run's hash was recorded
before its verifier swept in batches (the factor run's before the factor
view batched), so it pins the bytes of the sweep that took one stream at
a time.
Other versions may draw or round differently, so there the test skips.
A change that alters a payload on purpose re-records the file with
``PYTHONPATH=src python tests/test_golden.py`` and says so in CHANGES.md.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy
import pytest
import scipy

from condflow.cli import run
from helpers import REPRO_CONFIGS

RECORD = Path(__file__).with_name("golden_payloads.json")
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
SWEEP_GRID = {"n": [8, 32], "N": [16, 32], "M": [2]}
SWEEP_EXPERIMENTS = (
    "ito-second-moment",
    "wentzell-ablation",
    "wentzell-independent",
    "brownian-corollary",
    "factor-linear",
)
# a batch-of-one window holds max(1, 2**16 // N) cells, so these two runs
# sweep in 4 windows each (the factor run's two repetitions as one batch
# of 16-cell windows), and the factor verifier reads its factor paths
# through later windows; a batch of G streams runs windows of at most
# n // G cells, so the dpp-lq and modulus-lq configs take several windows
# too
WINDOWED_CONFIGS = [
    {"experiment": "ito-second-moment", "seed": 2, "n": 64, "N": 4096, "M": 2},
    {"experiment": "factor-linear", "seed": 2, "n": 64, "N": 2048, "M": 2},
]
# a batch-of-one window would hold all 64 cells, so the first four
# repetitions are one batch in four windows of 16 cells, and the fifth a
# ragged last batch of one stream; the factor run gives each repetition
# of a batch its own factor path
BATCHED_CONFIGS = [
    {"experiment": "brownian-corollary", "seed": 2, "n": 64, "N": 512, "M": 5},
    {"experiment": "factor-linear", "seed": 2, "n": 64, "N": 512, "M": 5},
]
# the constant control reaches AffineFeedback and constant_control_gap, and
# a later start time reads the Riccati coefficients at shifted grid times
DPP_CONFIGS = {
    "dpp-lq constant-max": {"experiment": "dpp-lq", "seed": 7, "n": 16, "N": 32, "M": 4, "control": "constant-max"},
    "dpp-lq t0 0.25": {"experiment": "dpp-lq", "seed": 7, "n": 16, "N": 32, "M": 4, "coefficients": {"t0": 0.25}},
}


def bench_configs(seed: int) -> dict:
    """Every config of the benchmark's workloads at ``seed``, keyed by
    workload, position and experiment; read from ``bench/workloads.py``
    so that the record follows the benchmark."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {
        f"bench {name} {i} {cfg['experiment']}": cfg
        for name in workloads.WORKLOADS
        for i, cfg in enumerate(workloads.configs(name, seed))
    }


CONFIGS = {
    **{cfg["experiment"]: cfg for cfg in REPRO_CONFIGS},
    **DPP_CONFIGS,
    **{f"sweep {name}": {"experiment": name, "seed": 2, "grid": SWEEP_GRID} for name in SWEEP_EXPERIMENTS},
    **{f"windowed {cfg['experiment']}": cfg for cfg in WINDOWED_CONFIGS},
    **{f"batched {cfg['experiment']}": cfg for cfg in BATCHED_CONFIGS},
    **bench_configs(1),
}


def versions() -> dict:
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def payload_hashes(cfg: dict) -> dict:
    _, payloads = run(dict(cfg), write=False)
    return {fname: hashlib.sha256(text.encode()).hexdigest() for fname, text in sorted(payloads.items())}


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_payloads_match_record(key):
    record = json.loads(RECORD.read_text())
    if record["versions"] != versions():
        recorded, here = record["versions"], versions()
        pytest.skip(
            f"hashes recorded under numpy {recorded['numpy']} and scipy {recorded['scipy']}; "
            f"this is numpy {here['numpy']} and scipy {here['scipy']}"
        )
    assert sorted(record["hashes"]) == sorted(CONFIGS)
    assert payload_hashes(CONFIGS[key]) == record["hashes"][key]


if __name__ == "__main__":
    hashes = {key: payload_hashes(cfg) for key, cfg in sorted(CONFIGS.items())}
    RECORD.write_text(json.dumps({"versions": versions(), "hashes": hashes}, indent=1, sort_keys=True) + "\n")
