"""The gate policy: condflow._gate is the one place that computes a
standard error, the 3-SE tolerance and the allowance check, and every
registry experiment's Monte Carlo gates call it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condflow import InvalidArgumentError, NumericOverflowError, _gate
from condflow.cli import run
from condflow.registry import _EXPERIMENTS

from helpers import counted

FINITE = st.floats(-1e100, 1e100, allow_nan=False)


@settings(max_examples=200)
@given(st.lists(FINITE, min_size=2, max_size=40))
def test_mean_se_is_the_replaced_expressions(values):
    # the sites computed float(x.mean()) and float(x.std(ddof=1) / sqrt(M))
    x = np.array(values)
    mean, se = _gate.mean_se(x)
    assert mean.hex() == float(x.mean()).hex()
    assert se.hex() == float(x.std(ddof=1) / np.sqrt(x.size)).hex()
    assert _gate.mean_se(values) == (mean, se)


def test_mean_se_of_one_value_has_no_standard_error():
    assert _gate.mean_se(np.array([2.5])) == (2.5, 0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_mean_se_refuses_a_non_finite_value(bad):
    for values in ([bad], [1.0, bad, -2.0]):
        with pytest.raises(NumericOverflowError):
            _gate.mean_se(np.array(values))


@given(st.floats(0.0, 1e300), st.floats(0.0, 1e300))
def test_tolerance_is_three_standard_errors_plus_the_allowance(se, allowance):
    assert _gate.tolerance(se).hex() == (3.0 * se).hex()
    assert _gate.tolerance(se, allowance).hex() == (3.0 * se + allowance).hex()


def test_require_allowance_refuses_gates_that_cannot_pass_or_fail():
    for bad in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(InvalidArgumentError, match="tol"):
            _gate.require_allowance("tol", bad)
    for good in (0.0, 2.0, 1e300):
        _gate.require_allowance("tol", good)


TINY_CHAIN = {"n": 8, "N": 8, "M": 2}
# (config, (mean_se, tolerance, require_allowance) calls); the chain-rule
# configs allow C and the exact floor, lq-common-noise checks the HJB tol
# twice and runs three DPP checks
ROUTES = [
    ({"experiment": "ito-telescoping", **TINY_CHAIN}, (2, 0, 2)),
    ({"experiment": "ito-second-moment", **TINY_CHAIN}, (2, 1, 2)),
    ({"experiment": "wentzell-ablation", **TINY_CHAIN}, (3, 2, 2)),
    ({"experiment": "wentzell-independent", **TINY_CHAIN}, (3, 2, 2)),
    ({"experiment": "brownian-corollary", **TINY_CHAIN}, (2, 2, 2)),
    ({"experiment": "factor-linear", **TINY_CHAIN}, (2, 2, 2)),
    ({"experiment": "dpp-lq", "control": "optimal", "n": 8, "N": 16, "M": 2}, (1, 1, 1)),
    ({"experiment": "dpp-lq", "control": "constant-max", "n": 8, "N": 16, "M": 2}, (1, 1, 1)),
    (
        {"experiment": "lq-common-noise", "coefficients": {"mc_particles": 16, "mc_cells": 8, "mc_paths": 2}},
        (3, 3, 5),
    ),
    # one gate per pair, and one study row per cell count of each of the two studies
    ({"experiment": "modulus-lq", "n": 16, "N": 8, "coefficients": {"repeats": 2, "num_pairs": 3}}, (3, 3, 0)),
    ({"experiment": "lemma-qv-bm", "coefficients": {"cell_counts": [16, 64], "num_seeds": 4}}, (4, 0, 0)),
    ({"experiment": "deriv-battery"}, (0, 0, 0)),
]


def test_routes_cover_every_experiment():
    assert {cfg["experiment"] for cfg, _ in ROUTES} == set(_EXPERIMENTS)


IDS = [cfg["experiment"] + ("-" + cfg["control"] if "control" in cfg else "") for cfg, _ in ROUTES]


@pytest.mark.parametrize("cfg, calls", ROUTES, ids=IDS)
def test_every_gate_calls_the_policy(monkeypatch, cfg, calls):
    # a site that computes its own standard error or factor 3 drops a call
    seen = [counted(monkeypatch, _gate, name) for name in ("mean_se", "tolerance", "require_allowance")]
    run({**cfg, "seed": 3}, write=False)
    assert tuple(len(c) for c in seen) == calls
