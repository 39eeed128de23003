"""Shared oracles and fixtures for the test suite.

The oracles are deliberately brute force and kept independent of the
library code paths they check: the double-loop pair average, the tanh
Riccati solution, the hand-integrated constant-control gap, and
:func:`generator_atom_average`, the atom-cloud route of the LQ generator
that the Gaussian-surrogate generator ``mfc._lq_generator_grid`` is
checked against.  :func:`set_window`, :func:`sweep_windows` and
:func:`whole_run` drive the particle sweep's one window rule, and
:func:`counted` records the calls of a library function wherever a
condflow module binds it.  :func:`bench_configs` reads the benchmark's
workload configs at a seed.
"""

import importlib.util
import inspect
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from condflow import particle
from condflow.mfc import LqValue
from condflow.particle import Sweep, simulate_ensemble


def pair_average_bruteforce(f: np.ndarray, g: np.ndarray) -> float:
    """Average of f_i g_j over ordered pairs of distinct indices, by double loop."""
    n = len(f)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += float(f[i]) * float(g[j])
    return total / (n * (n - 1))


def riccati_closed_form(q: float, terminal: float, horizon: float, ts: np.ndarray) -> np.ndarray:
    """tanh solution of dP/dt = q/2 - 2 P^2 with P(horizon) = terminal.

    Valid for |2 terminal / sqrt(q)| < 1 (the regime of the test instances).
    """
    root = 0.5 * np.sqrt(q)
    theta_t = np.arctanh(2.0 * terminal / np.sqrt(q))
    return root * np.tanh(np.sqrt(q) * (np.asarray(ts) - horizon) + theta_t)


def constant_gap_closed_form(
    q: float,
    r: float,
    c_g: float,
    c_m: float,
    sigma: float,
    sigma0: float,
    a: float,
    tau: float,
):
    """Hand-integrated linear-ansatz coefficients for a constant control on
    the final stretch of length tau (terminal condition = terminal reward)."""
    p_w = -0.5 * c_g - 0.5 * q * tau
    r_w = -0.5 * c_m - 0.5 * r * tau
    s_w = -a * (c_m * tau + 0.5 * r * tau**2)
    c_w = (
        -0.5 * a**2 * tau
        - a**2 * (0.5 * c_m * tau**2 + r * tau**3 / 6.0)
        - sigma**2 * (0.5 * c_g * tau + 0.25 * q * tau**2)
        - sigma0**2 * (0.5 * c_m * tau + 0.25 * r * tau**2)
    )
    return p_w, r_w, s_w, c_w


def generator_atom_average(problem, value, t: float, m, control) -> float:
    """Reward-augmented generator of the LQ value candidate at the atom
    cloud ``m`` under the feedback ``control(t, x, m)``.

    The time slope, the reward and the drift integral are atom averages
    over the cloud; the second-order terms are the constants
    P (sigma^2 + sigma0^2) + sigma0^2 (R - P) of the quadratic ansatz.
    """
    x = m.atoms
    a = np.asarray(control(t, x, m), dtype=float)
    assert np.max(np.abs(a)) <= problem.a_max + 1e-12, "control values escape the control set"
    consts = problem.constants
    sigma, sigma0 = consts["sigma"], consts["sigma0"]
    qc = value.quad_coeffs(t)
    mu = m.average(x)
    var = m.average((x - mu) ** 2)
    f_vals = -0.5 * a**2 - 0.5 * consts["q"] * (x - mu) ** 2 - 0.5 * consts["r"] * mu**2
    total = qc["dP"] * var + qc["dR"] * mu**2 + qc["dc"]
    total += m.average(f_vals)
    total += m.average(a * value.d_lions(t, m, x))
    total += qc["P"] * (sigma**2 + sigma0**2) + sigma0**2 * (qc["R"] - qc["P"])
    return float(total)


def zero_value() -> LqValue:
    """The value candidate V = 0 (P = R = c = 0)."""
    ts = np.array([0.0, 1.0])
    zero = np.zeros(2)
    return LqValue(ts, zero, zero.copy(), zero.copy(), 0.0)


def set_window(monkeypatch, cells: int, streams: int, particles: int) -> None:
    """Set the sweep's budget to ``cells`` x ``streams`` x ``particles``
    elements, so that a batch of ``streams`` streams of ``particles``
    particles runs windows of ``cells`` cells on a grid of at least
    ``cells * streams`` cells (a shorter grid of n cells gives windows
    of n // streams)."""
    monkeypatch.setattr(particle, "_WINDOW_ELEMENTS", cells * streams * particles)


def sweep_windows(*args, **kwargs) -> list:
    """Every window of one :class:`Sweep` made from these arguments."""
    sweep = Sweep(*args, **kwargs)
    windows = []
    while not sweep.done:
        windows.append(simulate_ensemble(sweep))
    return windows


def at_particles(ens, name: str) -> np.ndarray:
    """The ensemble's per-cell array ``name``, such as ``drift_values``,
    broadcast to its (cells, M, N) particle steps."""
    return np.broadcast_to(getattr(ens, name), ens.idio_increments.shape)


def whole_run(*args, **kwargs):
    """One sweep run to its end (arguments as :func:`sweep_windows`), its
    windows joined into one ensemble that covers every cell."""
    windows = sweep_windows(*args, **kwargs)
    last = windows[-1]
    names = ["idio_increments", "drift_values", "sigma_values", "sigma0_values"]
    joined = {name: np.concatenate([getattr(w, name) for w in windows]) for name in names}
    states = np.concatenate([windows[0].states[:1]] + [w.states[1:] for w in windows])
    return replace(last, states=states, first_cell=0, **joined)


# one small config per experiment family, run twice by criterion 9 and
# hashed against a committed record by test_golden
REPRO_CONFIGS = [
    {"experiment": "ito-telescoping", "seed": 7, "n": 16, "N": 32, "M": 3},
    {"experiment": "ito-second-moment", "seed": 7, "n": 64, "N": 128, "M": 8},
    {"experiment": "wentzell-ablation", "seed": 7, "n": 64, "N": 16, "M": 8},
    {"experiment": "wentzell-independent", "seed": 7, "n": 32, "N": 16, "M": 4},
    {"experiment": "brownian-corollary", "seed": 7, "n": 64, "N": 16, "M": 8},
    {"experiment": "factor-linear", "seed": 7, "n": 64, "N": 16, "M": 8},
    {"experiment": "lemma-qv-bm", "seed": 7, "coefficients": {"cell_counts": [64, 256], "num_seeds": 20}},
    {"experiment": "deriv-battery", "seed": 7},
    {
        "experiment": "lq-common-noise",
        "seed": 7,
        "coefficients": {"mc_particles": 64, "mc_cells": 16, "mc_paths": 4},
    },
    {"experiment": "dpp-lq", "seed": 7, "n": 16, "N": 32, "M": 4},
    {
        "experiment": "modulus-lq",
        "seed": 7,
        "n": 32,
        "N": 32,
        "coefficients": {"repeats": 4, "num_pairs": 5},
    },
]


def counted(monkeypatch, module, name):
    """Replace ``module.name`` at every condflow module attribute that
    refers to it, as the benchmark's span tracer does, by one wrapper that
    records each call's bound arguments and its result."""
    calls = []
    original = getattr(module, name)
    signature = inspect.signature(original)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((signature.bind(*args, **kwargs).arguments, result))
        return result

    holders = [m for key, m in sys.modules.items() if key == "condflow" or key.startswith("condflow.")]
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is original:
                monkeypatch.setattr(holder, key, wrapper)
    return calls


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


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
