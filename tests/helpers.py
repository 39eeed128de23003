"""Shared oracles and fixtures for the test suite.

The oracles are deliberately brute force and kept independent of the
library code paths they check.
"""

import numpy as np

from condflow.mfc import LqValue


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


def zero_value() -> LqValue:
    """The value candidate V = 0 (P = R = c = 0 with zero constants)."""
    ts = np.array([0.0, 1.0])
    zero = np.zeros(2)
    consts = {"q": 0.0, "r": 0.0, "sigma": 0.0, "sigma0": 0.0}
    return LqValue(ts, zero, zero.copy(), zero.copy(), consts, 0.0)


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
