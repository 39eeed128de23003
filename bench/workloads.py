"""The benchmark's workloads: lists of condflow configs made from a seed.

Each registry experiment runs in exactly one workload.  Problem sizes
(n, N) are the ones the workload is named for; only the repetition count M
is lowered where a run would otherwise be too long for several samples per
measurement.  README.md gives the reason for each workload.
"""

import copy

WORKLOADS = {
    "ito-large-N": [
        {"experiment": "ito-second-moment", "n": 1024, "N": 4096, "M": 6},
    ],
    "field-small-N": [
        {"experiment": "ito-telescoping"},
        {"experiment": "wentzell-ablation"},
        {"experiment": "wentzell-independent"},
        {"experiment": "brownian-corollary"},
        {"experiment": "factor-linear"},
    ],
    "lq-control": [
        {"experiment": "lq-common-noise"},
        {"experiment": "dpp-lq", "control": "optimal", "M": 16},
        {"experiment": "dpp-lq", "control": "constant-max", "M": 16},
    ],
    "qv-refine": [
        {"experiment": "lemma-qv-bm"},
        {"experiment": "modulus-lq"},
        {"experiment": "deriv-battery"},
    ],
}


def configs(workload: str, seed: int) -> list[dict]:
    """The configs of one workload, each carrying ``seed``."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return [dict(copy.deepcopy(c), seed=seed) for c in WORKLOADS[workload]]
