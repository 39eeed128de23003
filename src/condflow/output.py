"""Deterministic CSV/JSON emission helpers.

Numbers are written with 17 significant digits so double-precision
payloads round-trip losslessly and repeated runs compare byte-for-byte.
"""

import json

import numpy as np

__all__ = ["format_number", "csv_text", "json_text"]


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(v) if not isinstance(v, str) else v for v in row))
    return "\n".join(lines) + "\n"


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def json_text(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n"
