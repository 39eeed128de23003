"""One workload run in a fresh interpreter.

Reads ``{"configs": [...], "trace": bool, "spans": path-or-null}`` as JSON
on stdin, runs every config through ``condflow.cli.run(config,
write=False)`` and prints one JSON summary line.  Set-up ends when
condflow, numpy and scipy are imported and every config is resolved; the
parent measures it from the moment it started this process, on the shared
monotonic clock.

Run as ``python3 bench/child.py < request.json`` from the repository root.
"""

import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    request = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    from condflow import cli

    if Path(cli.__file__).resolve().parent != SRC / "condflow":
        print(f"error: condflow imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    configs = request["configs"]
    for config in configs:
        cli.resolve_params(config)
    setup_end = time.monotonic()

    tracer = Tracer() if request["trace"] else None
    walls, codes, results = [], [], []
    cpu0 = _cpu_s()
    with tracer or contextlib.nullcontext():
        for i, config in enumerate(configs):
            if tracer is not None:
                tracer.run_id = i
            t0 = time.perf_counter()
            code, payloads = cli.run(config, write=False)
            walls.append(time.perf_counter() - t0)
            codes.append(code)
            results.append(payloads)
    cpu = _cpu_s() - cpu0

    summary = {
        "setup_end": setup_end,
        "wall_s": sum(walls),
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "codes": codes,
        "hashes": [
            {name: hashlib.sha256(text.encode()).hexdigest() for name, text in sorted(p.items())}
            for p in results
        ],
    }
    if tracer is not None:
        from envinfo import environment

        summary["trace"] = tracer.summary()
        summary["environment"] = environment()
        if request.get("spans"):
            tracer.write(Path(request["spans"]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
