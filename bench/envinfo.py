"""Environment block recorded with every benchmark result.

Hardware facts come only from ``lscpu`` and ``/proc``; library facts from
the interpreter that ran the workload.
"""

import ctypes
import os
import platform
import subprocess

RNG_SCHEME = (
    "numpy Philox streams keyed by SeedSequence(seed, spawn_key=(stream, *path)); "
    "Generator.normal (ziggurat) for Gaussian draws"
)


def _lscpu() -> dict:
    try:
        out = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, env=dict(os.environ, LC_ALL="C")
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def _proc_value(path: str, key: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                name, sep, value = line.partition(":")
                if sep and name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return None


_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS this process mapped (numpy's and scipy's)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = [line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line]
    except OSError:
        return {}
    out = {}
    for path in dict.fromkeys(libs):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def parse_size_mib(text: str | None) -> float | None:
    """'300 MiB (1 instance)' -> 300.0; None when absent or unparsable."""
    if not text:
        return None
    parts = text.split()
    units = {"KiB": 1 / 1024, "K": 1 / 1024, "MiB": 1.0, "M": 1.0, "GiB": 1024.0, "G": 1024.0}
    try:
        return float(parts[0]) * units[parts[1]]
    except (IndexError, KeyError, ValueError):
        return None


def environment() -> dict:
    """Versions, BLAS, CPU, cache and memory facts for one result."""
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return info.get("openblas configuration") or f"{info.get('name')} {info.get('version')}"

    cpu = _lscpu()
    mem_kb = _proc_value("/proc/meminfo", "MemTotal")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "openblas_threads": _openblas_threads(),
        "nproc": int(cpu["CPU(s)"]) if "CPU(s)" in cpu else None,
        "cpu_model": cpu.get("Model name"),
        "l2": cpu.get("L2 cache"),
        "l3": cpu.get("L3 cache"),
        "mem_total_mib": round(int(mem_kb.split()[0]) / 1024, 1) if mem_kb else None,
        "rng": RNG_SCHEME,
    }
