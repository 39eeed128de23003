"""Span tracer that wraps condflow's public functions from outside the package.

The package binds functions by name (``from .particle import
simulate_ensemble`` in chainrule, mfc and registry; ``empirical`` in
particle), so patching only the defining module would miss most calls.
:meth:`Tracer.install` therefore replaces a target at every ``condflow``
module attribute that is the original object, plus the
``RngStream.generator`` method, and :meth:`Tracer.restore` puts every one
back.  Nothing under ``src/`` changes.

Spans are kept in memory as ``[name, start, end, parent, run]`` rows and
summarised or written out after the run.  RNG draws and the Euler
arithmetic both happen inside ``simulate_ensemble`` and cannot be split
from outside; splitting them needs spans inside the program.
"""

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, defining module, attribute path); several targets may share
# a span name when they form one layer metric.
TARGETS = (
    ("cli.run", "condflow.cli", "run"),
    ("output.serialize", "condflow.output", "json_text"),
    ("output.serialize", "condflow.output", "csv_text"),
    ("particle.simulate_ensemble", "condflow.particle", "simulate_ensemble"),
    ("particle.measure_flow_modulus", "condflow.particle", "measure_flow_modulus"),
    ("measures.empirical", "condflow.measures", "empirical"),
    ("measures.fd_checks", "condflow.measures", "fd_check_dm"),
    ("measures.fd_checks", "condflow.measures", "fd_check_dm2"),
    ("chainrule.verify", "condflow.chainrule", "verify_ito"),
    ("chainrule.verify", "condflow.chainrule", "verify_ito_wentzell"),
    ("chainrule.verify", "condflow.chainrule", "verify_brownian_corollary"),
    ("chainrule.verify", "condflow.chainrule", "verify_factor_model"),
    ("mfc.solve_lq_value", "condflow.mfc", "solve_lq_value"),
    ("mfc.hjb_residual", "condflow.mfc", "hjb_residual"),
    ("mfc.nonparametric_gap", "condflow.mfc", "nonparametric_gap"),
    ("mfc.dpp_check", "condflow.mfc", "dpp_check"),
    ("mfc.constant_control_gap", "condflow.mfc", "constant_control_gap"),
    ("quadvar.weighted_qv_sum", "condflow.quadvar", "weighted_qv_sum"),
    ("quadvar.lemma_study", "condflow.quadvar", "lemma_convergence_study"),
    ("paths.rng_generator", "condflow.paths", "RngStream.generator"),
    ("paths.simulate_brownian", "condflow.paths", "simulate_brownian"),
    ("paths.simulate_factor", "condflow.paths", "simulate_factor"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# Counters filled from return values at the same boundaries.
COUNTERS = (
    "particle.particle_steps",
    "particle.ensemble_bytes",
    "particle.largest_array_bytes",
    "chainrule.repetitions",
    "output.payload_bytes",
)


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *outer, leaf = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Records nested spans and counters for the wrapped targets."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _count_ensemble(self, ens):
        c = self.counters
        c["particle.particle_steps"] += ens.num_cells * ens.num_particles
        arrays = [v for v in vars(ens).values() if hasattr(v, "nbytes")]
        c["particle.ensemble_bytes"] = max(c["particle.ensemble_bytes"], sum(a.nbytes for a in arrays))
        c["particle.largest_array_bytes"] = max(
            c["particle.largest_array_bytes"], max(a.nbytes for a in arrays)
        )

    def _count_path(self, path):
        cells = path.values.shape[0] - 1
        self.counters["particle.particle_steps"] += cells * path.dim

    def _count_report(self, report):
        self.counters["chainrule.repetitions"] += len(report.rows)

    def _count_payloads(self, result):
        _, payloads = result
        self.counters["output.payload_bytes"] += sum(len(t.encode()) for t in payloads.values())

    def _hook(self, name: str):
        return {
            "particle.simulate_ensemble": self._count_ensemble,
            "paths.simulate_brownian": self._count_path,
            "paths.simulate_factor": self._count_path,
            "chainrule.verify": self._count_report,
            "cli.run": self._count_payloads,
        }.get(name)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a condflow module refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "condflow" or n.startswith("condflow.")]
        for name, module, attr in TARGETS:
            owner, leaf = _resolve(module, attr)
            original = vars(owner)[leaf]
            wrapper = self.wrap(name, original, self._hook(name))
            holders = [owner] if owner not in modules else []
            holders += modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def restore(self) -> None:
        """Put back every attribute that :meth:`install` replaced."""
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- output ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for row, own in zip(self.spans, self_times(self.spans)):
            entry = out[row[0]]
            entry["calls"] += 1
            entry["self_s"] += own
            if not _inside_same_name(self.spans, row):
                entry["s"] += row[2] - row[1]
        return {"spans": out, "counters": dict(self.counters)}

    def write(self, path: Path) -> None:
        """Write all spans as JSON: a name table and integer-coded rows."""
        names = {name: i for i, name in enumerate(SPAN_NAMES)}
        rows = [[names[r[0]], r[1], r[2], r[3], r[4]] for r in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": SPAN_NAMES, "columns": ["name", "start", "end", "parent", "run"], "spans": rows}))


def _inside_same_name(spans, row) -> bool:
    parent = row[3]
    while parent >= 0:
        if spans[parent][0] == row[0]:
            return True
        parent = spans[parent][3]
    return False


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its child spans cover.

    ``spans`` are ``[name, start, end, parent, ...]`` rows with ``parent``
    the index of the enclosing span or -1.  Child intervals are clipped to
    the parent and merged, so overlapping children are not subtracted
    twice.
    """
    children = defaultdict(list)
    for row in spans:
        if row[3] >= 0:
            children[row[3]].append((row[1], row[2]))
    out = []
    for i, row in enumerate(spans):
        start, end = row[1], row[2]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            # count only the part past what earlier children already covered
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
