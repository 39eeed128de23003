"""Every target of the benchmark's span tracer names a function that the
package still defines.

``bench/spans.py`` wraps each ``TARGETS`` entry by ``vars(owner)[leaf]``
in the traced benchmark run, so a renamed or deleted function would crash
that run and fail its correctness check.  The module is loaded by path,
as it is, after ``condflow.cli`` has imported the package the way the
benchmark's child process does.
"""

import importlib.util
from pathlib import Path

import pytest

import condflow.cli  # noqa: F401  (imports every module the targets name)

_SPEC = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py"
)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


@pytest.mark.parametrize("name, module, attr", spans.TARGETS)
def test_every_span_target_resolves(name, module, attr):
    owner, leaf = spans._resolve(module, attr)
    assert callable(vars(owner)[leaf]), f"{name}: {module}.{attr} is not a function"
