"""The read-ahead of a one-stream sweep: while a window is worked on, a
thread of its own draws the next window's dW normals.

The draws must be the stream's own normals, in order, at every window
budget; a window that fails must leave no draw pending; and a batched
sweep, a process allowed only one CPU, and every benchmark workload whose
sweeps are all batched must not start the thread.  The tests force the
read-ahead on, so they exercise the thread whatever CPUs the host has.
"""

import importlib.util
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from condflow import (
    InvalidArgumentError,
    RngStream,
    Sweep,
    constant_coefficients,
    gaussian_quantile_initial,
    make_uniform_partition,
    simulate_ensemble,
)
from condflow import particle
from condflow.cli import run as run_config
from condflow.paths import SdeCoefficients

from helpers import counted, set_window

STREAM = RngStream(2718, 0)
N_CELLS, N_PARTICLES = 23, 16
INITIAL = gaussian_quantile_initial(0.2, 0.5)

# law- and factor-reading coefficients, so that a window reads the rows the
# previous one handed on
READING = SdeCoefficients(
    drift=lambda t, x, y, m: 0.7 * (m.mean() - x) + (0.0 if y is None else 0.1 * y),
    sigma=lambda t, x, y, m: 0.6,
    sigma0=lambda t, x, y, m: 0.4 * np.cos(x),
    k=lambda t, y: 0.1,
    gamma=lambda t, y: 0.3,
    gamma0=lambda t, y: 0.5,
)


def load_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_ahead_on(monkeypatch):
    """Let a one-stream sweep read ahead, and count its read-aheads."""
    monkeypatch.setattr(particle, "_several_cpus", lambda: True)
    return counted(monkeypatch, particle, "_Draw")


def no_read_ahead(monkeypatch):
    """Make any read-ahead fail the run that asked for it."""

    def refuse(call):
        raise AssertionError("a read-ahead was started")

    monkeypatch.setattr(particle, "_Draw", refuse)


@pytest.mark.parametrize("cells", [4, 1])
@pytest.mark.parametrize("y0", [None, 0.3], ids=["plain", "factor"])
def test_a_one_stream_sweep_draws_its_stream_s_normals(monkeypatch, cells, y0):
    # after its n dW0 draws, the stream's generator gives every window's
    # dW rows in order, times sqrt(dt), bit for bit
    calls = read_ahead_on(monkeypatch)
    set_window(monkeypatch, cells, 1, N_PARTICLES)
    part = make_uniform_partition(1.0, N_CELLS)
    sweep = Sweep(READING, INITIAL, N_PARTICLES, part, [STREAM], y0=y0)
    windows = []
    while not sweep.done:
        windows.append(simulate_ensemble(sweep))
    assert len(windows) == -(-N_CELLS // cells)
    assert len(calls) == len(windows) - 1
    assert sweep._ahead is None
    gen = STREAM.generator()
    gen.normal(size=N_CELLS)
    expected = gen.normal(size=(N_CELLS, N_PARTICLES)) * np.sqrt(part.deltas)[:, None]
    drawn = np.concatenate([w.idio_increments for w in windows])
    assert drawn.shape == (N_CELLS, 1, N_PARTICLES)
    assert drawn[:, 0].tobytes() == expected.tobytes()


def test_the_read_ahead_keeps_every_byte_of_the_sweep(monkeypatch):
    # the same sweep with the read-ahead off, as on a process allowed one
    # CPU, gives the same states and values
    set_window(monkeypatch, 3, 1, N_PARTICLES)
    part = make_uniform_partition(1.0, N_CELLS)
    runs = {}
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(particle.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        calls = counted(monkeypatch, particle, "_Draw")
        sweep = Sweep(READING, INITIAL, N_PARTICLES, part, [STREAM], y0=0.3)
        windows = []
        while not sweep.done:
            windows.append(simulate_ensemble(sweep))
        assert (len(calls) > 0) == (len(cpus) > 1)
        names = ["states", "idio_increments", "drift_values", "sigma_values", "sigma0_values"]
        runs[len(cpus)] = [getattr(w, name).tobytes() for w in windows for name in names]
    assert runs[1] == runs[2]


def test_a_window_that_raises_leaves_no_draw_pending(monkeypatch):
    # sigma0 raises in window 2, while window 3's normals are being drawn:
    # the sweep is refused at that step, the draw has ended and has been
    # dropped, and nothing is raised later
    read_ahead_on(monkeypatch)
    set_window(monkeypatch, 4, 1, N_PARTICLES)
    calls = []

    def sixth_call_fails(t, x, y, m):
        calls.append(t)
        if len(calls) == 6:
            raise ZeroDivisionError("division by zero")
        return 0.4

    coeffs = replace(READING, sigma0=sixth_call_fails)
    sweep = Sweep(coeffs, INITIAL, N_PARTICLES, make_uniform_partition(1.0, N_CELLS), [STREAM])
    simulate_ensemble(sweep)
    with pytest.raises(ZeroDivisionError):
        simulate_ensemble(sweep)
    assert sweep._ahead is None
    # the generator has given dW0 and exactly three windows of dW
    gen = STREAM.generator()
    gen.normal(size=N_CELLS)
    gen.normal(size=(12, N_PARTICLES))
    assert sweep._gens[0].normal(size=8).tobytes() == gen.normal(size=8).tobytes()
    for _ in range(2):
        with pytest.raises(InvalidArgumentError, match="failed at step 5"):
            simulate_ensemble(sweep)
    assert sweep.next_cell == 4 and len(calls) == 6


def test_a_draw_that_raises_on_its_thread_fails_the_next_window(monkeypatch):
    read_ahead_on(monkeypatch)
    set_window(monkeypatch, 4, 1, N_PARTICLES)
    original = particle._Draw

    def failing(call):
        def fail():
            raise MemoryError("no room for the draw")

        return original(fail)

    monkeypatch.setattr(particle, "_Draw", failing)
    sweep = Sweep(READING, INITIAL, N_PARTICLES, make_uniform_partition(1.0, N_CELLS), [STREAM])
    simulate_ensemble(sweep)
    with pytest.raises(MemoryError):
        simulate_ensemble(sweep)
    assert sweep._ahead is None
    with pytest.raises(InvalidArgumentError, match="failed at step 4"):
        simulate_ensemble(sweep)


def test_a_batched_sweep_starts_no_thread(monkeypatch):
    monkeypatch.setattr(particle, "_several_cpus", lambda: True)
    no_read_ahead(monkeypatch)
    set_window(monkeypatch, 2, 2, N_PARTICLES)
    threads = threading.active_count()
    streams = [STREAM.child(r) for r in range(2)]
    sweep = Sweep(READING, INITIAL, N_PARTICLES, make_uniform_partition(1.0, N_CELLS), streams, y0=0.3)
    while not sweep.done:
        simulate_ensemble(sweep)
    assert threading.active_count() == threads


@pytest.mark.parametrize("workload", ["field-small-N", "lq-control", "qv-refine"])
def test_the_batched_workloads_start_no_thread(monkeypatch, workload):
    # every sweep of these workloads is batched, so none reads ahead
    monkeypatch.setattr(particle, "_several_cpus", lambda: True)
    no_read_ahead(monkeypatch)
    threads = threading.active_count()
    for config in load_workloads().configs(workload, 1):
        code, _ = run_config(config, write=False)
        assert code in (0, 1)
    assert threading.active_count() == threads


def test_importing_condflow_starts_no_thread():
    # the first thread comes with a sweep's first read-ahead
    src = str(Path(particle.__file__).resolve().parents[1])
    probe = "import sys, threading; sys.path.insert(0, sys.argv[1]); import condflow; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"


def test_a_sweep_holds_one_draw_thread_at_most_and_leaves_none(monkeypatch):
    # each read-ahead runs on a thread of its own, which the next window
    # joins, so a sweep has at most one such thread alive, and none once
    # it is done
    read_ahead_on(monkeypatch)
    set_window(monkeypatch, 2, 1, N_PARTICLES)
    coeffs = constant_coefficients(b=0.1, sigma=0.6, sigma0=0.4)
    part = make_uniform_partition(1.0, N_CELLS)

    def draw_threads():
        return [t for t in threading.enumerate() if t.name == "condflow-read-ahead"]

    for r in range(3):
        sweep = Sweep(coeffs, INITIAL, N_PARTICLES, part, [STREAM.child(r)])
        while not sweep.done:
            simulate_ensemble(sweep)
            assert len(draw_threads()) <= 1
        assert sweep._ahead is None and draw_threads() == []


def test_sweeps_on_many_threads_each_draw_their_own_stream(monkeypatch):
    # more sweeping threads than cores, each with its read-aheads, and a
    # short switch interval: a draw taken by the wrong sweep or run twice
    # would shift a stream, so every thread must end with its own
    # stream's normals
    read_ahead_on(monkeypatch)
    set_window(monkeypatch, 2, 1, N_PARTICLES)
    coeffs = constant_coefficients(b=0.1, sigma=0.6, sigma0=0.4)
    part = make_uniform_partition(1.0, N_CELLS)
    results = {}

    def sweep_stream(r):
        sweep = Sweep(coeffs, INITIAL, N_PARTICLES, part, [STREAM.child(r)])
        rows = []
        while not sweep.done:
            rows.append(simulate_ensemble(sweep).idio_increments[:, 0])
        results[r] = np.concatenate(rows)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep_stream, args=(r,)) for r in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for r in range(6):
        gen = STREAM.child(r).generator()
        gen.normal(size=N_CELLS)
        expected = gen.normal(size=(N_CELLS, N_PARTICLES)) * np.sqrt(part.deltas)[:, None]
        assert results[r].tobytes() == expected.tobytes(), r
