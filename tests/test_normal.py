"""The Cephes ports in ``condflow._normal`` against ``scipy.special``, bit
for bit: on the grids condflow feeds them, on every branch edge and on the
special inputs.  Equal bits, nan sign and payload included, are what keep
the payloads of runs byte-identical to those recorded with scipy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from condflow._normal import ndtr, ndtri

special = pytest.importorskip("scipy.special")

SPECIAL_INPUTS = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 1.0 - 2.0**-53])


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert differ.size == 0, f"{differ.size} differ, first {got.flat[differ[:3]]} against {want.flat[differ[:3]]}"


def around(edges, ulps=64):
    """Each edge and its ``ulps`` floating-point neighbours on either side."""
    out = []
    for edge in edges:
        lo = hi = float(edge)
        out.append(lo)
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return np.array(out)


def test_ndtri_on_midpoint_rank_grids():
    # every particle count gaussian_quantile_initial could be asked for
    ranks = np.concatenate([(np.arange(n) + 0.5) / n for n in [*range(2, 3000), 4096, 8192, 65536]])
    assert_same_bits(ndtri(ranks), special.ndtri(ranks))


def test_ndtri_on_uniforms_and_deep_tails():
    u = np.random.default_rng(20).random(10**6)
    deep = 10.0 ** -np.linspace(1.0, 323.0, 50_001)
    near_one = 1.0 - 10.0 ** -np.linspace(1.0, 16.0, 10_001)
    for y in (u, deep, near_one):
        assert_same_bits(ndtri(y), special.ndtri(y))


def test_ndtri_branch_edges_and_special_inputs():
    # y = e^-2 and 1 - e^-2 bound the central rational form; y = e^-32,
    # where sqrt(-2 log y) = 8, switches the tail's coefficients
    e2 = math.exp(-2.0)
    y = np.concatenate([around([e2, 1.0 - e2, math.exp(-32.0), 1.0 - math.exp(-32.0)]), SPECIAL_INPUTS])
    y = np.concatenate([y, math.exp(-32.0) * (1.0 + np.linspace(-1e-6, 1e-6, 20_001))])
    assert_same_bits(ndtri(y), special.ndtri(y))


def test_ndtr_on_grids():
    for a in (np.linspace(-40.0, 40.0, 700_001), np.linspace(-1.5, 1.5, 300_001)):
        assert_same_bits(ndtr(a), special.ndtr(a))


def test_ndtr_branch_edges_and_special_inputs():
    # in x = a / sqrt(2): |x| = 1/sqrt(2) switches ndtr from erf to erfc,
    # |x| = 1 switches erfc from 1 - erf to its exp form, x = 6 is where
    # the port returns 1 without erfc, |x| = 8 switches the exp form's
    # coefficients, and x^2 = MAXLOG is where exp(-x^2) would underflow
    # and erfc returns 0
    maxlog = 7.09782712893383996843e2
    edges = [x * math.sqrt(2.0) for x in (1.0 / math.sqrt(2.0), 1.0, 6.0, 8.0, math.sqrt(maxlog))]
    a = around(edges + [-e for e in edges])
    a = np.concatenate([a, SPECIAL_INPUTS, np.linspace(37.6, 37.8, 20_001), -np.linspace(37.6, 37.8, 20_001)])
    assert_same_bits(ndtr(a), special.ndtr(a))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(0, 64)), st.sampled_from(["ndtr", "ndtri"]))
def test_ports_match_scipy_on_any_doubles(x, name):
    port = {"ndtr": ndtr, "ndtri": ndtri}[name]
    assert_same_bits(port(x), getattr(special, name)(x))


def test_ports_keep_the_input_shape():
    a = np.linspace(0.01, 0.99, 12).reshape(3, 4)
    assert ndtri(a).shape == (3, 4) and ndtr(a).shape == (3, 4)
    assert ndtri(0.5).shape == () and float(ndtr(0.0)) == 0.5
