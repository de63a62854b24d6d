"""Tests of the benchmark's own span arithmetic and convolution count.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Counters, installed, layer_metrics  # noqa: E402
from spans import Tracer, layer_table, outermost, self_times, union_length  # noqa: E402


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert union_length([(3.0, 4.0), (0.0, 10.0)]) == pytest.approx(10.0)


def test_self_time_under_nesting():
    tr = Tracer()
    root = tr.add("checks.run_check", 0.0, 10.0)
    a = tr.add("geometry.state", 1.0, 4.0, root)
    tr.add("jets.conv", 1.5, 2.5, a)
    tr.add("jets.conv", 3.0, 3.5, a)
    tr.add("jets.conv", 6.0, 9.0, root)
    selfs = self_times(tr)
    assert selfs == pytest.approx([10.0 - 3.0 - 3.0, 3.0 - 1.5, 1.0, 0.5, 3.0])
    table = layer_table(tr)
    assert table["jets.conv"]["self_s"] == pytest.approx(4.5)
    assert table["jets.conv"]["calls"] == 3
    # self times partition the root interval
    assert sum(selfs) == pytest.approx(10.0)


def test_union_of_outermost_spans_under_recursion():
    tr = Tracer()
    root = tr.add("checks.run_check", 0.0, 20.0)
    f1 = tr.add("variation.flow", 1.0, 9.0, root)
    inner = tr.add("geometry.state", 2.0, 8.0, f1)
    f2 = tr.add("variation.flow", 3.0, 7.0, inner)      # re-entered below itself
    tr.add("variation.flow", 4.0, 5.0, f2)
    tr.add("variation.flow", 12.0, 14.0, root)
    assert outermost(tr) == [True, True, True, False, False, True]
    table = layer_table(tr)
    # summing every flow span would give 8 + 4 + 1 + 2 = 15
    assert table["variation.flow"]["total_s"] == pytest.approx(10.0)
    assert table["variation.flow"]["calls"] == 4
    assert table["geometry.state"]["total_s"] == pytest.approx(6.0)


def test_recorded_spans_nest_and_carry_the_request():
    tr = Tracer()
    tr.request = ("ID-QUAD", "FS")
    outer = tr.open("checks.run_check")
    inner = tr.open("jets.conv")
    tr.close(inner)
    tr.close(outer)
    assert tr.parents == [-1, 0]
    assert tr.requests == [("ID-QUAD", "FS")] * 2
    assert tr.starts[0] <= tr.starts[1] <= tr.ends[1] <= tr.ends[0]


def test_conv_terms_exact_on_a_hand_sized_product():
    from kahlercheck import jets
    from kahlercheck.jets import Jet

    # dim 2, order 1: coefficients 1, x, y.  The pairs (i, j) whose
    # multi-indices add up to one of order <= 1 are (1,1), (1,x), (1,y),
    # (x,1), (y,1): five convolution terms per batch element.
    rng = np.random.default_rng(0)
    a = Jet(2, 1, rng.standard_normal((3, 3, 2, 2)))
    b = Jet(2, 1, rng.standard_normal((3, 3, 2, 2)))
    tr, c = Tracer(), Counters()
    with installed(tr, c):
        jets.jet_mul(a, b)                          # 5 terms x 3*2*2 elements
        jets.jet_einsum("pij,pjk->pik", a, b)       # 5 terms x 3*2*2*2 (p,i,j,k)
    assert c.conv_terms == 5 * 12 + 5 * 24
    assert c.conv_terms_large == 0
    m = layer_metrics(tr, c)
    assert m["jets.conv.calls"] == (2, "count")
    assert m["jets.conv.terms"] == (180, "count")
    assert m["jets.conv.large_batch_share"] == (0.0, "ratio")
    # float64 operands: gathered a, b and products, 5 rows each
    assert m["jets.conv.mb_computed"][0] == pytest.approx(
        5 * 8 * ((12 + 12 + 12) + (12 + 12 + 12)) / 1e6)


def test_install_restores_the_originals():
    from kahlercheck import catalog, geometry, jets, variation

    before = (jets.jet_mul, catalog.jet_einsum, variation.inverse_and_logdet,
              geometry.GeometryState.g)
    with installed(Tracer(), Counters()):
        assert jets.jet_mul is not before[0]
        assert catalog.jet_einsum is not before[1]
    after = (jets.jet_mul, catalog.jet_einsum, variation.inverse_and_logdet,
             geometry.GeometryState.g)
    assert after == before


def test_large_batch_share_counts_quadrature_sized_batches():
    from kahlercheck import jets
    from kahlercheck.jets import Jet

    small = Jet(2, 1, np.ones((3, 10)))
    large = Jet(2, 1, np.ones((3, 1000)))
    tr, c = Tracer(), Counters()
    with installed(tr, c):
        jets.jet_mul(small, small)
        jets.jet_mul(large, large)
    assert c.conv_terms == 5 * 10 + 5 * 1000
    assert c.conv_terms_large == 5 * 1000
