import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from kahlercheck import backends as bk
from kahlercheck import catalog as cat
from kahlercheck import checks as ck
from kahlercheck import fields as fl
from kahlercheck.checks import run_check
from kahlercheck.geometry import FixtureScope, GeometryState, by_order, inverse_and_logdet
from kahlercheck.jets import Jet


def test_torus_quadrature_exact_for_trig():
    t = bk.Torus(2, 24)
    (batch,) = t.quad_nodes()
    f = np.sin(2 * math.pi * batch.pts[:, 0]) ** 2
    val = t.integrate_chart([f], t.quad_nodes())
    assert abs(val - 0.5) < 1e-13
    assert abs(t.integrate_chart([np.ones(batch.size)], t.quad_nodes()) - 1.0) < 1e-13


def test_torus_grids_come_in_lexicographic_blocks_of_at_most_the_cap(monkeypatch):
    for kind in ("FLAT2", "PERT2", "RIEM4", "KAH4", "FS"):
        nodes = bk.make_fixture(kind).quad_nodes()
        assert all(b.size <= bk.QUAD_BLOCK for b in nodes), kind
        assert (len(nodes) > 1) == (kind in ("RIEM4", "KAH4", "FS")), kind
    # the blocks, in order, are the unblocked grid with the last axis fastest
    nodes = bk.Torus(4, 10).quad_nodes()
    assert [b.size for b in nodes] == [2000] * 5
    grid = np.array(list(itertools.product(np.arange(10) / 10, repeat=4)))
    assert np.array_equal(np.concatenate([b.pts for b in nodes]), grid)
    assert np.array_equal(np.concatenate([b.weights for b in nodes]),
                          np.full(10**4, 10 ** (-4)))
    # a finer FS rule is blocked chart by chart: 2 x 4096 nodes, four blocks
    fx = bk.make_fixture({"kind": "FS", "n_theta": 64, "n_phi": 128})
    nodes = fx.quad_nodes()
    assert [(b.chart, b.size) for b in nodes] == [(0, 2048), (0, 2048), (1, 2048), (1, 2048)]
    assert abs(fx.integrate([np.ones(b.size) for b in nodes]) - 1.0) < 1e-12
    monkeypatch.setattr(bk, "QUAD_BLOCK", 10**6)
    whole = bk.CP1(64, 128).quad_nodes()
    assert [b.chart for b in whole] == [0, 1]
    for w in whole:
        blocks = [b for b in nodes if b.chart == w.chart]
        assert np.array_equal(np.concatenate([b.pts for b in blocks]), w.pts)
        assert np.array_equal(np.concatenate([b.weights for b in blocks]), w.weights)


def test_constant_matrix_fields_store_one_node():
    # the coefficients broadcast one node's over the points, read-only
    fx = bk.make_fixture("KAH4")
    batch = fx.quad_nodes()[0]
    J = fx.J(batch, 2)
    assert J.coeffs.shape == (15, batch.size, 4, 4) and J.coeffs.strides[1] == 0
    assert np.array_equal(J.value[7], bk.standard_J(4)) and not np.any(J.coeffs[1:])
    with pytest.raises(ValueError):
        J.coeffs[0, 0, 0, 0] = 1.0


@pytest.mark.parametrize("grid", [8, 10])
def test_blocked_torus_quadrature_exact_for_trig(grid):
    # every frequency lies below the grid on each axis, so the trapezoidal
    # rule is exact however its sum is split
    t = bk.Torus(4, grid)
    nodes = t.quad_nodes()
    assert len(nodes) > 1
    vals = []
    for b in nodes:
        x = 2 * math.pi * b.pts
        vals.append(np.sin(x[:, 0] + 2 * x[:, 1] - x[:, 3]) ** 2
                    + np.cos(x[:, 2]) * np.cos(3 * x[:, 0])
                    + 0.25 * np.sin(x[:, 1] + x[:, 2] + x[:, 3]) + 0.3)
    assert abs(t.integrate_chart(vals, nodes) - 0.8) < 1e-13


def test_fixture_unit_mass_and_determinism():
    for kind in ("FLAT2", "PERT2", "RIEM4", "KAH4", "FS"):
        fx = bk.make_fixture(kind)
        total = fx.integrate([np.ones(b.size) for b in fx.quad_nodes()])
        assert abs(total - 1.0) < 1e-10, kind
    # a second build, past the cache, reproduces the metric and the density
    a = bk.make_fixture({"kind": "RIEM4", "seed": 7})
    b = bk._MAKERS["RIEM4"](dict(a.descriptor))
    assert a is not b
    for n in a.quad_nodes():
        assert np.array_equal(a.g(n, 1).coeffs, b.g(n, 1).coeffs)
        assert np.array_equal(a.omega_density(n, 1).coeffs, b.omega_density(n, 1).coeffs)


def test_descriptors_are_completed_from_the_defaults():
    import kahlercheck.errors as err

    fx = bk.make_fixture("RIEM4")
    assert fx.descriptor == {"kind": "RIEM4", "grid": 10, "seed": 7, "epsilon": 0.05}
    # one geometry, one cache entry, however its descriptor is spelled
    assert bk.make_fixture({"kind": "RIEM4", "seed": 7}) is fx
    assert bk.make_fixture({"epsilon": 0.05, "kind": "RIEM4", "grid": 10}) is fx
    assert bk.make_fixture({"kind": "RIEM4", "seed": 8}) is not fx
    for kind in bk.FIXTURE_KINDS:
        assert set(bk.make_fixture(kind).descriptor) == {"kind"} | set(bk._DEFAULTS[kind])
    with pytest.raises(err.BadInputError, match="epsilon"):
        bk.make_fixture({"kind": "FS", "epsilon": 0.1})


def test_integrate_rejects_a_batch_count_that_is_not_the_grids():
    import kahlercheck.errors as err

    fx = bk.make_fixture("KAH4")
    nodes = fx.quad_nodes()
    assert len(nodes) == 5
    with pytest.raises(err.BadInputError, match="1 value arrays for 5"):
        fx.integrate([np.ones(nodes[0].size)])
    with pytest.raises(err.BadInputError):
        fx.integrate([np.ones(b.size) for b in nodes + nodes[:1]])
    assert abs(fx.integrate(np.ones(b.size) for b in nodes) - 1.0) < 1e-10


def test_cp1_quadrature_total_area():
    cp = bk.CP1(24, 48)
    nodes = cp.quad_nodes()
    # integral of the round density 4/(1+r^2)^2 over both charts = 4*pi
    vals = []
    for b in nodes:
        r2 = np.sum(b.pts**2, axis=1)
        vals.append(4.0 / (1.0 + r2) ** 2)
    assert abs(cp.integrate_chart(vals, nodes) - 4 * math.pi) < 1e-12


def test_cp1_chart_transition_roundtrip_and_vector():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.4, 0.9, size=(6, 2))
    comp = rng.normal(size=(6, 2, 2))
    comp = comp + np.swapaxes(comp, 1, 2)
    new_pts, out = bk.chart_transition(comp, "sym2", pts)
    back_pts, back = bk.chart_transition(out, "sym2", new_pts)
    assert np.allclose(back_pts, pts, atol=1e-12)
    assert np.allclose(back, comp, atol=1e-11)
    # the first holomorphic generator at z=1 is -d/dw at w=1
    pts1 = np.array([[1.0, 0.0]])
    v = np.array([[1.0, 0.0]])
    _, v2 = bk.chart_transition(v, "vector", pts1)
    assert np.allclose(v2, [[-1.0, 0.0]], atol=1e-14)


def test_fs_metric_agrees_across_charts():
    fx = bk.make_fixture("FS")
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.5, 0.95, size=(8, 2))
    batch = bk.NodeBatch(0, pts)
    g0 = fx.g(batch, 0).value
    new_pts, g_push = bk.chart_transition(g0, "sym2", pts)
    g1 = fx.g(bk.NodeBatch(1, new_pts), 0).value
    assert np.max(np.abs(g_push - g1)) < 1e-11


def test_inverse_and_logdet_jets():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, size=(5, 2))
    x, y = Jet.coordinates(pts, 2, 3)
    import kahlercheck.jets as jets

    a = 2.0 + jets.sin(x) * 0.3
    b = jets.cos(y) * 0.2
    c = 1.5 + jets.cos(x) * 0.1
    from kahlercheck.jets import jet_stack

    G = jet_stack([jet_stack([a, b], 2), jet_stack([b, c], 2)], 2)
    Ginv, logdet = inverse_and_logdet(G)
    prod = jets.jet_einsum("pij,pjk->pik", G, Ginv)
    eye = np.zeros_like(prod.coeffs)
    eye[0] = np.eye(2)
    assert np.max(np.abs(prod.coeffs - eye)) < 1e-13
    det_direct = a * c - b * b
    assert np.max(np.abs(jets.log(det_direct).coeffs - logdet.coeffs)) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_inverse_and_logdet_truncate_to_the_lower_order_result(dim, order):
    # the Neumann remainder's constant term is exactly zero, so the extra
    # powers of a higher order add nothing below it, to the last bit
    rng = np.random.default_rng(10 * dim + order)
    c = rng.normal(size=(Jet.const(0.0, dim, order).coeffs.shape[0], 30, dim, dim)) * 0.1
    c = c + np.swapaxes(c, -1, -2)
    c[0] += 2.0 * np.eye(dim)
    G = Jet(dim, order, c)
    inv, logdet = inverse_and_logdet(G)
    for j in range(order):
        inv_j, logdet_j = inverse_and_logdet(G.truncate(j))
        assert inv.truncate(j).coeffs.tobytes() == inv_j.coeffs.tobytes()
        assert logdet.truncate(j).coeffs.tobytes() == logdet_j.coeffs.tobytes()


def test_check_nodes_are_the_same_read_only_batches_every_time():
    fx = bk.make_fixture("FS")
    first = fx.check_nodes(5, 33)
    again = bk.make_fixture("FS").check_nodes(5, 33)
    assert all(a is b for a, b in zip(first, again))
    for b in first:
        assert not b.pts.flags.writeable
        with pytest.raises(ValueError):
            b.pts[0, 0] = 0.0


def test_flat2_geometry_is_trivial():
    fx = bk.make_fixture("FLAT2")
    geom = GeometryState(fx)
    batch = fx.check_nodes(0, 20)[0]
    gamma = geom.gamma(batch, 1)
    assert np.max(np.abs(gamma.coeffs)) == 0.0
    R = geom.riemann(batch, 0)
    assert np.max(np.abs(R.coeffs)) == 0.0
    f = geom.f(batch, 2)
    assert np.max(np.abs(f.coeffs)) < 1e-15


def test_fs_is_unit_einstein_with_constant_weight():
    fx = bk.make_fixture("FS")
    geom = GeometryState(fx)
    for batch in fx.check_nodes(1, 60):
        ric = geom.ric(batch, 0)
        g = geom.g(batch, 0)
        assert np.max(np.abs(ric.value - g.value)) < 1e-10
        f = geom.f(batch, 1)
        assert np.max(np.abs(f.value - math.log(4 * math.pi))) < 1e-11
        assert np.max(np.abs(f.gradient().value)) < 1e-10


def test_gamma_symmetry_and_ricci_symmetry_riem4():
    fx = bk.make_fixture("RIEM4")
    geom = GeometryState(fx)
    batch = fx.check_nodes(2, 40)[0]
    gam = geom.gamma(batch, 0).value
    assert np.max(np.abs(gam - np.swapaxes(gam, 2, 3))) < 1e-13
    ric = geom.ric(batch, 0).value
    assert np.max(np.abs(ric - np.swapaxes(ric, 1, 2))) < 1e-11


def test_kah4_kahler_data():
    fx = bk.make_fixture("KAH4")
    geom = GeometryState(fx)
    batch = fx.check_nodes(3, 40)[0]
    J = geom.J(batch, 1).value
    g = geom.g(batch, 0).value
    # J^2 = -I and g(J.,J.) = g
    assert np.max(np.abs(np.einsum("pij,pjk->pik", J, J) + np.eye(4))) < 1e-14
    gJJ = np.einsum("pai,pab,pbj->pij", J, g, J)
    assert np.max(np.abs(gJJ - g)) < 1e-13
    # omega closed: d omega = 0 from jets
    om = geom.omega(batch, 1)
    dom = om.gradient().value  # (m, i, j, d)
    curl = dom + np.transpose(dom, (0, 3, 1, 2)) + np.transpose(dom, (0, 2, 3, 1))
    assert np.max(np.abs(curl)) < 1e-12


def test_holomorphic_basis_transition_consistency():
    fx = bk.make_fixture("FS")
    fields = bk.holomorphic_basis(fx.backend)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.5, 0.95, size=(5, 2))
    for f in fields:
        v0 = f(bk.NodeBatch(0, pts), 0).value
        new_pts, pushed = bk.chart_transition(v0, "vector", pts)
        v1 = f(bk.NodeBatch(1, new_pts), 0).value
        assert np.max(np.abs(pushed - v1)) < 1e-12


def test_transition_guards():
    import kahlercheck.errors as err

    with pytest.raises(err.NoOverlapError):
        bk.CP1.transition_jacobian(np.array([[0.01, 0.01]]))
    with pytest.raises(err.BadInputError):
        bk.chart_transition(np.zeros((1, 2)), "spinor", np.array([[1.0, 0.0]]))


def test_make_fixture_guards():
    import kahlercheck.errors as err

    with pytest.raises(err.BadInputError):
        bk.make_fixture({"kind": "KLEIN"})
    with pytest.raises(err.DegenerateMetricError):
        bk.make_fixture({"kind": "PERT2", "epsilon": 3.0})


def test_the_spd_guard_takes_the_median_from_a_sort():
    rng = np.random.default_rng(0)
    for shape in ((1,), (2,), (5, 2), (6, 2), (101, 4)):
        ev = rng.standard_normal(shape)
        assert bk._median(ev) == np.median(ev), shape


def test_building_the_fixtures_never_loads_numpy_ma():
    # np.median imports numpy.ma, about 13 ms and 1.25 MiB in every process
    child = ("import sys\n"
             "from kahlercheck import backends as bk\n"
             "for kind in bk.FIXTURE_KINDS:\n"
             "    bk.make_fixture(kind)\n"
             "print(len(bk._cache), 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["5", "False"]


def test_make_fixture_rejects_descriptor_values_of_the_wrong_type():
    import kahlercheck.errors as err

    before = dict(bk._cache)
    for desc in ({"kind": "PERT2", "epsilon": "0.08"}, {"kind": "PERT2", "grid": -3},
                 {"kind": "FLAT2", "grid": "24"}, {"kind": "FLAT2", "grid": 24.0},
                 {"kind": "KAH4", "seed": True}):
        with pytest.raises(err.BadInputError, match="descriptor"):
            bk.make_fixture(desc)
    assert bk._cache == before


def test_integrate_rejects_nan():
    import kahlercheck.errors as err

    t = bk.Torus(2, 8)
    (batch,) = t.quad_nodes()
    bad = np.full(batch.size, np.nan)
    with pytest.raises(err.NanInFieldError):
        t.integrate_chart([bad], t.quad_nodes())


def _composed_trig(modes, amps, const, pts, order):
    """Reference: const + sum_m amps[m] sin(2 pi k_m . x + phase_m) composed in
    jet arithmetic, one ``jets.sin`` per mode."""
    from kahlercheck import jets

    dim = pts.shape[1]
    amps = np.asarray(amps, dtype=float)
    shape = amps.shape[1:]
    xs = Jet.coordinates(pts, dim, order)
    acc = Jet.const(0.0, dim, order, (pts.shape[0],) + shape) + np.asarray(const)
    for (k, ph), a in zip(modes, amps):
        arg = Jet.const(ph, dim, order, (pts.shape[0],))
        for i in range(dim):
            arg = arg + (bk.TWO_PI * float(k[i])) * xs[i]
        s = jets.sin(arg)
        acc = acc + Jet(dim, order, s.coeffs.reshape(s.coeffs.shape + (1,) * len(shape)) * a)
    return acc


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("shape", [(), (4,), (4, 4)])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_trig_field_matches_composed_sin_jets(dim, shape, order):
    rng = np.random.default_rng(100 * dim + 10 * len(shape) + order)
    modes, scal = bk.trig_modes(rng, dim, band=2, nmodes=5, amp=3.0)
    amps = scal.reshape((-1,) + (1,) * len(shape)) * rng.normal(size=(len(modes),) + shape)
    const = rng.normal(size=shape)
    pts = rng.uniform(0.0, 1.0, size=(30, dim))
    got = bk.trig_field(modes, amps, const)(bk.NodeBatch(0, pts), order)
    ref = _composed_trig(modes, amps, const, pts, order)
    assert got.order == order and got.coeffs.shape == ref.coeffs.shape
    scale = np.max(np.abs(ref.coeffs))
    assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-12 * scale


def test_kah4_seeded_sym2_is_symmetric_and_entrywise_seeded():
    from kahlercheck import fields as fl

    fx = bk.make_fixture("KAH4")
    geom = GeometryState(fx)
    (batch,) = fx.check_nodes(0, 25)
    seed = 5
    v = fl.seeded_sym2(geom, seed)(batch, 2).coeffs
    assert np.array_equal(v, np.swapaxes(v, 2, 3))
    for i in range(4):
        for j in range(i, 4):
            rng = fl._rng(seed + 101 * i + 7 * j, "scalar")
            modes, amps = bk.trig_modes(rng, 4, 1, 4, 1.0)
            u = bk.trig_field(modes, amps, rng.normal() / 3.0)(batch, 2).coeffs
            assert np.allclose(v[:, :, i, j], u, rtol=1e-13, atol=1e-13)


def _accessors():
    """Every public ``GeometryState`` accessor taking ``(batch, order)``."""
    import inspect

    return [name for name, fn in vars(GeometryState).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and list(inspect.signature(fn).parameters) == ["self", "batch", "order"]]


def _geometries(flow: bool = True):
    """A fresh-state factory and a small check batch per fixture, then the
    t-series geometries (t-degree 2) of KAH4's linear metric curve and, with
    ``flow``, of FS's Hamiltonian pullback (jet order 6 caps its orders)."""
    from kahlercheck.catalog import _linear_family, make_kahler_family

    fixtures = [bk.make_fixture(kind) for kind in ("FLAT2", "PERT2", "RIEM4", "KAH4", "FS")]
    *_, at = _linear_family(bk.make_fixture("KAH4"), 3)
    fixtures.append(at.series(0.0, 2).fixture)
    if flow:
        fixtures.append(make_kahler_family(bk.make_fixture("FS"), 3).series_at(0.0, 2))
    return [(fx.name, lambda fx=fx: GeometryState(fx), fx.check_nodes(4, 6)[-1])
            for fx in fixtures]


@pytest.mark.parametrize("name", _accessors())
def test_geometry_truncates_to_the_lower_order_build(name):
    # one build serves every lower order, so the truncated jet must be the
    # jet a fresh state builds at that order, to the last bit
    from kahlercheck.errors import (OrderExhaustedError, UnsupportedGeometryError,
                                    UnsupportedOrderError)

    # a tuple (the ambient table) is compared entry by entry
    checked = 0
    for kind, fresh, batch in _geometries():
        geom = fresh()
        if ((name in ("J", "omega") and not geom.is_kahler)
                or (name == "ambient" and not geom.fixture.caps.sphere)):
            with pytest.raises(UnsupportedGeometryError):
                getattr(fresh(), name)(batch, 0)
            continue
        for top in range(4, 0, -1):
            try:
                high = getattr(fresh(), name)(batch, top)
                break
            except (OrderExhaustedError, UnsupportedOrderError):
                continue
        for k in range(top):
            low = getattr(fresh(), name)(batch, k)
            highs, lows = (high, low) if isinstance(high, tuple) else ((high,), (low,))
            assert len(highs) == len(lows), (kind, k)
            for h, l in zip(highs, lows):
                cut = h.truncate(k)
                assert cut.coeffs.shape == l.coeffs.shape, (kind, k)
                assert cut.coeffs.tobytes() == l.coeffs.tobytes(), (kind, k)
                checked += 1
    assert checked


def test_geometry_serves_a_lower_order_from_its_cached_build(monkeypatch):
    from kahlercheck import geometry

    calls = []
    inverse = geometry.inverse_and_logdet
    monkeypatch.setattr(geometry, "inverse_and_logdet", lambda G: calls.append(G) or inverse(G))
    fx = bk.make_fixture("RIEM4")
    geom = GeometryState(fx)
    batch = fx.check_nodes(4, 6)[0]
    high = geom.ric(batch, 2)
    assert np.shares_memory(geom.ric(batch, 0).coeffs, high.coeffs)
    # the connection's one inverse, at order 3, serves ginv and logdetg at
    # every order up to it
    for k in (3, 2, 1, 0):
        geom.logdetg(batch, k)
        geom.ginv(batch, k)
    assert [G.order for G in calls] == [3]


def _logdet_geometries():
    """``(fixture, top order)``: each fixture to order 4, then the t-series
    geometries of KAH4's linear metric curve and of FS's Hamiltonian
    pullback at t-degrees 1 and 2 (the flow's jet order 6 caps the latter
    at order 3)."""
    from kahlercheck.catalog import _linear_family, make_kahler_family

    out = [(bk.make_fixture(kind), 4) for kind in ("FLAT2", "PERT2", "RIEM4", "KAH4", "FS")]
    *_, at = _linear_family(bk.make_fixture("KAH4"), 3)
    family = make_kahler_family(bk.make_fixture("FS"), 3)
    for q in (1, 2):
        out += [(at.series(0.0, q).fixture, 4), (family.series_at(0.0, q), 5 - q)]
    return out


def test_logdetg_by_jacobi_matches_the_neumann_log_determinant():
    worst = 0.0
    for fx, top in _logdet_geometries():
        batch = fx.check_nodes(4, 6)[-1]
        for k in range(top + 1):
            got = GeometryState(fx).logdetg(batch, k)
            ref = inverse_and_logdet(GeometryState(fx).g(batch, k))[1]
            assert got.coeffs.shape == ref.coeffs.shape, (fx.name, k)
            gap, scale = np.max(np.abs(got.coeffs - ref.coeffs)), np.max(np.abs(ref.coeffs))
            assert gap <= 1e-15 * scale, (fx.name, k)
            worst = max(worst, gap / scale) if scale else worst
    assert worst > 0.0          # the two routes are different sums


def test_the_shared_kah4_state_keeps_no_inverse_or_connection_above_its_readers():
    # H reads f at order 2 and Ricci at order 0: log det g by Jacobi's formula
    # reads the inverse at order 1, Ricci builds Gamma at order 1 without
    # storing it, and the Hessian of f reads Gamma at order 0
    from kahlercheck import soliton as so

    fx = bk.make_fixture("KAH4")
    with FixtureScope(fx) as scope:
        so.PerelmanData(GeometryState(fx))
        cache = scope.geometry._cache
        for b in fx.quad_nodes():
            assert max(cache[("inverse", b.token)]) == 1
            assert max(cache[("gamma", b.token)]) == 0


def _count_metric_builds(monkeypatch, fx):
    """The orders of every ``fixture.g`` build, per batch token."""
    calls: dict = {}
    g = fx.g
    monkeypatch.setattr(fx, "g", bk.Field(
        lambda b, k: calls.setdefault(b.token, []).append(k) or g(b, k)))
    return calls


def test_the_shared_kah4_state_stores_the_metric_at_order_one_at_most(monkeypatch):
    # Ricci at order 0 differentiates g at order 2 inside Gamma at order 1,
    # and log det g at order 2 differentiates g at order 2: each builds it,
    # stores its truncation to order 1 for the inverse and drops it
    fx = bk.make_fixture("KAH4")
    blocks = list(fx.quad_nodes())
    refs = []
    for b in blocks:
        geom = GeometryState(fx)
        geom.g(b, 2)
        refs.append((geom.ric(b, 0), geom.f(b, 2)))
    calls = _count_metric_builds(monkeypatch, fx)
    with FixtureScope(fx) as scope:
        geom = GeometryState(fx)
        for b, (ric, f) in zip(blocks, refs):
            assert geom.ric(b, 0).coeffs.tobytes() == ric.coeffs.tobytes()
            assert geom.f(b, 2).coeffs.tobytes() == f.coeffs.tobytes()
            assert max(scope.geometry._cache[("g", b.token)]) == 1
            assert calls[b.token] == [2, 2]


def test_the_kah4_shrinker_group_builds_the_metric_at_most_twice_per_block(monkeypatch):
    fx = bk.make_fixture("KAH4")
    calls = _count_metric_builds(monkeypatch, fx)
    with FixtureScope(fx):
        for cid in ("S-PERELMAN", "S-BOCHNER", "S-STAB", "S-PHI", "S-INT"):
            run_check(cid, "KAH4", 0)
    for b in fx.quad_nodes():
        assert 1 <= len(calls[b.token]) <= 2


def test_connection_and_log_det_read_a_stored_metric_one_order_up(monkeypatch):
    fx = bk.make_fixture("KAH4")
    batch = fx.check_nodes(4, 6)[0]
    calls = _count_metric_builds(monkeypatch, fx)
    geom = GeometryState(fx)
    geom.g(batch, 3)
    geom.gamma(batch, 2)
    geom.logdetg(batch, 3)
    geom.ric(batch, 1)
    assert calls[batch.token] == [3]
    # with no g stored, log det g builds it one order above the inverse and
    # stores the truncation that the inverse then reads
    calls.clear()
    geom = GeometryState(fx)
    geom.logdetg(batch, 2)
    geom.ginv(batch, 1)
    geom.gamma(batch, 0)
    assert calls[batch.token] == [2]
    assert max(geom._cache[("g", batch.token)]) == 1


@pytest.mark.parametrize("kind", ["jet", "tuple"])
def test_a_build_above_the_stored_orders_replaces_them(kind):
    fx = bk.make_fixture("KAH4")
    batch = fx.check_nodes(0, 10)[0]

    def build(order):
        g = fx.g(batch, order)
        return g if kind == "jet" else inverse_and_logdet(g)

    store: dict = {}
    for order in (0, 1, 3):
        by_order(store, "key", order, lambda: build(order))
    built = store["key"]
    assert sorted(built) == [0, 1, 3]
    top = [built[3]] if kind == "jet" else built[3]
    for k in (0, 1):
        low = [built[k]] if kind == "jet" else built[k]
        ref = [build(k)] if kind == "jet" else build(k)
        for a, t, r in zip(low, top, ref):
            assert np.shares_memory(a.coeffs, t.coeffs)
            assert a.coeffs.tobytes() == r.coeffs.tobytes()


def test_the_flow_selection_pulls_each_field_back_once(monkeypatch):
    # a metric dropped on a curve fixture must never cost a second pullback
    from kahlercheck import variation as va

    calls = []
    compose = va.compose_field

    def counted(*args):
        calls.append(args[3])
        return compose(*args)

    monkeypatch.setattr(va, "compose_field", counted)
    monkeypatch.setattr(ck, "compose_field", counted)
    with FixtureScope(bk.make_fixture("FS")):
        for cid in ("V-NJ", "V-DBARVAR", "V-SECORD", "V-DBARVF", "V-KURSYM"):
            assert run_check(cid, "FS", 0).status == "pass"
    assert len(calls) == 126


def test_ricci_from_gamma_is_the_trace_of_riemann():
    from kahlercheck.jets import jet_map

    for kind, fresh, batch in _geometries(flow=False):
        geom = fresh()
        for k in range(3):
            ric = geom.ric(batch, k).coeffs
            trace = jet_map("pijil->pjl", geom.riemann(batch, k)).coeffs
            assert ric.shape == trace.shape
            assert np.max(np.abs(ric - trace)) <= 1e-13 * np.max(np.abs(ric)), (kind, k)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_curvature_products_run_at_the_curvature_order(monkeypatch, k):
    # Gamma one order up is built inside the curvature, unrecorded, unless a
    # build of it is stored, which is then read instead; so every
    # convolution recorded below is a Gamma Gamma product of riemann or ric.
    # None may run above order k, and ric never builds the 4-index tensor
    from kahlercheck import jets

    fx = bk.make_fixture("KAH4")
    batch = fx.check_nodes(4, 6)[0]
    orders, built, inside = [], [], []
    convolve = jets._convolve
    christoffel = GeometryState._christoffel

    def recording(dim, order, *args, **kwargs):
        if not inside:
            orders.append(order)
        return convolve(dim, order, *args, **kwargs)

    def unrecorded(self, batch, order):
        built.append(order)
        inside.append(order)
        try:
            return christoffel(self, batch, order)
        finally:
            inside.pop()

    for stored in (k, k + 1):
        for name in ("riemann", "ric"):
            geom = GeometryState(fx)
            geom.gamma(batch, stored)
            with monkeypatch.context() as m:
                m.setattr(jets, "_convolve", recording)
                m.setattr(GeometryState, "_christoffel", unrecorded)
                if name == "ric":
                    m.setattr(GeometryState, "riemann", None)
                getattr(geom, name)(batch, k)
            assert orders and max(orders) == k, (name, stored)
            assert built == ([k + 1] if stored == k else []), (name, stored)
            assert max(geom._cache[("gamma", batch.token)]) == stored, (name, stored)
            orders.clear()
            built.clear()


def test_integrate_evaluates_the_density_once_per_batch():
    fs = bk.make_fixture("FS")
    tokens = []

    def counted(batch, order):
        tokens.append(batch.token)
        return fs.omega_density(batch, order)

    fx = bk.Fixture(fs.name, fs.backend, fs.g, bk.Field(counted), fs.J, fs.caps,
                    fs.descriptor)
    quad = fx.quad_nodes()
    vals = [np.cos(b.pts[:, 0]) for b in quad]
    totals = [fx.integrate(vals) for _ in range(3)]
    assert totals == [fs.integrate(vals)] * 3
    assert tokens == [b.token for b in quad]
    assert not any(r.flags.writeable for r in fx.density_values(quad))


def _ambient_monomial_loop(chart, xs, degree, coeffs):
    """The polynomial as a sum of constant jets times coordinates, one
    product per factor."""
    X, Y, Z = bk.ambient_coordinates(chart, xs)
    monos = [(i, j, k) for i in range(degree + 1) for j in range(degree + 1)
             for k in range(degree + 1) if 0 < i + j + k <= degree]
    acc = Jet.const(0.0, 2, xs[0].order, xs[0].batch_shape)
    for (i, j, k), c in zip(monos, coeffs):
        term = Jet.const(c, 2, xs[0].order, xs[0].batch_shape)
        for factor, n in ((X, i), (Y, j), (Z, k)):
            for _ in range(n):
                term = term * factor
        acc = acc + term
    return acc


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("degree", [2, 3])
def test_ambient_poly_scalar_matches_the_monomial_loop(order, degree):
    fs = bk.make_fixture("FS")
    backend = fs.backend
    fld = fl.ambient_poly_scalar(GeometryState(fs), np.random.default_rng(4), degree=degree)
    nmonos = math.comb(degree + 3, 3) - 1
    coeffs = np.random.default_rng(4).normal(size=nmonos) / nmonos
    for batch in backend.check_nodes(3, 40):
        ref = _ambient_monomial_loop(batch.chart, Jet.coordinates(batch.pts, 2, order),
                                     degree, coeffs).coeffs
        got = fld(batch, order).coeffs
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def _ambient_products(chart, xs):
    """X, Y, Z by ``ambient_coordinates`` and the monomials of degree two,
    each the product of the monomial with its first exponent lowered by one
    and that coordinate, keyed by exponents."""
    coords = bk.ambient_coordinates(chart, xs)
    built = {}
    for mono in itertools.product(range(3), repeat=3):
        if not 0 < sum(mono) <= 2:
            continue
        a = next(n for n, e in enumerate(mono) if e)
        parent = mono[:a] + (mono[a] - 1,) + mono[a + 1:]
        built[mono] = built[parent] * coords[a] if any(parent) else coords[a]
    return built


def test_ambient_table_is_the_coordinates_and_their_products_bit_for_bit():
    # quadrature blocks and check batches of both charts; each state builds
    # order 4 first, so the lower orders are its truncations
    fs = bk.make_fixture("FS")
    batches = fs.quad_nodes() + fs.check_nodes(3, 40)
    assert {b.chart for b in fs.quad_nodes()} == {b.chart for b in fs.check_nodes(3, 40)} == {0, 1}
    for batch in batches:
        geom = GeometryState(fs)
        for order in (4, 0, 1, 2, 3):
            table = geom.ambient(batch, order)
            ref = _ambient_products(batch.chart, Jet.coordinates(batch.pts, 2, order))
            assert len(table) == len(bk.AMBIENT_MONOMIALS) == len(ref)
            for mono, jet in zip(bk.AMBIENT_MONOMIALS, table):
                assert jet.order == order
                assert jet.coeffs.tobytes() == ref[mono].coeffs.tobytes(), (mono, order)


def test_the_ambient_table_is_stored_only_for_the_backends_own_batches(monkeypatch):
    from kahlercheck import geometry

    fs = bk.make_fixture("FS")
    batch = fs.check_nodes(5, 20)[0]
    assert all(fs.backend.owns(b) for b in fs.quad_nodes() + fs.check_nodes(5, 20))
    assert not fs.backend.owns(bk.NodeBatch(batch.chart, batch.pts))
    seen = []
    table = geometry.ambient_table
    monkeypatch.setattr(geometry, "ambient_table", lambda b, k: seen.append(b) or table(b, k))
    with FixtureScope(fs) as scope:
        cat.make_kahler_family(fs, 2).flow_jets(batch, 0.05, 1)
        stored = {key[1] for key in scope.geometry._cache if key[0] == "ambient"}
    # the Runge-Kutta stages evaluate the Hamiltonian on fresh batches; only
    # the quadrature blocks of its mean and the check batch, whose gradient
    # bound sizes the steps, are stored
    assert any(not fs.backend.owns(b) for b in seen)
    assert stored and stored == {b.token for b in seen if fs.backend.owns(b)}


@pytest.mark.parametrize("kind", ["jet", "tuple", "list"])
def test_by_order_serves_lower_orders_by_truncation(kind):
    fx = bk.make_fixture("KAH4")
    batch = fx.check_nodes(0, 10)[0]

    def make(order):
        g = fx.g(batch, order)
        if kind == "jet":
            return g
        if kind == "tuple":
            return inverse_and_logdet(g)
        return [g, fx.omega_density(batch, order)]

    built = []

    def build(order):
        built.append(order)
        return make(order)

    store: dict = {}
    by_order(store, "key", 3, lambda: build(3))
    for order in (2, 1, 0):
        got = by_order(store, "key", order, lambda: build(order))
        ref = make(order)
        assert type(got) is type(ref)
        for a, b in zip([got] if kind == "jet" else got, [ref] if kind == "jet" else ref):
            assert a.order == order
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
    assert built == [3]
    by_order(store, "key", 4, lambda: build(4))
    assert built == [3, 4]


def test_states_share_one_cache_only_inside_a_scope_on_their_fixture():
    fx, other = bk.make_fixture("PERT2"), bk.make_fixture("FLAT2")
    batch = fx.check_nodes(0, 10)[0]
    assert GeometryState(fx)._cache is not GeometryState(fx)._cache
    with FixtureScope(fx) as scope:
        ginv = GeometryState(fx).ginv(batch, 2)
        assert np.shares_memory(GeometryState(fx).ginv(batch, 1).coeffs, ginv.coeffs)
        assert GeometryState(fx).unweighted()._cache is scope.geometry._cache
        assert GeometryState(other)._cache is not scope.geometry._cache
        with pytest.raises(RuntimeError):
            FixtureScope(other).__enter__()
    assert FixtureScope.current is None and scope.geometry is None


def test_a_write_into_a_shared_cached_jet_raises():
    fx = bk.make_fixture("PERT2")
    batch = fx.check_nodes(0, 10)[0]
    with FixtureScope(fx):
        gamma = GeometryState(fx).gamma(batch, 1)
        pos = cat.make_kahler_family(fx, 0).flow_jets(batch, 0.05, 1)
        for jet in (gamma, gamma.truncate(0), GeometryState(fx).gamma(batch, 0), pos[0]):
            with pytest.raises(ValueError, match="read-only"):
                jet.coeffs[0] += 1.0
