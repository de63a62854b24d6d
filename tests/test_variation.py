import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from kahlercheck import backends as bk
from kahlercheck import catalog as cat
from kahlercheck import checks as ck
from kahlercheck import fields as fl
from kahlercheck import jets
from kahlercheck import soliton as so
from kahlercheck import variation as va
from kahlercheck.catalog import RunOptions
from kahlercheck.geometry import FixtureScope, GeometryState
from kahlercheck.jets import Jet, jet_einsum

OPTS = RunOptions(node_count=25)


def test_fd_first_derivative_analytic():
    d, info = va.fd_derivative(lambda t: np.array([math.sin(t)]), 0.0,
                               order=1, scheme="central-4")
    assert abs(d[0] - 1.0) < 1e-10
    assert info.observed_order is None or abs(info.observed_order - 4) < 0.5
    d2, info2 = va.fd_derivative(lambda t: np.array([math.exp(t)]), 0.0,
                                 order=1, scheme="central-2", richardson_levels=0)
    assert abs(info2.observed_order - 2.0) < 0.1


def test_fd_second_derivative_analytic():
    d, info = va.fd_derivative(lambda t: np.array([math.exp(2 * t)]), 0.0,
                               order=2, scheme="central-2")
    assert abs(d[0] - 4.0) < 1e-8
    assert abs(info.observed_order - 2.0) < 0.5


def test_fd_shrinks_step_inside_window():
    calls = []

    def f(t):
        calls.append(t)
        assert abs(t) <= 0.02001
        return np.array([t * t])

    d, info = va.fd_derivative(f, 0.0, order=1, scheme="central-4",
                               base_step=0.05, t_max=0.02)
    assert info.shrunk
    assert abs(d[0]) < 1e-12


def test_fd_rejects_nan():
    from kahlercheck.errors import NanInFieldError

    with pytest.raises(NanInFieldError):
        va.fd_derivative(lambda t: np.array([float("nan")]), 0.0)


def test_compose_field_is_exact_composition():
    fx = bk.make_fixture("FLAT2")
    geom = GeometryState(fx)
    u = fl.seeded_scalar(geom, 3)
    batch = fx.check_nodes(0, 15)[0]
    pos = Jet.coordinates(batch.pts, 2, 3)
    # nonlinear position perturbation with nonzero jets
    import kahlercheck.jets as jets

    pos = [pos[0] + 0.05 * jets.sin(pos[1] * 2.0), pos[1] * 1.0]
    comp = va.compose_field(u, 0, pos, 3)
    # compare against evaluating u o phi as a closed-form expression
    def direct(batch_, order):
        xs = Jet.coordinates(batch_.pts, 2, order)
        ys = [xs[0] + 0.05 * jets.sin(xs[1] * 2.0), xs[1]]
        return va.compose_field(u, 0, ys, order)

    # sanity: values match a plain evaluation at the displaced points
    moved = batch.pts.copy()
    moved[:, 0] += 0.05 * np.sin(2 * batch.pts[:, 1])
    ref = u(bk.NodeBatch(0, moved), 0)
    assert np.max(np.abs(comp.value - ref.value)) < 1e-13


def test_linear_curve_spd_window():
    fx = bk.make_fixture("PERT2")
    geom = GeometryState(fx)
    v = fl.seeded_sym2(geom, 4)
    Vs = fl.seeded_scalar(geom, 5, mean_zero=True)
    curve = va.LinearCurve(fx, v, Vs)
    assert 0 < curve.t_max <= 0.5
    batch = fx.check_nodes(1, 30)[0]
    gt = curve.fixture_at(curve.t_max / 2).g(batch, 0).value
    assert np.min(np.linalg.eigvalsh(gt)) > 0


def test_hamiltonian_flow_is_symplectic_and_identity_at_zero():
    fx = bk.make_fixture("FS")
    geom = GeometryState(fx)
    ham = fl.seeded_scalar(geom, 6, mean_zero=True, amp=0.5)
    curve = va.HamiltonianFlowCurve(fx, ham)
    batch = fx.check_nodes(2, 40)[0]
    pos0 = curve.flow_jets(batch, 0.0, 2)
    assert np.max(np.abs(pos0[0].value - batch.pts[:, 0])) == 0.0
    for t in (0.05, -0.1):
        gt = GeometryState(curve.fixture_at(t))
        om_t = gt.omega(batch, 0).value
        om_0 = geom.omega(batch, 0).value
        assert np.max(np.abs(om_t - om_0)) < 1e-8
        Jt = gt.J(batch, 0).value
        assert np.max(np.abs(np.einsum("pij,pjk->pik", Jt, Jt) + np.eye(2))) < 1e-10


def test_zero_hamiltonian_freezes_everything():
    fx = bk.make_fixture("FS")
    zero = bk.chart_expr_field(fx.backend,
                               lambda x, y: Jet.const(0.0, 2, x.order, x.batch_shape))
    curve = va.HamiltonianFlowCurve(fx, zero)
    batch = fx.check_nodes(3, 20)[0]
    g0 = fx.g(batch, 1).coeffs
    gt = curve.fixture_at(0.1).g(batch, 1).coeffs
    assert np.max(np.abs(g0 - gt)) < 1e-14


def test_conjugation_curve_structure():
    fx = bk.make_fixture("KAH4")
    geom = GeometryState(fx)
    A = fl.seeded_antilinear(geom, 7)
    curve = va.StructureConjugationCurve(fx, A)
    batch = fx.check_nodes(4, 30)[0]
    for t in (0.0, 0.1):
        fxt = curve.fixture_at(t)
        Jt = fxt.J(batch, 0).value
        assert np.max(np.abs(np.einsum("pij,pjk->pik", Jt, Jt) + np.eye(4))) < 1e-12
        gt = fxt.g(batch, 0).value
        assert np.max(np.abs(gt - np.swapaxes(gt, 1, 2))) < 1e-11
        assert np.min(np.linalg.eigvalsh(0.5 * (gt + np.swapaxes(gt, 1, 2)))) > 0
    # initial speed of J is the chosen anti-linear direction
    Jdot, _ = va.fd_derivative(lambda t: curve.fixture_at(t).J(batch, 0), 0.0,
                               order=1, scheme="central-4")
    assert np.max(np.abs(Jdot.value - A(batch, 0).value)) < 1e-11


def _counting(field, counts, name):
    def fn(batch, order):
        counts[(name, batch.token, order)] += 1
        return field(batch, order)

    return bk.Field(fn)


def _linear_setup(Vstar=True):
    fx = bk.make_fixture("KAH4")
    geom = GeometryState(fx)
    v = fl.seeded_sym2(geom, 4)
    Vs = fl.seeded_scalar(geom, 5, mean_zero=True) if Vstar else None
    return fx, v, Vs, fx.check_nodes(1, 12)[0]


def test_linear_curve_evaluates_its_direction_once_per_batch_and_order():
    fx, v, Vs, batch = _linear_setup()
    counts = Counter()
    curve = va.LinearCurve(fx, _counting(v, counts, "v"), _counting(Vs, counts, "Vs"))
    ts = []

    def f_map(t):
        # a state serves lower orders by truncating its own builds, so it
        # takes two states to ask the curve for its terms at two orders; the
        # curve serves the lower one by truncating its own term
        ts.append(t)
        so.H_scalar(GeometryState(curve.fixture_at(t)), batch, 1)
        return so.H_scalar(GeometryState(curve.fixture_at(t)), batch, 0)

    va.fd_derivative(f_map, 0.0, order=1, scheme="central-4", richardson_levels=1)
    assert len(ts) == 8
    orders = {(n, k) for n, tok, k in counts if tok == batch.token}
    assert orders == {("v", 3), ("Vs", 3)}
    # an order above the one built evaluates the term again, once
    so.H_scalar(GeometryState(curve.fixture_at(0.0)), batch, 2)
    orders = {(n, k) for n, tok, k in counts if tok == batch.token}
    assert orders == {(n, k) for n in ("v", "Vs") for k in (3, 4)}
    assert set(counts.values()) == {1}


def test_conjugation_curve_evaluates_its_direction_once_per_batch_and_order():
    fx = bk.make_fixture("KAH4")
    counts = Counter()
    A = _counting(fl.seeded_antilinear(GeometryState(fx), 7), counts, "A")
    curve = va.StructureConjugationCurve(fx, A)
    batch = fx.check_nodes(4, 12)[0]
    def f_map(t):
        # two states, so the curve is asked for its direction at two orders;
        # the lower one is served by truncation
        so.H_scalar(GeometryState(curve.fixture_at(t)), batch, 1)
        return so.H_scalar(GeometryState(curve.fixture_at(t)), batch, 0)

    va.fd_derivative(f_map, 0.0, order=1, scheme="central-4", richardson_levels=1)
    assert len({k for _, _, k in counts}) == 1
    # an order above the one built evaluates the direction again, once
    so.H_scalar(GeometryState(curve.fixture_at(0.0)), batch, 2)
    assert len({k for _, _, k in counts}) == 2
    assert set(counts.values()) == {1}


def test_s_dh_evaluates_each_direction_once_per_batch_and_order(monkeypatch):
    counts = Counter()
    made = []
    eta = so.eta_direction_fields

    def counted(geom, psi_field):
        made.append(len(made))
        v, Vs = eta(geom, psi_field)
        return (_counting(v, counts, ("v", made[-1])),
                _counting(Vs, counts, ("Vs", made[-1])))

    monkeypatch.setattr(so, "eta_direction_fields", counted)
    rec = ck.run_check("S-DH", "FS", 0, RunOptions())
    assert rec.status == "pass"
    assert len(made) == 2 and {n for n, _, _ in counts} == \
        {(w, i) for w in ("v", "Vs") for i in (0, 1)}
    assert set(counts.values()) == {1}


@pytest.mark.parametrize("check_id", ["V-HESS", "V-HESS-F"])
def test_second_variation_takes_one_stencil_per_batch(monkeypatch, check_id):
    # every kappa and right-hand side shares the batch's one t-series of H
    orders = []
    tder = cat._tder

    def counted(at, map_fn, order=1, t0=0.0):
        orders.append(order)
        return tder(at, map_fn, order, t0)

    monkeypatch.setattr(cat, "_tder", counted)
    rec = ck.run_check(check_id, "PERT2", 0, OPTS)
    assert rec.status == "pass"
    assert orders == [2] * len(bk.make_fixture("PERT2").check_nodes(0, OPTS.node_count))


def test_linear_curve_matches_the_uncached_formula_bit_for_bit():
    fx, v, Vs, batch = _linear_setup()
    curve = va.LinearCurve(fx, v, Vs)
    for t in (0.01, -0.005, 0.02):
        fxt = curve.fixture_at(t)
        for order in (0, 2):
            g_ref = fx.g(batch, order) + v(batch, order) * t
            rho = fx.omega_density(batch, order)
            rho_ref = rho + jet_einsum("p,p->p", rho, Vs(batch, order)) * t
            assert fxt.g(batch, order).coeffs.tobytes() == g_ref.coeffs.tobytes()
            assert fxt.omega_density(batch, order).coeffs.tobytes() == \
                rho_ref.coeffs.tobytes()


def test_cached_curve_terms_are_read_only():
    fx, v, _, batch = _linear_setup(Vstar=False)
    line = va.LinearCurve(fx, v, None)
    rho = line.fixture_at(0.01).omega_density(batch, 1)   # the cached base term
    with pytest.raises(ValueError):
        rho.coeffs[0] += 1.0
    with pytest.raises(ValueError):
        rho.truncate(0).coeffs[0] = 0.0
    conj = va.StructureConjugationCurve(fx, fl.seeded_antilinear(GeometryState(fx), 7))
    conj.fixture_at(0.01).g(batch, 1)
    for curve in (line, conj):
        assert curve._terms
        assert not any(j.coeffs.flags.writeable
                       for built in curve._terms.values() for j in built.values())


def test_curve_terms_do_not_outlive_the_curve():
    fx, v, Vs, batch = _linear_setup()
    curve = va.LinearCurve(fx, v, Vs)
    va.fd_derivative(lambda t: curve.fixture_at(t).g(batch, 1), 0.0,
                     order=1, scheme="central-4", richardson_levels=1)
    ref = weakref.ref(curve)
    del curve
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("cid,fixture", [
    ("V-F", "PERT2"),
    ("V-ADJ", "RIEM4"),
    ("V-DIV1", "PERT2"),
    ("V-SUPER", "KAH4"),
    ("V-DH", "PERT2"),
    ("V-GDOT", "FS"),
    ("V-NJ", "KAH4"),
    ("V-TRANS", "FLAT2"),
])
def test_catalog_entries_pass(cid, fixture):
    entry = ck.REGISTRY[cid]
    out = entry.runner(bk.make_fixture(fixture), 11, OPTS)
    assert not out.skip
    assert out.sup < entry.tolerance, (cid, fixture, out.sup)


def test_v_hess_kappa_protocol():
    out = cat.run_v_hess(bk.make_fixture("FLAT2"), 11, OPTS)
    assert not out.skip
    assert out.sup < 1e-6
    assert out.details["kappa_independence"] < 1e-8


def test_v_kur1_never_vacuously_passes():
    out = cat.run_v_kur1(bk.make_fixture("FS"), 11, OPTS)
    assert out.skip
    out2 = cat.run_v_fundcx(bk.make_fixture("FS"), 11, OPTS)
    assert "trivial" in out2.skip


def test_flow_initial_speed_is_lie_derivative():
    # d/dt at 0 of the transported structure equals the Lie derivative of J
    # along the generating field: (L_xi J)^i_j = xi^k d_k J^i_j
    # - J^k_j d_k xi^i + J^i_k d_j xi^k, evaluated directly from jets
    fx = bk.make_fixture("FS")
    geom = GeometryState(fx)
    ham = fl.seeded_scalar(geom, 8, mean_zero=True, amp=0.5)
    curve = va.HamiltonianFlowCurve(fx, ham)
    batch = fx.check_nodes(5, 40)[0]
    Jdot, _ = va.fd_derivative(lambda t: curve.fixture_at(t).J(batch, 0), 0.0,
                               order=1, scheme="central-4")
    from kahlercheck.jets import jet_einsum, jet_map

    xi = curve.xi(batch, 2)
    J = geom.J(batch, 2)
    dxi = jet_map("pid->pdi", xi.gradient())
    dJ = jet_map("pijd->pdij", J.gradient())
    lie = jet_einsum("pk,pkij->pij", xi.truncate(1), dJ) \
        - jet_einsum("pkj,pki->pij", J.truncate(1), dxi) \
        + jet_einsum("pik,pjk->pij", J.truncate(1), dxi)
    assert np.max(np.abs(Jdot.value - lie.value)) < 1e-7


def test_flow_field_matches_the_cached_geometry():
    # xi is evaluated on each Runge-Kutta stage's fresh batch without a
    # geometry cache; it must equal the formula through GeometryState bit for
    # bit
    fx = bk.make_fixture("FS")
    ham = fl.seeded_scalar(GeometryState(fx), 6, mean_zero=True, amp=0.5)
    curve = va.HamiltonianFlowCurve(fx, ham)
    batch = fx.check_nodes(2, 30)[0]
    from kahlercheck.geometry import inverse_and_logdet
    from kahlercheck.jets import jet_einsum

    om_inv, _ = inverse_and_logdet(GeometryState(fx).omega(batch, 2))
    ref = jet_einsum("pij,pj->pi", om_inv, ham(batch, 3).gradient()) * (-0.5)
    assert curve.xi(batch, 2).coeffs.tobytes() == ref.coeffs.tobytes()


def _flow_setup(npts=20):
    fx = bk.make_fixture("FS")
    ham = fl.seeded_scalar(GeometryState(fx), 6, mean_zero=True, amp=0.5)
    return fx, ham, fx.check_nodes(2, npts)[0]


def _count_compose(monkeypatch):
    sizes = []
    compose = va.compose_field

    def counted(field, chart, pos, order):
        sizes.append(pos[0].batch_shape[0])
        return compose(field, chart, pos, order)

    monkeypatch.setattr(va, "compose_field", counted)
    return sizes


STAGES = 7      # compose calls, evaluations of xi, per Runge-Kutta step


@pytest.mark.parametrize("orbit,steps", [((0.05, -0.05, 0.1), (1, 1, 1)),
                                         ((0.1, -0.05, 0.05), (2, 1, 1))],
                         ids=["gauge-order", "reversed"])
def test_each_flow_is_integrated_alone(monkeypatch, orbit, steps):
    # S-GAUGE's orbit points, asked for in either order; 0.1 continues a
    # cached 0.05, which takes the same step of 0.05, and nothing else is
    # shared
    fx, ham, batch = _flow_setup()
    refs = {t: va.HamiltonianFlowCurve(fx, ham).flow_jets(batch, t, 1) for t in orbit}
    curve = va.HamiltonianFlowCurve(fx, ham)
    sizes = _count_compose(monkeypatch)
    for t, n in zip(orbit, steps):
        del sizes[:]
        got = curve.flow_jets(batch, t, 1)
        # the steps not yet taken, on the batch's own points
        assert sizes == [batch.size] * (STAGES * n)
        for g, r in zip(got, refs[t]):
            assert g.coeffs.tobytes() == r.coeffs.tobytes()
    # one flow per (step, steps taken)
    assert {(h, n) for (_, h), runs in curve._flows.items() for n in runs} == \
        {(t / curve._steps(batch, t), curve._steps(batch, t)) for t in orbit}
    del sizes[:]
    pos0 = curve.flow_jets(batch, 0.0, 2)
    assert sizes == []
    for i, p in enumerate(pos0):
        assert p.coeffs.tobytes() == Jet.coordinate(i, batch.pts, 2, 2).coeffs.tobytes()


@pytest.mark.parametrize("prefix_order,order,steps", [(1, 1, 1), (3, 3, 1), (3, 1, 1),
                                                       (1, 3, 2)])
def test_a_flow_continues_a_cached_flow_on_its_step(monkeypatch, prefix_order, order, steps):
    # V-KURSYM asks for 0.05 and then 0.1, both in steps of 0.05; a cached
    # flow of lower order than the one asked for cannot serve
    fx, ham, _ = _flow_setup()
    curve = va.HamiltonianFlowCurve(fx, ham)
    batches = fx.check_nodes(2, 20)
    assert {b.chart for b in batches} == {0, 1}
    for batch in batches:
        assert curve._steps(batch, 0.05) == 1 and curve._steps(batch, 0.1) == 2
        curve.flow_jets(batch, 0.05, prefix_order)
        sizes = _count_compose(monkeypatch)
        got = curve.flow_jets(batch, 0.1, order)
        monkeypatch.undo()
        assert sizes == [batch.size] * (STAGES * steps)
        ref = va.HamiltonianFlowCurve(fx, ham).flow_jets(batch, 0.1, order)
        for g, r in zip(got, ref):
            assert g.order == order and g.coeffs.tobytes() == r.coeffs.tobytes()


@pytest.mark.parametrize("orbit", [(0.04000000000000001, -0.04000000000000001, 0.05),
                                   (-0.04, 0.05, 0.04)])
def test_flows_on_other_steps_never_continue_each_other(monkeypatch, orbit):
    # V-NJ's +-0.04 take one step of +-0.04 each, V-KURSYM's 0.05 one of 0.05
    fx, ham, batch = _flow_setup()
    curve = va.HamiltonianFlowCurve(fx, ham)
    sizes = _count_compose(monkeypatch)
    for t in orbit:
        del sizes[:]
        got = curve.flow_jets(batch, t, 2)
        assert curve._steps(batch, t) == 1
        assert sizes == [batch.size] * (STAGES * curve._steps(batch, t))
        ref = va.HamiltonianFlowCurve(fx, ham).flow_jets(batch, t, 2)
        for g, r in zip(got, ref):
            assert g.coeffs.tobytes() == r.coeffs.tobytes()
    # each under a key of its own
    assert sorted(h for _, h in curve._flows) == sorted(round(t, 12) for t in orbit)


def test_lower_order_flow_reuses_a_higher_order_one(monkeypatch):
    fx, ham, batch = _flow_setup()
    curve = va.HamiltonianFlowCurve(fx, ham)
    high = curve.flow_jets(batch, 0.05, 3)
    sizes = _count_compose(monkeypatch)
    low = curve.flow_jets(batch, 0.05, 2)
    assert sizes == []
    direct = va.HamiltonianFlowCurve(fx, ham).flow_jets(batch, 0.05, 2)
    for p, h, d in zip(low, high, direct):
        assert p.order == 2 and np.shares_memory(p.coeffs, h.coeffs)
        assert p.coeffs.tobytes() == d.coeffs.tobytes()


def test_flow_is_integrated_at_its_canonical_t():
    # a t one ulp above 0.05 shares the key of 0.05 but would take 2 steps
    fx, ham, batch = _flow_setup()
    t = float(np.nextafter(0.05, 1.0))
    curve = va.HamiltonianFlowCurve(fx, ham)
    assert curve._steps(batch, t) == 2 and curve._steps(batch, 0.05) == 1
    got = curve.flow_jets(batch, t, 2)
    assert list(curve._flows) == [(batch.token, 0.05)]
    assert list(curve._flows[(batch.token, 0.05)]) == [1]
    ref = va.HamiltonianFlowCurve(fx, ham).flow_jets(batch, 0.05, 2)
    for g, r in zip(got, ref):
        assert g.coeffs.tobytes() == r.coeffs.tobytes()


def _rk6(f, y, h):
    ks = []
    for row in va._RK6_A:
        ks.append(f(y + h * sum(w * ks[j] for j, w in row)))
    return y + h * sum(w * ks[j] for j, w in va._RK6_B)


def test_the_runge_kutta_tableau_has_order_six():
    nodes = (0, 1 / 3, 2 / 3, 1 / 3, 1 / 2, 1 / 2, 1)
    assert len(va._RK6_A) == len(nodes) == STAGES
    for row, c in zip(va._RK6_A, nodes):
        assert math.isclose(sum(w for _, w in row), c, abs_tol=1e-15)
    assert math.isclose(sum(w for _, w in va._RK6_B), 1.0)

    # the pendulum y'' = -sin y to t = 2: halving h cuts the error by about
    # 2^6 (the classical RK4 by 16)
    def run(n):
        y = np.array([1.0, 0.0])
        for _ in range(n):
            y = _rk6(lambda v: np.array([v[1], -np.sin(v[0])]), y, 2.0 / n)
        return y

    ref = run(512)
    errs = [np.max(np.abs(run(n) - ref)) for n in (4, 8, 16)]
    assert errs[0] / errs[1] >= 50 and errs[1] / errs[2] >= 50


def _flow(curve, batch, t, n, order):
    """The flow to t in n steps from the identity, stacked by coordinate."""
    pos = Jet.coordinates(batch.pts, curve.base.backend.dim, order)
    for _ in range(n):
        pos = curve._rk6_step(batch.chart, pos, t / n, order)
    return np.stack([p.coeffs for p in pos])


def _flow_error(curve, batch, t, order, ref_steps):
    got = np.stack([p.coeffs for p in curve.flow_jets(batch, t, order)])
    return np.max(np.abs(got - _flow(curve, batch, t, ref_steps, order)))


def test_a_flow_step_has_order_six():
    # an FS flow to t = 1, far beyond the suite's, so that the error of one
    # step stands above roundoff
    fx, ham, batch = _flow_setup(30)
    curve = va.HamiltonianFlowCurve(fx, ham)
    ref = _flow(curve, batch, 1.0, 64, 2)
    errs = [np.max(np.abs(_flow(curve, batch, 1.0, n, 2) - ref)) for n in (1, 2, 4)]
    assert errs[0] / errs[1] >= 50 and errs[1] / errs[2] >= 50


def test_the_fs_flows_match_a_converged_reference():
    # V-NJ's +-0.04 and V-KURSYM's 0.05 and 0.1 on the family, and S-GAUGE's
    # orbit on its 40-node check batch (where RK4 in steps of 0.0125 was up
    # to 2e-13 off), at order 3: one step each to +-0.05
    fs = bk.make_fixture("FS")
    gauge = fl.seeded_scalar(GeometryState(fs), 0 + 59, mean_zero=True, amp=0.5)
    flows = [(cat.make_kahler_family(fs, 0), fs.check_nodes(0, 120), (0.04, -0.04, 0.05, 0.1)),
             (va.HamiltonianFlowCurve(fs, gauge), fs.check_nodes(0, 40), (0.05, -0.05, 0.1))]
    for curve, batches, ts in flows:
        for batch in batches:
            assert curve._steps(batch, 0.05) == 1
            for t in ts:
                assert _flow_error(curve, batch, t, 3, 16) <= 1e-14


def test_the_steep_pert2_flow_takes_more_steps_and_matches_a_converged_reference():
    # S-GAUGE/PERT2 at seed 3, as run_gauge builds it: the flow to 0.08 on
    # its check batch at order 3, where RK4 in steps of 0.0125 was 5.6e-4 off
    fx = bk.make_fixture("PERT2")
    ham = fl.seeded_scalar(GeometryState(fx), 3 + 59, mean_zero=True, amp=0.15)
    curve = va.HamiltonianFlowCurve(fx, ham)
    (batch,) = fx.check_nodes(3, 60)
    n = curve._steps(batch, 0.08)
    assert n >= 3
    assert _flow_error(curve, batch, 0.08, 3, 8 * n) <= 5.6e-4


def _nan_gradient(field):
    def fn(batch, order):
        jet = field(batch, order)
        coeffs = jet.coeffs.copy()
        coeffs[1:] = np.nan
        return Jet(jet.dim, jet.order, coeffs)

    return bk.Field(fn)


def test_a_non_finite_or_too_steep_field_ends_in_flow_diverged(monkeypatch):
    from kahlercheck.errors import FlowDivergedError

    fx, ham, batch = _flow_setup()
    with pytest.raises(FlowDivergedError, match="non-finite gradient"):
        va.HamiltonianFlowCurve(fx, _nan_gradient(ham)).flow_jets(batch, 0.05, 1)
    steep = bk.Field(lambda b, k: ham(b, k) * 1e6)
    with pytest.raises(FlowDivergedError, match="steps"):
        va.HamiltonianFlowCurve(fx, steep).flow_jets(batch, 0.05, 1)
    # through a registered check it is a failed record, not a traceback
    seeded = fl.seeded_scalar
    monkeypatch.setattr(ck.fl, "seeded_scalar",
                        lambda *a, **kw: _nan_gradient(seeded(*a, **kw)))
    rec = ck.run_check("S-GAUGE", "PERT2", 0, OPTS)
    assert rec.status == "fail" and rec.reason.startswith("flow-diverged:")


def test_one_flow_curve_per_fixture_and_seed():
    fs = bk.make_fixture("FS")
    with FixtureScope(fs):
        curve = cat.make_kahler_family(fs, 4)
        assert cat.make_kahler_family(fs, 4) is curve
        assert cat.make_structure_curve(fs, 4) is curve
        assert cat.make_kahler_family(fs, 5) is not curve
        assert cat.make_kahler_family(bk.make_fixture("KAH4"), 4) is not curve
    # outside a scope no curve outlives its caller
    assert cat.make_kahler_family(fs, 4) is not curve


def test_a_record_does_not_depend_on_the_checks_run_before_it():
    # V-NJ asks the curve for flows to +-0.04000000000000001 and V-KURSYM for
    # a literal 0.05, on the same curve and the same batches
    fs = bk.make_fixture("FS")
    opts = RunOptions(node_count=40)

    def record(cid):
        rec = ck.run_check(cid, "FS", 0, opts).to_record()
        rec.pop("runtime_ms")
        return rec

    with FixtureScope(fs):
        alone = record("V-KURSYM")
    with FixtureScope(fs):
        record("V-NJ")
        assert record("V-KURSYM") == alone


def _recompose_with_products(F, pos, order):
    """_recompose with every monomial a chain of full products from the
    constant 1, in the engine's order of factors (the last axis first)."""
    dim, q = pos[0].dim, pos[0].q
    w = []
    for p in pos:
        inc = p.truncate(order).copy()
        inc.coeffs[0] = 0.0
        w.append(inc)
    out = None
    for idx, beta in enumerate(jets.table(dim, order + q).alphas.tolist()):
        if not np.any(F.coeffs[idx]):
            continue
        mono = Jet.const(1.0, dim, order, pos[0].batch_shape)
        for a in reversed(range(dim)):
            for _ in range(beta[a]):
                mono = jets.jet_mul(mono, w[a])
        term = Jet(dim, order, mono.coeffs.reshape(mono.coeffs.shape + (1,)) * F.coeffs[idx][None])
        out = term if out is None else out + term
    return out.coeffs


@pytest.mark.parametrize("q", [0, 2])
def test_recompose_matches_full_products_bit_for_bit(q):
    # increments skip their zero blocks and are their own degree-one
    # monomials; signed zeros in the positions must not show
    fx, ham, batch = _flow_setup()
    curve = va.HamiltonianFlowCurve(fx, ham)
    pos = curve.flow_series(batch, 0.0, 3, q)
    pos = [jets.series([jets.tcoeff(p, j) * 1.5 for j in range(q + 1)]) for p in pos]
    for p in pos:
        p.coeffs[2::5] = -0.0
    F = curve.xi(batch, 3 + q)
    got = va._recompose(F, pos, 3)
    assert got.coeffs.tobytes() == _recompose_with_products(F, pos, 3).tobytes()


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("t0", [0.0, 0.05])
def test_flow_series_serves_lower_orders_by_truncation(q, t0):
    fx, ham, batch = _flow_setup()
    curve = va.HamiltonianFlowCurve(fx, ham)
    high = curve.flow_series(batch, t0, 3, q)
    for order in (3, 2, 1):
        got = curve.flow_series(batch, t0, order, q)
        ref = va.HamiltonianFlowCurve(fx, ham).flow_series(batch, t0, order, q)
        for g, h, r in zip(got, high, ref):
            assert g.order == order and np.shares_memory(g.coeffs, h.coeffs)
            assert g.coeffs.tobytes() == r.coeffs.tobytes()


def test_compose_field_leaves_no_reference_cycles():
    fx, ham, batch = _flow_setup()
    curve = va.HamiltonianFlowCurve(fx, ham)
    pos = Jet.coordinates(batch.pts, 2, 3)
    va.compose_field(curve.xi, batch.chart, pos, 3)     # warm the caches
    gc.collect()
    gc.disable()
    try:
        va.compose_field(curve.xi, batch.chart, pos, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- exact t-derivatives from the curves' series ----------------------------


def _series_curves():
    pert = bk.make_fixture("PERT2")
    pg = GeometryState(pert)
    kah = bk.make_fixture("KAH4")
    fs = bk.make_fixture("FS")
    return {
        "linear/PERT2": (va.LinearCurve(pert, fl.seeded_sym2(pg, 4),
                                        fl.seeded_scalar(pg, 5, mean_zero=True)),
                         lambda gt, b: so.H_scalar(gt, b, 0)),
        "conjugation/KAH4": (va.StructureConjugationCurve(
            kah, fl.seeded_antilinear(GeometryState(kah), 7)), lambda gt, b: gt.g(b, 1)),
        "flow/FS": (cat.make_kahler_family(fs, 0), lambda gt, b: gt.g(b, 2)),
    }


@pytest.mark.parametrize("name,t0", [("linear/PERT2", 0.0), ("conjugation/KAH4", 0.0),
                                     ("flow/FS", 0.0), ("flow/FS", 0.1)])
def test_series_coefficients_match_the_stencil(name, t0):
    curve, map_fn = _series_curves()[name]
    batch = curve.base.check_nodes(0, 12)[0]
    value = map_fn(GeometryState(curve.fixture_at(t0)), batch).coeffs
    for order, scheme in ((1, "central-4"), (2, "central-2")):
        series = map_fn(GeometryState(curve.series_at(t0, order)), batch)
        assert series.q == order
        # the t^0 coefficient is the geometry at t0
        assert np.max(np.abs(jets.tcoeff(series, 0).coeffs - value)) <= \
            1e-13 * np.max(np.abs(value))
        exact = jets.tcoeff(series, order).coeffs * math.factorial(order)
        # the stencil's own error, from two base steps
        ref = [va.fd_derivative(lambda t: map_fn(GeometryState(curve.fixture_at(t)), batch),
                                t0, order=order, scheme=scheme, base_step=h,
                                t_max=curve.t_max)[0].coeffs for h in (1e-2, 5e-3)]
        stencil_err = np.max(np.abs(ref[0] - ref[1]))
        scale = max(np.max(np.abs(ref[1])), 1.0)
        assert np.max(np.abs(exact - ref[1])) <= 10 * stencil_err + 1e-12 * scale, \
            (name, t0, order, np.max(np.abs(exact - ref[1])), stencil_err)


def test_v_hess_f_does_not_sit_on_a_stencil_floor():
    # an ulp-level rescale of the metric moves an exact second variation by
    # roundoff only; a step-size stencil moved it by tens of percent
    fx = bk.make_fixture("KAH4")
    sups = []
    for eps in (0.0, 4e-16, -4e-16):
        g = bk.Field(lambda b, k, eps=eps: fx.g(b, k) * (1.0 + eps))
        scaled = bk.Fixture(fx.name, fx.backend, g, fx.omega_density, fx.J, fx.caps,
                            fx.descriptor)
        sups.append(cat.run_v_hess_f(scaled, 0, RunOptions()).sup)
    assert max(abs(s - sups[0]) for s in sups) < 1e-12
    assert sups[0] < 1e-10
