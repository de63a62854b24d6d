import math

import numpy as np
import pytest

from kahlercheck import backends as bk
from kahlercheck import fields as fl
from kahlercheck import kahler as kh
from kahlercheck import soliton as so
from kahlercheck import tensorcalc as tc
from kahlercheck.backends import Field
from kahlercheck.geometry import GeometryState
from kahlercheck.jets import jet_einsum


def geom_for(kind):
    return GeometryState(bk.make_fixture(kind))


def sup(x):
    return float(np.max(np.abs(x)))


@pytest.fixture(scope="module")
def fs():
    geom = geom_for("FS")
    return geom, so.PerelmanData(geom), so.lambda_basis(geom)


def test_perelman_flat2():
    geom = geom_for("FLAT2")
    pdata = so.PerelmanData(geom)
    batch = geom.fixture.check_nodes(0, 30)[0]
    h = pdata.h(batch, 0)
    g = geom.g(batch, 0)
    assert sup(h.value + g.value) < 1e-14
    H = so.H_scalar(geom, batch, 0)
    assert sup(H.value + 1.0) < 1e-14
    assert sup(pdata.H_bar(batch, 0).value) < 1e-13


def test_perelman_means_are_zero():
    for kind in ("PERT2", "RIEM4", "FS"):
        geom = geom_for(kind)
        pdata = so.PerelmanData(geom)
        nodes = geom.fixture.quad_nodes()
        intF = geom.fixture.integrate([pdata.F(b, 0).value for b in nodes])
        intHb = geom.fixture.integrate([pdata.H_bar(b, 0).value for b in nodes])
        assert abs(intF) < 1e-10, kind
        assert abs(intHb) < 1e-10, kind


def test_fs_soliton_residuals(fs):
    geom, pdata, _ = fs
    for batch in geom.fixture.check_nodes(1, 60):
        assert sup(pdata.h(batch, 0).value) < 1e-9
        assert sup(pdata.H_bar(batch, 0).value) < 1e-9
        assert sup(pdata.F(batch, 0).value) < 1e-10
        # symplectic form equals the curvature form of the density
        cr = so.chern_ricci(geom, batch, 0)
        om = geom.omega(batch, 0)
        assert sup(cr.value - om.value) < 1e-9
        # J recovered from the form and the metric
        gi = np.linalg.inv(om.value)
        J = np.einsum("pij,pjk->pik", gi, geom.g(batch, 0).value)
        assert sup(J - geom.J(batch, 0).value) < 1e-10


def test_flat_torus_chern_ricci_vanishes():
    geom = geom_for("FLAT2")
    batch = geom.fixture.check_nodes(2, 20)[0]
    assert sup(so.chern_ricci(geom, batch, 0).value) < 1e-14


def test_lambda_basis_kernel(fs):
    geom, _, basis = fs
    for f in basis.functions:
        for b in geom.fixture.check_nodes(0, 80):
            lam = kh.complex_laplacian(geom, b, f(b, 2)) - f(b, 0) * 2.0
            assert sup(lam.value) < 1e-8
    ev = np.linalg.eigvalsh(basis.gram)
    assert ev[0] > 1e-3
    assert basis.cond < 1e4
    # means vanish
    nodes = geom.fixture.quad_nodes()
    for f in basis.functions:
        m = geom.fixture.integrate([f(b, 0).value for b in nodes])
        assert abs(m) < 1e-10


def test_fs_kernel_functions_are_degree_one_harmonics(fs):
    geom, _, basis = fs
    # the real span must coincide with span{X, Y, Z}: check each u_i is a
    # complex combination by projecting onto ambient degree-1 harmonics
    nodes = geom.fixture.quad_nodes()
    amb = []
    for b in nodes:
        x, y = b.pts[:, 0], b.pts[:, 1]
        r2 = x * x + y * y
        X = 2 * x / (1 + r2)
        Y = (2 * y / (1 + r2)) * (1.0 if b.chart == 0 else -1.0)
        Z = ((r2 - 1) / (1 + r2)) * (1.0 if b.chart == 0 else -1.0)
        amb.append(np.stack([X, Y, Z], axis=0))
    for f in basis.functions:
        vals = [f(b, 0).value for b in nodes]
        # residual after least squares onto the three harmonics
        M = np.concatenate([a.T for a in amb], axis=0)
        v = np.concatenate(vals)
        coef, *_ = np.linalg.lstsq(M, v, rcond=None)
        res = v - M @ coef
        assert sup(res) < 1e-9


def test_p_operator_kills_kernel_real_parts(fs):
    from kahlercheck.jets import Jet

    geom, _, basis = fs
    for batch in geom.fixture.check_nodes(3, 50):
        for f in basis.functions:
            w = f(batch, 4)
            wr = Jet(w.dim, w.order, np.real(w.coeffs))
            out = kh.p_operator(geom, batch, wr)
            assert sup(out.value) < 1e-7
            assert sup(np.imag(out.value)) < 1e-10


def test_projector_pi2(fs):
    geom, _, basis = fs
    proj = so.KernelProjector(geom, basis)
    assert proj.rank == 3
    nodes = geom.fixture.quad_nodes()
    w_field = fl.seeded_scalar(geom, 4, mean_zero=True)
    w = [w_field(b, 0).value for b in nodes]
    pi1, pi2 = proj.split(w)
    # completeness
    rec = max(sup(a + b - c) for a, b, c in zip(pi1, pi2, w))
    assert rec < 1e-12
    # idempotency and orthogonality
    _, pi2b = proj.split(pi2)
    assert max(sup(a - b) for a, b in zip(pi2, pi2b)) < 1e-9
    cross = geom.fixture.integrate([a * b for a, b in zip(pi1, pi2)])
    assert abs(cross) < 1e-9
    # projection fixes kernel elements
    u0 = [np.real(basis.functions[0](b, 0).value) for b in nodes]
    _, pi2u = proj.split(u0)
    assert max(sup(a - b) for a, b in zip(pi2u, u0)) < 1e-9
    # constants are rejected
    from kahlercheck.errors import BadInputError
    with pytest.raises(BadInputError):
        proj.split([np.ones_like(v) for v in w])


def test_g_metric_properties(fs):
    geom, _, basis = fs
    # kernel degeneracy
    u = basis.functions[0]
    assert abs(so.g_metric(geom, u, u)) < 1e-8
    # positivity off the kernel: seeded mean-zero function projected off
    proj = so.KernelProjector(geom, basis)
    nodes = geom.fixture.quad_nodes()
    w_field = fl.seeded_complex_scalar(geom, 5)
    for part in (np.real, np.imag):
        vals = [part(w_field(b, 0).value) for b in nodes]
        pi1, _ = proj.split(vals)

    phi = fl.seeded_complex_scalar(geom, 6)
    psi = fl.seeded_complex_scalar(geom, 7)
    a = so.g_metric(geom, phi, psi)
    b = so.g_metric(geom, psi, phi)
    assert abs(a - b) < 1e-10 * max(1.0, abs(a))
    assert so.g_metric(geom, phi, phi) > 0

    # bilinearity over the reals
    def comb(f1, f2, c):
        return Field(lambda bt, k: f1(bt, k) + f2(bt, k) * c)

    lhs = so.g_metric(geom, comb(phi, psi, 2.0), psi)
    rhs = so.g_metric(geom, phi, psi) + 2.0 * so.g_metric(geom, psi, psi)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_bochner_chain_and_lichnerowicz():
    for kind, tol in [("KAH4", 1e-9), ("FS", 1e-8), ("FLAT2", 1e-10)]:
        geom = geom_for(kind)
        batch = geom.fixture.check_nodes(8, 40)[0]
        A = fl.seeded_antilinear(geom, 9)(batch, 2)
        r1, r2 = so.bochner_routes(geom, batch, A)
        LA = so.lichnerowicz_endo(geom, batch, A)
        assert sup((r1 - r2).value) < tol, kind
        assert sup((LA - r1).value) < tol, kind


def test_stability_identity_defect_corrected():
    for kind, tol in [("FS", 1e-8), ("KAH4", 1e-9), ("PERT2", 1e-9)]:
        geom = geom_for(kind)
        batch = geom.fixture.check_nodes(10, 40)[0]
        A = fl.seeded_antilinear(geom, 11)(batch, 2)
        lhs, rhs = so.stability_identity_sides(geom, batch, A)
        assert sup(lhs - rhs) < tol, kind


def test_phi_functional_on_fs(fs):
    geom, pdata, basis = fs
    A = fl.seeded_antilinear(geom, 12)
    vals = so.phi_functional(geom, A, basis.functions)
    bridges = so.phi_functional_bridge(geom, A, basis.functions)
    assert len(vals) == len(bridges) == len(basis.functions)
    for i, (val, bridge) in enumerate(zip(vals, bridges)):
        assert abs(val) < 1e-9, i
        assert abs(val - bridge) < 1e-8
    # the vanishing mechanism is pointwise: grad f itself vanishes
    for b in geom.fixture.check_nodes(13, 40):
        assert sup(geom.gradf(b, 0).value) < 1e-10
        assert sup(pdata.F(b, 0).value) < 1e-10


def test_phi_linearity_plumbing_mode():
    geom = geom_for("KAH4")
    A = fl.seeded_antilinear(geom, 14)
    u = fl.seeded_complex_scalar(geom, 15)
    w = fl.seeded_complex_scalar(geom, 16)

    def comb(c1, c2):
        return Field(lambda b, k: u(b, k) * c1 + w(b, k) * c2)

    lhs, pu, pw = so.phi_functional(geom, A, [comb(2.0, -3.0), u, w])
    rhs = 2.0 * pu - 3.0 * pw
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_phi_sequence_and_drift_terms_are_bit_identical():
    geom = geom_for("PERT2")
    A = fl.seeded_antilinear(geom, 14)
    u = fl.seeded_complex_scalar(geom, 15)
    w = fl.seeded_complex_scalar(geom, 16)
    for route in (so.phi_functional, so.phi_functional_bridge):
        both = route(geom, A, [u, w])
        assert both == route(geom, A, [u]) + route(geom, A, [w]), route.__name__
        assert both[0] != 0.0 and both[1] != 0.0
    # the weight terms read order-0 data only: A at order 2 gives the same
    # bits, and so do Hess f, grad f and J read at the order of A
    for kind in ("FS", "PERT2", "KAH4"):
        geom = geom_for(kind)
        A = fl.seeded_antilinear(geom, 9)
        for b in geom.fixture.check_nodes(8, 40):
            A2 = A(b, 2)
            terms = so.drift_terms(geom, b, A2)
            for t1, t2 in zip(so.drift_terms(geom, b, A(b, 1)), terms):
                assert np.array_equal(t1, t2), kind
            hess = tc.pair_2tensors(geom, b, geom.hessf(b, 2),
                                    tc.flat_endo(geom, b, tc.endo_mul(A2, A2)))
            J = geom.J(b, 1)
            Jgf = jet_einsum("pij,pj->pi", J, geom.gradf(b, 1))
            hook = jet_einsum("pa,paij->pij", Jgf, tc.cd(geom, b, A2, "ul"))
            cross = tc.pair_endos(geom, b, hook, tc.endo_mul(J, A2.truncate(1)))
            assert np.array_equal(hess.value, terms[0]), kind
            assert np.array_equal(cross.value, terms[2]), kind


def test_phi_routes_share_one_evaluation_of_each_argument_on_fs(monkeypatch):
    # S-PHI on FS evaluates each seeded argument once per quadrature block,
    # at order 2, and both routes read one run of the drift terms
    from collections import Counter

    from kahlercheck import checks as ck

    evals, drifts = Counter(), Counter()
    make, drift = fl.seeded_antilinear, so.drift_terms

    def counted(geom, seed):
        A = make(geom, seed)
        return Field(lambda b, k: evals.update([(seed, b.token, k)]) or A(b, k))

    monkeypatch.setattr(fl, "seeded_antilinear", counted)
    monkeypatch.setattr(so, "drift_terms",
                        lambda geom, b, A: drifts.update([b.token]) or drift(geom, b, A))
    rec = ck.run_check("S-PHI", "FS", 0)
    assert rec.status == "pass"
    quad = [b.token for b in bk.make_fixture("FS").quad_nodes()]
    assert sorted(evals) == sorted((s, tok, 2) for s in range(0, 30, 3) for tok in quad)
    assert set(evals.values()) == {1}
    assert drifts == Counter({tok: 10 for tok in quad})


def test_integral_identity_on_fs(fs):
    geom, pdata, _ = fs
    A = fl.seeded_antilinear(geom, 17)
    lhs, rhs = so.integral_identity_sides(geom, pdata, A)
    assert abs(lhs) < 1e-10
    assert abs(rhs) < 1e-9
    # vanishing-cone membership for every anti-linear A on this fixture
    assert abs(lhs) < 1e-10


def test_weighted_complex_bochner_on_fs(fs):
    geom, _, basis = fs
    # kernel elements: both sides vanish
    for b in geom.fixture.check_nodes(18, 30):
        psi = basis.functions[2](b, 4)
        lhs, rhs = so.weighted_complex_bochner_sides(geom, b, psi)
        assert sup((lhs - rhs).value) < 1e-8
    # seeded potentials: the identity itself
    psi_f = fl.seeded_complex_scalar(geom, 19)
    for b in geom.fixture.check_nodes(20, 40):
        lhs, rhs = so.weighted_complex_bochner_sides(geom, b, psi_f(b, 4))
        assert sup((lhs - rhs).value) < 1e-7


def test_the_bochner_sides_build_each_weight_quantity_once_per_batch(monkeypatch):
    # the top-order readers run first, so f, rho, df, grad f and g are each
    # built once on the batch and read below that order by truncation
    from collections import Counter

    from kahlercheck import geometry

    geom = geom_for("FS")
    batch = geom.fixture.check_nodes(21, 30)[0]
    psi = fl.seeded_complex_scalar(geom, 22)(batch, 4)
    builds = Counter()
    by_order = geometry.by_order

    def counted(store, key, order, build):
        return by_order(store, key, order, lambda: builds.update([key[0]]) or build())

    monkeypatch.setattr(geometry, "by_order", counted)
    so.weighted_complex_bochner_sides(geom, batch, psi)
    weight = ("f", "rho", "df", "gradf", "g")
    assert {k: builds[k] for k in weight} == dict.fromkeys(weight, 1)


def test_soliton_characterization(fs):
    geom, pdata, _ = fs
    for b in geom.fixture.check_nodes(21, 40):
        lhs, rhs = so.soliton_characterization_sides(geom, pdata, b)
        assert sup((lhs - rhs).value) < 1e-9


def test_tangent_cone_membership_of_eta_directions(fs):
    geom, _, _ = fs
    psi = fl.seeded_complex_scalar(geom, 22)
    v_f, Vs_f = so.eta_direction_fields(geom, psi)

    def gaps(v_field, seed):
        """The largest anti-invariance or del-bar gap, and the largest
        closedness gap, over the check batches."""
        r_D = r_T = 0.0
        for b in geom.fixture.check_nodes(seed, 120):
            anti, dbar, closed = so.tangent_cone_sides(geom, b, v_field(b, 2), Vs_f(b, 2))
            r_D = max(r_D, *(sup((lhs - rhs).value) for lhs, rhs in (anti, dbar)))
            r_T = max(r_T, sup((closed[0] - closed[1]).value))
        return r_D, r_T

    r_D, r_T = gaps(v_f, 23)
    assert r_D < 1e-8
    assert r_T < 1e-8
    # negative control: v = g is J-invariant and must be rejected
    r_D2, _ = gaps(geom.g, 24)
    assert r_D2 > 1e-2
