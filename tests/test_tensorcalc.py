import numpy as np
import pytest

from kahlercheck import backends as bk
from kahlercheck import fields as fl
from kahlercheck import tensorcalc as tc
from kahlercheck.geometry import GeometryState
from kahlercheck.jets import Jet, jet_einsum, jet_map


def geom_for(kind):
    return GeometryState(bk.make_fixture(kind))


def sup(x):
    return float(np.max(np.abs(x)))


def test_metric_compatibility():
    for kind, tol in [("RIEM4", 1e-12), ("FS", 1e-10), ("PERT2", 1e-12)]:
        geom = geom_for(kind)
        batch = geom.fixture.check_nodes(0, 50)[0]
        g = geom.g(batch, 1)
        cdg = tc.cd(geom, batch, g, "ll")
        assert sup(cdg.value) < tol, kind


def test_kahler_parallel_J():
    for kind, tol in [("FS", 1e-10), ("KAH4", 1e-11), ("PERT2", 1e-11)]:
        geom = geom_for(kind)
        batch = geom.fixture.check_nodes(1, 50)[0]
        J = geom.J(batch, 1)
        cdJ = tc.cd(geom, batch, J, "ul")
        assert sup(cdJ.value) < tol, kind


def _outer(A, na, B, nb):
    """A (x) B for jets with ``na`` and ``nb`` tensor slots."""
    x, y = "ijkl"[:na], "ijkl"[na:na + nb]
    return jet_einsum(f"p{x},p{y}->p{x}{y}", A, B)


def _leibniz(geom, batch, A, sa, B, sb):
    """nabla A (x) B + A (x) nabla B in ``tc.cd``'s layout; a scalar A
    (``sa`` empty) contributes its gradient."""
    x, y = "ijkl"[:len(sa)], "ijkl"[len(sa):len(sa) + len(sb)]
    dA = tc.cd(geom, batch, A, sa) if sa else A.gradient()
    dB = tc.cd(geom, batch, B, sb)
    return jet_einsum(f"pa{x},p{y}->pa{x}{y}", dA, B) + \
        jet_einsum(f"p{x},pa{y}->pa{x}{y}", A, dB)


@pytest.mark.parametrize("kind", ["KAH4", "FS"])
def test_cd_leibniz_rule_on_every_valence(kind):
    # nabla(A (x) B) = nabla A (x) B + A (x) nabla B, coefficient by
    # coefficient, where Gamma != 0; the contraction alpha(X) checks that
    # the covariant rule is dual to the tangent one
    geom = geom_for(kind)
    batch = geom.fixture.check_nodes(2, 40)[0]
    u = fl.seeded_scalar(geom, 3)(batch, 2)
    X = fl.seeded_vector(geom, 4)(batch, 2)
    al = fl.seeded_oneform(geom, 5)(batch, 2)
    be = fl.seeded_oneform(geom, 6)(batch, 2)
    v = fl.seeded_sym2(geom, 7)(batch, 2)
    Xal = _outer(X, 1, al, 1)
    cases = {
        "u": (u, "", X, "u"),
        "l": (u, "", al, "l"),
        "ll": (al, "l", be, "l"),
        "ul": (X, "u", al, "l"),
        "ull": (Xal, "ul", be, "l"),
        "lll": (v, "ll", al, "l"),
    }
    for slots, (A, sa, B, sb) in cases.items():
        lhs = tc.cd(geom, batch, _outer(A, len(sa), B, len(sb)), slots)
        rhs = _leibniz(geom, batch, A, sa, B, sb)
        scale = max(sup(lhs.coeffs), sup(rhs.coeffs))
        assert sup(lhs.coeffs - rhs.coeffs) < 1e-14 * scale, (kind, slots)
    pairing = jet_einsum("pi,pi->p", al, X).gradient()
    dual = jet_einsum("pai,pi->pa", tc.cd(geom, batch, al, "l"), X) + \
        jet_einsum("pi,pai->pa", al, tc.cd(geom, batch, X, "u"))
    scale = max(sup(pairing.coeffs), sup(dual.coeffs))
    assert sup(pairing.coeffs - dual.coeffs) < 1e-14 * scale, kind


def test_div_grad_is_minus_laplacian():
    geom = geom_for("PERT2")
    batch = geom.fixture.check_nodes(3, 60)[0]
    u = fl.seeded_scalar(geom, 4)(batch, 3)
    X = tc.grad_scalar(geom, batch, u)
    lhs = tc.div_omega_vector(geom, batch, X)
    rhs = tc.adjoint(geom, batch, u.truncate(2 + 1).gradient(), "l") * (-1.0)
    assert sup(lhs.value - rhs.value) < 1e-11


def test_weighted_divergence_integrates_to_zero():
    for kind in ("PERT2", "RIEM4"):
        geom = geom_for(kind)
        nodes = geom.fixture.quad_nodes()
        xi = fl.seeded_vector(geom, 5)
        vals = [tc.div_omega_vector(geom, b, xi(b, 1)).value for b in nodes]
        assert abs(geom.fixture.integrate(vals)) < 1e-10, kind


def test_sharp_inverts_pairing():
    geom = geom_for("RIEM4")
    batch = geom.fixture.check_nodes(6, 40)[0]
    v = fl.seeded_sym2(geom, 7)(batch, 0)
    vs = tc.sharp_sym2(geom, batch, v)
    g = geom.g(batch, 0)
    back = jet_einsum("pik,pkj->pij", g, vs)
    assert sup(back.value - v.value) < 1e-12


def test_adjoint_sym2_quadrature_duality():
    for kind in ("PERT2", "RIEM4"):
        geom = geom_for(kind)
        nodes = geom.fixture.quad_nodes()
        u = fl.seeded_sym2(geom, 8)
        al = fl.seeded_oneform(geom, 9)
        lhs_vals, rhs_vals = [], []
        for b in nodes:
            uj = u(b, 1)
            aj = al(b, 1)
            adj = tc.adjoint(geom, b, uj, "ll")
            lhs_vals.append(tc.pair_oneforms(geom, b, adj, aj.truncate(0)).value)
            cda = tc.cd(geom, b, aj, "l")
            rhs_vals.append(jet_einsum("pij,pij->p", tc.raise2(geom, b, uj.truncate(0)), cda).value)
        lhs = geom.fixture.integrate(lhs_vals)
        rhs = geom.fixture.integrate(rhs_vals)
        assert abs(lhs - rhs) < 1e-10, kind


def test_adjoint_endo_quadrature_duality():
    geom = geom_for("RIEM4")
    nodes = geom.fixture.quad_nodes()
    A = fl.seeded_sym_endo(geom, 10)
    X = fl.seeded_vector(geom, 11)
    lhs_vals, rhs_vals = [], []
    for b in nodes:
        Aj = A(b, 1)
        Xj = X(b, 1)
        adj = tc.adjoint(geom, b, Aj, "ul")
        lhs_vals.append(tc.pair_vectors(geom, b, adj, Xj.truncate(0)).value)
        cdX = tc.cd(geom, b, Xj, "u")
        # <A, cd X> = g_{ij} A^i_a g^{ab} (cd_b X)^j
        g = geom.g(b, 0).value
        gi = geom.ginv(b, 0).value
        rhs_vals.append(np.einsum("pij,pia,pab,pbj->p", g, Aj.value, gi, cdX.value))
    lhs = geom.fixture.integrate(lhs_vals)
    rhs = geom.fixture.integrate(rhs_vals)
    assert abs(lhs - rhs) < 1e-10


def test_laplacian_symmetry_and_positivity():
    geom = geom_for("PERT2")
    nodes = geom.fixture.quad_nodes()
    u = fl.seeded_scalar(geom, 12)
    v = fl.seeded_scalar(geom, 13)
    uv, vu, uu, du2 = [], [], [], []
    for b in nodes:
        uj, vj = u(b, 2), v(b, 2)
        lu = tc.adjoint(geom, b, uj.gradient(), "l")
        lv = tc.adjoint(geom, b, vj.gradient(), "l")
        uv.append((lu * vj.truncate(0)).value)
        vu.append((lv * uj.truncate(0)).value)
        uu.append((lu * uj.truncate(0)).value)
        duj = uj.gradient().truncate(0)
        du2.append(tc.pair_oneforms(geom, b, duj, duj).value)
    assert abs(geom.fixture.integrate(uv) - geom.fixture.integrate(vu)) < 1e-10
    dirichlet = geom.fixture.integrate(du2)
    assert abs(geom.fixture.integrate(uu) - dirichlet) < 1e-10
    assert dirichlet > 0


def residual_divergence_identities(kind, seed, tol):
    geom = geom_for(kind)
    batch = geom.fixture.check_nodes(seed, 60)[0]
    u = fl.seeded_scalar(geom, seed + 1)(batch, 2)
    xi = fl.seeded_vector(geom, seed + 2)(batch, 2)
    A = fl.seeded_sym_endo(geom, seed + 3)(batch, 3)

    # adj(u A) = -A grad u + u adj(A)
    uA = jet_einsum("p,pij->pij", u, A)
    lhs1 = tc.adjoint(geom, batch, uA, "ul")
    gradu = tc.grad_scalar(geom, batch, u)
    rhs1 = jet_einsum("pij,pj->pi", A.truncate(gradu.order), gradu) * (-1.0) + \
        jet_einsum("p,pi->pi", u.truncate(1), tc.adjoint(geom, batch, A, "ul"))
    assert sup(lhs1.value - rhs1.value) < tol, f"{kind} div-uA"

    # div_w(u xi) = <grad u, xi> + u div_w xi
    uxi = jet_einsum("p,pi->pi", u, xi)
    lhs2 = tc.div_omega_vector(geom, batch, uxi)
    rhs2 = jet_einsum("pi,pi->p", u.gradient().truncate(1), xi.truncate(1)) + \
        jet_einsum("p,p->p", u.truncate(1), tc.div_omega_vector(geom, batch, xi))
    assert sup(lhs2.value - rhs2.value) < tol, f"{kind} div-uxi"

    # adj(A^2) = -Tr_g(cd A . A) + A adj(A)
    A2 = tc.endo_mul(A, A)
    lhs3 = tc.adjoint(geom, batch, A2, "ul")
    cdA = tc.cd(geom, batch, A, "ul")
    W = jet_einsum("paij,pjm->paim", cdA, A.truncate(cdA.order))
    trace_term = jet_einsum("pam,paim->pi", geom.ginv(batch, cdA.order), W)
    rhs3 = trace_term * (-1.0) + \
        jet_einsum("pij,pj->pi", A.truncate(1), tc.adjoint(geom, batch, A, "ul"))
    assert sup(lhs3.value - rhs3.value) < tol, f"{kind} div-A2"

    # div_w(A xi) = -<adj A, xi> + <A, cd xi>
    Axi = jet_einsum("pij,pj->pi", A, xi)
    lhs4 = tc.div_omega_vector(geom, batch, Axi)
    adjA = tc.adjoint(geom, batch, A, "ul")
    cdxi = tc.cd(geom, batch, xi, "u")
    gA = tc.flat_endo(geom, batch, A.truncate(1))
    pairing = jet_einsum("pai,pai->p",
                         jet_einsum("pja,pji->pai", geom.ginv(batch, 1), gA),
                         jet_map("pai->pai", cdxi.truncate(1)))
    rhs4 = tc.pair_vectors(geom, batch, adjA, xi.truncate(1)) * (-1.0) + pairing
    assert sup(lhs4.value - rhs4.value) < tol, f"{kind} div-Ev"

    # div_w Tr_g(cd A . A) = -<adj(hat cd A), A> + <hat cd A, cd A>
    TrW = jet_einsum("pam,paim->pi", geom.ginv(batch, cdA.order), W)
    lhs5 = tc.div_omega_vector(geom, batch, TrW)
    hat = jet_map("pjia->piaj", cdA)     # hat(cd A)(xi, eta) = cd A(eta, xi)
    adjB = tc.adjoint(geom, batch, hat, "ull")
    rhs5 = tc.pair_endos(geom, batch, adjB, A.truncate(adjB.order)) * (-1.0) + \
        tc.pair_slots2(geom, batch, hat.truncate(1), jet_map("paij->piaj", cdA.truncate(1)))
    assert sup(lhs5.value - rhs5.value) < tol, f"{kind} div-Tr"


def test_divergence_identities_riem4():
    residual_divergence_identities("RIEM4", 20, 1e-9)


def test_divergence_identities_pert2():
    residual_divergence_identities("PERT2", 21, 1e-9)


def test_divergence_identities_flat2_exact():
    residual_divergence_identities("FLAT2", 22, 1e-12)


def test_m_form_identity_and_frames():
    for kind in ("RIEM4", "PERT2"):
        geom = geom_for(kind)
        batch = geom.fixture.check_nodes(30, 50)[0]
        v = fl.seeded_sym2(geom, 31)(batch, 2)
        M = tc.m_form(geom, batch, v, v)
        vstar = tc.sharp_sym2(geom, batch, v)
        adj_vs = tc.adjoint(geom, batch, vstar, "ul")
        vs2 = tc.endo_mul(vstar, vstar)
        adj_vs2 = tc.adjoint(geom, batch, vs2, "ul")
        normsq = tc.pair_2tensors(geom, batch, v, v)
        rhs = jet_einsum("pi,pij->pj", adj_vs, v.truncate(adj_vs.order)) * 2.0 \
            - tc.flat_vector(geom, batch, adj_vs2) * 2.0 \
            + normsq.gradient().truncate(1) * 0.5
        assert sup(M.value - rhs.value) < 1e-9, kind

        # frame independence: Cholesky frame with a seeded rotation
        rng = np.random.default_rng(32)
        frame = tc.cholesky_frame(geom.g(batch, 0).value, rng)
        w = fl.seeded_sym2(geom, 33)(batch, 2)
        M2 = tc.m_form(geom, batch, w, v)
        Mf = tc.m_form_frame_values(geom, batch, w.truncate(1), v.truncate(1), frame)
        assert sup(M2.value - Mf) < 1e-11, kind


def test_simple_contraction_conventions():
    geom = geom_for("FLAT2")
    batch = geom.fixture.check_nodes(40, 20)[0]
    rng = np.random.default_rng(41)
    m = batch.size

    def const_jet(arr):
        j = Jet.const(0.0, 2, 2, arr.shape)
        j.coeffs[0] = arr
        return j

    sym = rng.normal(size=(m, 2, 2))
    sym = sym + np.swapaxes(sym, 1, 2)
    anti = rng.normal(size=(m, 2, 2))
    anti = anti - np.swapaxes(anti, 1, 2)
    eye = np.broadcast_to(np.eye(2), (m, 2, 2)).copy()
    assert sup(tc.contraction(const_jet(eye), const_jet(sym)).value) < 1e-14
    fixed = tc.contraction(const_jet(eye), const_jet(anti))
    assert sup(fixed.value - anti) < 1e-14
    # bilinearity
    A = const_jet(rng.normal(size=(m, 2, 2)))
    B1, B2 = const_jet(rng.normal(size=(m, 2, 2))), const_jet(rng.normal(size=(m, 2, 2)))
    lhs = tc.contraction(A, B1 + B2 * 2.0)
    rhs = tc.contraction(A, B1) + tc.contraction(A, B2) * 2.0
    assert sup(lhs.value - rhs.value) < 1e-13


def test_generalized_contraction_restriction_and_sign():
    geom = geom_for("FLAT2")
    batch = geom.fixture.check_nodes(42, 15)[0]
    rng = np.random.default_rng(43)
    m = batch.size

    def const_jet(arr):
        j = Jet.const(0.0, 2, 2, arr.shape)
        j.coeffs[0] = arr
        return j

    alpha = const_jet(rng.normal(size=(m, 2, 2)))
    beta1 = const_jet(rng.normal(size=(m, 2)))       # scalar-valued 1-form
    out = tc.generalized_contraction(alpha, beta1, 1, 1)
    ref = tc.contraction(alpha, beta1)
    assert sup(out.value - ref.value) < 1e-14
    beta2 = const_jet(rng.normal(size=(m, 2, 2, 2)))  # tangent-valued 2-slot
    out2 = tc.generalized_contraction(alpha, beta2, 1, 2)
    assert sup(out2.value + np.swapaxes(out2.value, 2, 3)) < 1e-13

    from kahlercheck.errors import BadDegreeError
    with pytest.raises(BadDegreeError):
        tc.generalized_contraction(alpha, beta1, 0, 1)


def test_adjoint_of_metric_is_weight_differential():
    # adj(g) contracts to the differential of the weight; zero when flat
    for kind in ("FLAT2", "PERT2"):
        geom = geom_for(kind)
        batch = geom.fixture.check_nodes(70, 40)[0]
        g = geom.g(batch, 2)
        adj = tc.adjoint(geom, batch, g, "ll")
        df = geom.df(batch, 1)
        assert sup(adj.value - df.value) < 1e-11, kind
        M = tc.m_form(geom, batch, g, g)
        assert sup(M.value) < 1e-12, kind
