import numpy as np
import pytest

from kahlercheck import backends as bk
from kahlercheck import fields as fl
from kahlercheck import kahler as kh
from kahlercheck import tensorcalc as tc
from kahlercheck.geometry import GeometryState
from kahlercheck.jets import Jet, jet_einsum, jet_map


def geom_for(kind):
    return GeometryState(bk.make_fixture(kind))


def sup(x):
    return float(np.max(np.abs(x)))


def test_bidegree_split_reconstructs_and_types():
    # both value actions: J on the value slot of a real anti-linear A, and i
    # on the T^{1,0}-valued theta = cayley_half(mu)
    geom = geom_for("KAH4")
    batch = geom.fixture.check_nodes(0, 40)[0]
    A = fl.seeded_antilinear(geom, 1)(batch, 2)
    theta = kh.cayley_half(geom, batch, fl.seeded_antilinear(geom, 2)(batch, 2))
    J = geom.J(batch, 1).value
    for T, value in ((A, "J"), (theta, "i")):
        n10, n01 = (kh.nabla_half(geom, batch, T, "ul", half, value=value)
                    for half in ("10", "01"))
        assert sup((n10 + n01).value - tc.cd(geom, batch, T, "ul").value) < 1e-12, value
        # nabla_{J e_a} of the (1,0) half is +J of it, of the (0,1) half -J
        for n, sign in ((n10, 1.0), (n01, -1.0)):
            rot = np.einsum("pba,pbij->paij", J, n.value)
            acted = np.einsum("pik,pakj->paij", J, n.value) if value == "J" else 1j * n.value
            assert sup(rot - sign * acted) < 1e-11, (value, sign)


def test_dbar_kills_holomorphic_fields_on_fs():
    geom = geom_for("FS")
    basis = bk.holomorphic_basis(geom.fixture.backend)
    for b in geom.fixture.check_nodes(2, 60):
        for xi in basis:
            db = kh.dbar_vector(geom, b, xi(b, 2))
            assert sup(db.value) < 1e-10


def test_dbar_squared_vanishes():
    for kind in ("FLAT2", "PERT2", "KAH4", "FS"):
        geom = geom_for(kind)
        batch = geom.fixture.check_nodes(3, 40)[0]
        xi = fl.seeded_vector(geom, 4)(batch, 3)
        e = kh.dbar_vector(geom, batch, xi)
        dd = kh.dbar_endo(geom, batch, e)
        assert sup(dd.value) < 1e-9, kind


def test_dbar_guard_non_kahler():
    geom = geom_for("RIEM4")
    batch = geom.fixture.check_nodes(5, 10)[0]
    xi = fl.seeded_vector(geom, 6)(batch, 2)
    from kahlercheck.errors import UnsupportedGeometryError
    with pytest.raises(UnsupportedGeometryError):
        kh.dbar_vector(geom, batch, xi)


def test_hodge_witten_relation():
    for kind, tol in [("KAH4", 1e-10), ("PERT2", 1e-10), ("FS", 1e-9)]:
        geom = geom_for(kind)
        batch = geom.fixture.check_nodes(7, 40)[0]
        A = fl.seeded_antilinear(geom, 8)(batch, 2)
        lhs, rhs = kh.hodge_witten_relation_sides(geom, batch, A)
        assert sup((lhs - rhs).value) < tol, kind


def test_hodge_witten_self_adjoint_and_nonnegative():
    geom = geom_for("PERT2")
    nodes = geom.fixture.quad_nodes()
    A = fl.seeded_antilinear(geom, 9)
    B = fl.seeded_antilinear(geom, 10)
    ab, ba, aa = [], [], []
    for b in nodes:
        Aj, Bj = A(b, 2), B(b, 2)
        LA = kh.hodge_witten(geom, b, Aj, 1)
        LB = kh.hodge_witten(geom, b, Bj, 1)
        ab.append(tc.pair_endos(geom, b, LA, Bj.truncate(0)).value)
        ba.append(tc.pair_endos(geom, b, LB, Aj.truncate(0)).value)
        aa.append(tc.pair_endos(geom, b, LA, Aj.truncate(0)).value)
    assert abs(geom.fixture.integrate(ab) - geom.fixture.integrate(ba)) < 1e-9
    assert geom.fixture.integrate(aa) > -1e-10


def test_hodge_witten_kills_holomorphic_on_fs():
    geom = geom_for("FS")
    basis = bk.holomorphic_basis(geom.fixture.backend)
    for b in geom.fixture.check_nodes(11, 40):
        xi = basis[1](b, 3)
        out = kh.hodge_witten(geom, b, xi, 0)
        assert sup(out.value) < 1e-9


def test_b_operator_two_routes():
    for kind in ("PERT2", "KAH4"):
        geom = geom_for(kind)
        batch = geom.fixture.check_nodes(12, 50)[0]
        u = fl.seeded_scalar(geom, 13)(batch, 2)
        b1 = kh.b_operator(geom, batch, u)
        b2 = kh.b_operator_divergence_route(geom, batch, u)
        assert sup(b1.value - b2.value) < 1e-10, kind


def test_complex_laplacian_flat_mode():
    geom = geom_for("FLAT2")
    batch = geom.fixture.check_nodes(14, 30)[0]
    import math
    from kahlercheck import jets as J

    x = Jet.coordinate(0, batch.pts, 2, 4)
    u = J.exp(x * (2j * math.pi))
    lap = kh.complex_laplacian(geom, batch, u)
    assert sup(lap.value - 4 * math.pi**2 * u.truncate(2).value) < 1e-10
    # flat-mode arithmetic for the fourth-order square
    p = kh.p_operator(geom, batch, J.sin(2 * math.pi * x))
    expected = (4 * math.pi**2 - 2.0) ** 2 * np.sin(2 * math.pi * batch.pts[:, 0])
    assert sup(p.value - expected) < 1e-9
    assert sup(p.value.imag) < 1e-12


def test_nijenhuis_vanishes_on_integrable_fixtures():
    for kind in ("FLAT2", "PERT2", "KAH4", "FS"):
        geom = geom_for(kind)
        batch = geom.fixture.check_nodes(15, 40)[0]
        N = kh.nijenhuis(geom, batch, geom.J(batch, 1))
        assert sup(N.value) < 1e-12, kind


def test_maurer_cartan_equivalence_and_explicit_form():
    for kind, tol in [("KAH4", 1e-9), ("PERT2", 1e-9), ("FS", 1e-9)]:
        geom = geom_for(kind)
        batch = geom.fixture.check_nodes(16, 40)[0]
        mu = fl.seeded_antilinear(geom, 17)(batch, 2)
        lhs, rhs = kh.maurer_cartan_sides(geom, batch, mu)
        assert sup((lhs - rhs).value) < tol, kind
        lhs, rhs = kh.mc_explicit_sides(geom, batch, mu)
        assert sup((lhs - rhs).value) < tol, kind
        # mu = 0 gives vanishing residuals
        zero = Jet.const(0.0, geom.dim, 2, (batch.size, geom.dim, geom.dim))
        rr, rc = kh.maurer_cartan_sides(geom, batch, zero)
        assert sup(rr.value) == 0.0 and sup(rc.value) == 0.0


def test_maurer_cartan_rejects_non_antilinear():
    geom = geom_for("KAH4")
    batch = geom.fixture.check_nodes(18, 10)[0]
    S = fl.seeded_sym_endo(geom, 19)(batch, 2)
    from kahlercheck.errors import BadInputError
    with pytest.raises(BadInputError):
        kh.maurer_cartan_sides(geom, batch, S)


def test_lie_bracket_forms_identity():
    geom = geom_for("KAH4")
    batch = geom.fixture.check_nodes(20, 30)[0]
    mu1 = fl.seeded_antilinear(geom, 21)(batch, 3)
    mu2 = fl.seeded_antilinear(geom, 22)(batch, 3)
    alpha = kh.cayley_half(geom, batch, mu1)
    beta = kh.cayley_half(geom, batch, mu2)
    br = kh.lie_bracket_forms(geom, batch, alpha, beta, 1, 1)
    pa = kh.partial_omega_01form(geom, batch, alpha)
    pb = kh.partial_omega_01form(geom, batch, beta)
    rhs = tc.generalized_contraction(alpha.truncate(pb.order), pb, 1, 2) + \
        tc.generalized_contraction(beta.truncate(pa.order), pa, 1, 2)
    assert sup(br.value - rhs.value) < 1e-9
    # graded antisymmetry at p = q = 1: [alpha, beta] = [beta, alpha]
    br2 = kh.lie_bracket_forms(geom, batch, beta, alpha, 1, 1)
    assert sup(br.value - br2.value) < 1e-11


def test_lie_bracket_degree_zero():
    geom = geom_for("KAH4")
    batch = geom.fixture.check_nodes(23, 30)[0]
    # T^{1,0} parts of seeded real fields
    X = fl.seeded_vector(geom, 24)(batch, 2)
    Y = fl.seeded_vector(geom, 25)(batch, 2)
    J = geom.J(batch, 2)
    a = (X + jet_einsum("pij,pj->pi", J, X) * (-1j)) * 0.5
    b = (Y + jet_einsum("pij,pj->pi", J, Y) * (-1j)) * 0.5
    br = kh.lie_bracket_forms(geom, batch, a, b, 0, 0)
    # bracket of (1,0) fields equals nabla_a b - nabla_b a
    cda = tc.cd(geom, batch, a, "u")
    cdb = tc.cd(geom, batch, b, "u")
    k = cda.order
    rhs = jet_einsum("pc,pci->pi", a.truncate(k), cdb) - \
        jet_einsum("pc,pci->pi", b.truncate(k), cda)
    assert sup(br.value - rhs.value) < 1e-11
    assert sup((br + kh.lie_bracket_forms(geom, batch, b, a, 0, 0)).value) < 1e-12


def test_hodge_witten_degree_guard():
    from kahlercheck.errors import UnsupportedDegreeError

    geom = geom_for("FS")
    batch = geom.fixture.check_nodes(30, 10)[0]
    A = fl.seeded_antilinear(geom, 31)(batch, 2)
    with pytest.raises(UnsupportedDegreeError):
        kh.hodge_witten(geom, batch, A, 2)
