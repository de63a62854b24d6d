"""Complex-structure operator layer: bidegree splits, the del-bar complex on
tangent-valued forms, weighted Hodge-Witten Laplacians, the complex weighted
scalar Laplacian and its fourth-order square, Nijenhuis torsion, graded
brackets and Maurer-Cartan residuals.

Bidegree conventions.  For a tangent-valued object the (0,1) part of the
covariant derivative rotates the direction slot and post-composes with J:
nabla01_xi A = (nabla_xi A + J o nabla_{J xi} A) / 2, and the (1,0) part
takes the difference.  ``nabla_half`` builds either half of ``tc.cd`` for
any valence (``tc`` slot strings); J acts on the first value slot, or, on
T^{1,0}-valued objects, as scalar multiplication by i.  del-bar is the
plain alternation of nabla01 (no half), which makes the graded identities
of the bracket calculus hold without stray factors.
"""

from __future__ import annotations

import numpy as np

from . import tensorcalc as tc
from .errors import BadInputError, BadValenceError, UnsupportedDegreeError
from .jets import Jet, jet_einsum, jet_map

# ---------------------------------------------------------------------------
# bidegree split of covariant derivatives


def nabla_half(geom, batch, T: Jet, slots: str, half: str, value: str = "J") -> Jet:
    """The (1,0) or (0,1) half of ``tc.cd(T, slots)``, same layout:
    (nabla_a T -+ J o nabla_{J e_a} T) / 2 for ``half`` "10" or "01".  J acts
    on T's first, tangent, slot (``value`` "J"), or as i on a
    T^{1,0}-valued T (``value`` "i").  Only the half asked for is built."""
    if half not in ("10", "01") or value not in ("J", "i"):
        raise BadInputError(f"half {half!r} of value action {value!r}")
    if value == "J" and not slots.startswith("u"):
        raise BadValenceError(f"J acts on a first tangent slot, not on {slots!r}")
    cdT = tc.cd(geom, batch, T, slots)                    # (m, a, *slots)
    J = geom.J(batch, cdT.order)
    s = "ijkl"[:len(slots)]
    rot = jet_einsum(f"pba,pb{s}->pa{s}", J, cdT)        # direction J-rotation
    if value == "i":
        Jrot = rot * 1j
    else:
        Jrot = jet_einsum(f"p{s[0]}z,paz{s[1:]}->pa{s}", J, rot)
    return (cdT - Jrot) * 0.5 if half == "10" else (cdT + Jrot) * 0.5


def dbar_vector(geom, batch, xi: Jet) -> Jet:
    """del-bar of a vector field: the anti-linear part of cd(xi), an endo (m,i,a)."""
    return jet_map("pai->pia", nabla_half(geom, batch, xi, "u", "01"))


def dbar_endo(geom, batch, A: Jet) -> Jet:
    """del-bar of an endomorphism (tangent-valued 1-form): a 2-form (m,i,a,b)."""
    vf = jet_map("paib->piab", nabla_half(geom, batch, A, "ul", "01"))
    return vf - jet_map("piab->piba", vf)


# ---------------------------------------------------------------------------
# Hodge-Witten Laplacians


def hodge_witten(geom, batch, field: Jet, q: int) -> Jet:
    """Weighted anti-holomorphic Hodge-Witten Laplacian on degree q in {0,1}."""
    if q == 0:
        return tc.adjoint(geom, batch, dbar_vector(geom, batch, field), "ul")
    if q == 1:
        t1 = dbar_vector(geom, batch, tc.adjoint(geom, batch, field, "ul"))
        t2 = tc.adjoint(geom, batch, dbar_endo(geom, batch, field), "ull")
        return t1 + t2
    raise UnsupportedDegreeError(f"degree {q} not supported")


def partial10_gradf(geom, batch, order: int) -> Jet:
    """The J-commuting half of the Hessian endomorphism of the weight."""
    H = jet_einsum("pik,pkj->pij", geom.ginv(batch, order), geom.hessf(batch, order))
    J = geom.J(batch, order)
    JHJ = jet_einsum("pik,pkj->pij", J, jet_einsum("pik,pkj->pij", H, J))
    return (H - JHJ) * 0.5


def hodge_witten_relation_sides(geom, batch, A: Jet) -> tuple[Jet, Jet]:
    """``(lhs, rhs)``: the weighted minus the unweighted Laplacian, and the
    two weight hooks it equals."""
    weighted = hodge_witten(geom, batch, A, 1)
    free = geom.unweighted()
    unweighted = hodge_witten(free, batch, A, 1)
    n01 = nabla_half(geom, batch, A, "ul", "01")
    hook1 = jet_einsum("pa,paij->pij", geom.gradf(batch, n01.order), n01)
    S = partial10_gradf(geom, batch, weighted.order)
    hook2 = tc.endo_mul(A.truncate(S.order), S)
    return weighted - unweighted, hook1 + hook2


# ---------------------------------------------------------------------------
# complex scalar operators


def b_operator(geom, batch, u: Jet) -> Jet:
    """First-order drift g(grad u, J grad f)."""
    J = geom.J(batch, u.order - 1)
    Jgf = jet_einsum("pij,pj->pi", J, geom.gradf(batch, u.order - 1))
    return jet_einsum("pi,pi->p", u.gradient(), Jgf)


def b_operator_divergence_route(geom, batch, u: Jet) -> Jet:
    """Same drift computed as the weighted divergence of J grad u."""
    J = geom.J(batch, u.order - 1)
    Jgu = jet_einsum("pij,pj->pi", J, tc.grad_scalar(geom, batch, u))
    return tc.div_omega_vector(geom, batch, Jgu)


def complex_laplacian(geom, batch, u: Jet) -> Jet:
    """Weighted complex Laplacian lap_w(u) - i B(u) on complex scalars.  The
    drift first: it reads grad f one order above the Laplacian, which then
    reads its truncation."""
    drift = b_operator(geom, batch, u)
    return tc.adjoint(geom, batch, u.gradient(), "l") + drift * (-1j)


def conj_jet(a: Jet) -> Jet:
    return Jet(a.dim, a.order, np.conj(a.coeffs))


def p_operator(geom, batch, w: Jet) -> Jet:
    """Fourth-order composition (lap_c - 2) conj (lap_c - 2) w."""
    inner = complex_laplacian(geom, batch, w) - w.truncate(w.order - 2) * 2.0
    inner = conj_jet(inner)
    return complex_laplacian(geom, batch, inner) - inner.truncate(inner.order - 2) * 2.0


# ---------------------------------------------------------------------------
# Nijenhuis torsion and its role as an integrability residual


def nijenhuis(geom, batch, Jjet: Jet) -> Jet:
    """N(e_a, e_b) = [J e_a, J e_b] - [e_a, e_b] - J[J e_a, e_b] - J[e_a, J e_b].

    Computed from coordinate derivatives of J; layout (m, i, a, b).
    """
    dJ = jet_map("pijd->pdij", Jjet.gradient())           # d_d J^i_j
    J = Jjet.truncate(dJ.order)
    t1 = jet_einsum("pca,pcib->piab", J, dJ)
    t2 = jet_einsum("pcb,pcia->piab", J, dJ)
    t3 = jet_einsum("pic,pbca->piab", J, dJ)
    t4 = jet_einsum("pic,pacb->piab", J, dJ)
    return t1 - t2 + t3 - t4


# ---------------------------------------------------------------------------
# Maurer-Cartan residuals (real and complex routes)


def _check_antilinear(geom, batch, mu: Jet, tol: float = 1e-8):
    J = geom.J(batch, 0).value
    m = mu.value
    anti = np.einsum("pik,pkj->pij", m, J) + np.einsum("pik,pkj->pij", J, m)
    if np.max(np.abs(anti)) > tol * max(1.0, np.max(np.abs(m))):
        raise BadInputError("input endomorphism is not J-anti-linear")


def mc_real_residual(geom, batch, mu: Jet) -> Jet:
    """del-bar(mu) + mu hook nabla10(mu), a tangent-valued 2-form."""
    n10 = jet_map("paij->piaj", nabla_half(geom, batch, mu, "ul", "10"))
    quad = tc.generalized_contraction(mu.truncate(n10.order), n10, 1, 2)
    return dbar_endo(geom, batch, mu) + quad


def cayley_half(geom, batch, mu: Jet) -> Jet:
    """theta = (mu - i J mu)/2, the T^{1,0}-valued form of an anti-linear mu."""
    J = geom.J(batch, mu.order)
    return (mu + jet_einsum("pik,pkj->pij", J, mu) * (-1j)) * 0.5


def mc_complex_residual(geom, batch, theta: Jet) -> Jet:
    """del-bar(theta) + theta hook del^w(theta) for T^{1,0}-valued theta."""
    dbar = jet_map("paij->piaj", nabla_half(geom, batch, theta, "ul", "01", value="i"))
    dbar = dbar - jet_map("piab->piba", dbar)
    pw = jet_map("paij->piaj", nabla_half(geom, batch, theta, "ul", "10", value="i"))
    pw = pw - jet_map("piab->piba", pw)
    quad = tc.generalized_contraction(theta.truncate(pw.order), pw, 1, 2)
    return dbar + quad


def maurer_cartan_sides(geom, batch, mu: Jet) -> tuple[Jet, Jet]:
    """``(lhs, rhs)``: the real residual route, and the complex route plus
    its conjugate."""
    _check_antilinear(geom, batch, mu)
    r_re = mc_real_residual(geom, batch, mu)
    r_cx = mc_complex_residual(geom, batch, cayley_half(geom, batch, mu))
    return r_re, r_cx + conj_jet(r_cx)


def mc_explicit_sides(geom, batch, mu: Jet) -> tuple[Jet, Jet]:
    """``(lhs, rhs)``: (I + mu) hook J cd(mu) - (I + mu) J hook cd(mu), and
    2 J R_re(mu)."""
    cdmu = jet_map("paij->piaj", tc.cd(geom, batch, mu, "ul"))  # value-first
    J = geom.J(batch, cdmu.order)
    Jcd = jet_einsum("pik,pkab->piab", J, cdmu)
    one_plus = mu.truncate(cdmu.order).copy()
    one_plus.coeffs[0] = one_plus.coeffs[0] + np.eye(geom.dim)
    lhs = tc.generalized_contraction(one_plus, Jcd, 1, 2)
    opJ = jet_einsum("pik,pkj->pij", one_plus, J)
    lhs = lhs - tc.generalized_contraction(opJ, cdmu, 1, 2)
    r_re = mc_real_residual(geom, batch, mu)
    rhs = jet_einsum("pik,pkab->piab", J.truncate(r_re.order), r_re) * 2.0
    return lhs, rhs


# ---------------------------------------------------------------------------
# T^{1,0}-valued (0, q) calculus via chart holomorphic frames


def holomorphic_frame(dim: int):
    """Constant chart frame zeta_K = (e_{2K} - i e_{2K+1})/2 and the dual
    anti-holomorphic coframe values dzbar_K = e*_{2K} - i e*_{2K+1}."""
    nc = dim // 2
    zeta = np.zeros((nc, dim), dtype=complex)
    zbar_co = np.zeros((nc, dim), dtype=complex)
    for K in range(nc):
        zeta[K, 2 * K] = 0.5
        zeta[K, 2 * K + 1] = -0.5j
        zbar_co[K, 2 * K] = 1.0
        zbar_co[K, 2 * K + 1] = -1.0j
    return zeta, zbar_co


def decompose_01(alpha: Jet, dim: int) -> Jet:
    """Components alpha_K = alpha(conj zeta_K) of a (0,1)-form, stacked (m,K,i)."""
    zeta, _ = holomorphic_frame(dim)
    zbar = np.conj(zeta)
    out = np.einsum("Ka,cpia->cpKi", zbar, alpha.coeffs)
    return Jet(alpha.dim, alpha.order, out)


def lie_bracket_complex_vf(a: Jet, b: Jet) -> Jet:
    """Coordinate Lie bracket of complex vector fields (m, i)."""
    da = jet_map("pid->pdi", a.gradient())
    db = jet_map("pid->pdi", b.gradient())
    k = min(a.order, b.order) - 1
    return jet_einsum("pc,pci->pi", a.truncate(k), db) - \
        jet_einsum("pc,pci->pi", b.truncate(k), da)


def lie_bracket_forms(geom, batch, alpha: Jet, beta: Jet, p: int, q: int):
    """Graded bracket of T^{1,0}-valued (0, p) and (0, q) forms, p, q in {0, 1}.

    Degree-0 inputs are complex vector fields (m, i); degree-1 inputs are
    complex endo-like (m, i, a) acting on real tangent vectors.
    Returns the frame-decomposed bracket.
    """
    if p == 0 and q == 0:
        return lie_bracket_complex_vf(alpha, beta)
    if p == 1 and q == 1:
        dim = geom.dim
        aK = decompose_01(alpha, dim)     # (m, K, i)
        bL = decompose_01(beta, dim)
        _, co = holomorphic_frame(dim)
        nc = dim // 2
        k_out = min(alpha.order, beta.order) - 1
        out = None
        for K in range(nc):
            for L in range(nc):
                a = Jet(alpha.dim, aK.order, aK.coeffs[:, :, K])
                b = Jet(beta.dim, bL.order, bL.coeffs[:, :, L])
                br = lie_bracket_complex_vf(a, b)
                wedge = np.einsum("a,b->ab", co[K], co[L])
                wedge = wedge - wedge.T
                term = Jet(br.dim, br.order,
                           np.einsum("cpi,ab->cpiab", br.coeffs, wedge))
                out = term if out is None else out + term
        return out.truncate(k_out)
    raise UnsupportedDegreeError("bracket degrees restricted to {0, 1}")


def partial_omega_01form(geom, batch, alpha: Jet) -> Jet:
    """Frame route for del^w of a T^{1,0}-valued (0,1)-form: a (1,1)-type
    2-form del^w(alpha_K) wedge dzbar_K, layout (m, i, a, b)."""
    dim = geom.dim
    aK = decompose_01(alpha, dim)
    _, co = holomorphic_frame(dim)
    out = None
    for K in range(dim // 2):
        a = Jet(alpha.dim, aK.order, aK.coeffs[:, :, K])
        pa = jet_map("pai->pia", nabla_half(geom, batch, a, "u", "10", value="i"))
        term_c = np.einsum("cpia,b->cpiab", pa.coeffs, co[K])
        term = Jet(pa.dim, pa.order, term_c)
        term = term - jet_map("piab->piba", term)
        out = term if out is None else out + term
    return out
