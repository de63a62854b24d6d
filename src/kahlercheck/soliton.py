"""Shrinker-side quantities and checks: the weighted defect tensor h, the
scalar potential H and its normalization, the eigenvalue-2 kernel spanned by
holomorphic fields, the induced metric and projections on it, Bochner-type
chains, the stability identity and the obstruction functional.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import backends as bk
from . import jets
from . import kahler as kh
from . import tensorcalc as tc
from .backends import Field, NodeBatch
from .conventions import MANIFEST
from .errors import BadInputError, DegenerateBasisError, UnsupportedGeometryError
from .geometry import GeometryState
from .jets import Jet, jet_einsum, jet_map

LICH_CR = float(MANIFEST["lichnerowicz_cR"])


# ---------------------------------------------------------------------------
# Perelman-type quantities


def h_tensor(geom: GeometryState, batch: NodeBatch, order: int) -> Jet:
    """Weighted Ricci defect h = Ric(g) + Hess f - g."""
    return geom.ric(batch, order) + geom.hessf(batch, order) - geom.g(batch, order)


def H_scalar(geom, batch, order: int) -> Jet:
    """2H = -lap_w f + tr_g h + 2 f."""
    f = geom.f(batch, order + 2)
    lap = tc.adjoint(geom, batch, f.gradient(), "l")
    tr = jet_einsum("pij,pij->p", geom.ginv(batch, order), h_tensor(geom, batch, order))
    return (lap * (-1.0) + tr + geom.f(batch, order) * 2.0) * 0.5


class PerelmanData:
    """H mean and pointwise evaluators for f, F, h, H, normalized H."""

    def __init__(self, geom: GeometryState):
        self.geom = geom
        fx = geom.fixture
        # H first: on a flowed fixture its order-2 read of f integrates the
        # flow at order 3, which the later order-0 read of f truncates
        self.H_mean = fx.integrate([H_scalar(geom, b, 0).value for b in fx.quad_nodes()])
        self.f_mean = fx.integrate([geom.f(b, 0).value for b in fx.quad_nodes()])

    def F(self, batch, order: int) -> Jet:
        return self.geom.f(batch, order) - self.f_mean

    def H_bar(self, batch, order: int) -> Jet:
        return H_scalar(self.geom, batch, order) - self.H_mean

    def h(self, batch, order: int) -> Jet:
        return h_tensor(self.geom, batch, order)


def chern_ricci(geom, batch, order: int) -> Jet:
    """-(d d^c) log rho in the chart; equals the curvature form of the density."""
    logrho = jets.log(geom.rho(batch, order + 2))
    return ddc_scalar(geom, batch, logrho) * (-1.0)


def ddc_scalar(geom, batch, u: Jet) -> Jet:
    """d d^c u with d^c u = -(1/2) du o J; an exact 2-form (m, i, j)."""
    du = u.gradient()
    J = geom.J(batch, du.order)
    beta = jet_einsum("pk,pkj->pj", du, J) * (-0.5)
    dbeta = jet_map("pjd->pdj", beta.gradient())
    return dbeta - jet_map("pij->pji", dbeta)


def d_oneform(alpha: Jet) -> Jet:
    da = jet_map("pjd->pdj", alpha.gradient())
    return da - jet_map("pij->pji", da)


# ---------------------------------------------------------------------------
# the eigenvalue-2 kernel from holomorphic fields


@dataclass
class LambdaBasis:
    functions: list          # complex scalar Fields u_i
    gram: np.ndarray         # hermitian L2 Gram matrix
    cond: float


def divergence_kernel_function(geom, xi_field: Field) -> Field:
    """u = conj(-div_w(xi^{1,0})) with xi^{1,0} = (xi - i J xi)/2."""

    def fn(batch, order):
        xi = xi_field(batch, min(order + 1, 4))
        J = geom.J(batch, xi.order)
        Jxi = jet_einsum("pij,pj->pi", J, xi)
        div = tc.div_omega_vector(geom, batch, xi)
        divJ = tc.div_omega_vector(geom, batch, Jxi)
        return div * (-0.5) + divJ * (-0.5j)

    return Field(fn)


def _closed_form_kernel_functions(geom: GeometryState) -> list[Field]:
    """Degree-1 ambient harmonics X + iY, Z, -X + iY; these are what the
    divergence construction produces on the round fixture (cross-checked)."""

    def make(combine):
        def fn(batch, order):
            X, Y, Z = geom.ambient(batch, order)[:3]
            return combine(X, Y, Z)

        return Field(fn)

    return [
        make(lambda X, Y, Z: X + Y * 1j),
        make(lambda X, Y, Z: Z + Y * 0.0),
        make(lambda X, Y, Z: X * (-1.0) + Y * 1j),
    ]


def lambda_basis(geom: GeometryState) -> LambdaBasis:
    if not geom.fixture.caps.sphere:
        raise UnsupportedGeometryError("the holomorphic-field kernel needs the sphere's "
                                       "holomorphic fields")
    gens = bk.holomorphic_basis(geom.fixture.backend)
    funcs = _closed_form_kernel_functions(geom)
    # the closed forms must reproduce the divergence route pointwise
    for xi_field, f in zip(gens, funcs):
        div_route = divergence_kernel_function(geom, xi_field)
        for b in geom.fixture.check_nodes(0, 40):
            gap = div_route(b, 0).value - f(b, 0).value
            if np.max(np.abs(gap)) > 1e-10:
                raise DegenerateBasisError(
                    "closed-form kernel functions disagree with the divergence route"
                )
    nodes = geom.fixture.quad_nodes()
    vals = [[f(b, 0).value for b in nodes] for f in funcs]
    gram = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            gram[i, j] = geom.fixture.integrate(
                [vi * np.conj(vj) for vi, vj in zip(vals[i], vals[j])])
    ev = np.linalg.eigvalsh(gram)
    return LambdaBasis(functions=funcs, gram=gram, cond=float(ev[-1] / max(ev[0], 1e-300)))


# ---------------------------------------------------------------------------
# the induced bilinear form and the kernel projection


def g_metric(geom, phi: Field, psi: Field) -> float:
    """Re integral (P phi) conj(psi) + (1/2) integral Im(P phi) Im(P psi),
    P the shifted complex Laplacian, for mean-zero phi and psi."""
    fx = geom.fixture
    nodes = fx.quad_nodes()

    def P(f, b):
        return (kh.complex_laplacian(geom, b, f(b, 2)) - f(b, 0) * 2.0).value

    for f in (phi, psi):
        m = fx.integrate([f(b, 0).value for b in nodes])
        if abs(m) > 1e-8:
            raise BadInputError("arguments must have vanishing mean")
    Pphi = [P(phi, b) for b in nodes]
    term1 = fx.integrate([np.real(p * np.conj(psi(b, 0).value)) for p, b in zip(Pphi, nodes)])
    term2 = 0.5 * fx.integrate([np.imag(p) * np.imag(P(psi, b)) for p, b in zip(Pphi, nodes)])
    return term1 + term2


class KernelProjector:
    """L2 projection onto the real span of the kernel functions."""

    def __init__(self, geom: GeometryState, basis: LambdaBasis):
        self.fixture = geom.fixture
        nodes = geom.fixture.quad_nodes()
        fam = []
        for f in basis.functions:
            vals = [f(b, 0).value for b in nodes]
            fam.append([np.real(v) for v in vals])
            fam.append([np.imag(v) for v in vals])
        n = len(fam)
        G = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                G[i, j] = self.fixture.integrate([a * c for a, c in zip(fam[i], fam[j])])
        w, Q = np.linalg.eigh(G)
        if w[-1] <= 0:
            raise DegenerateBasisError("kernel family has no mass")
        keep = w > 1e-12 * w[-1]
        if w[-1] / max(np.min(w[keep]), 1e-300) > 1e8:
            raise DegenerateBasisError("kernel Gram matrix is ill-conditioned")
        self.rank = int(np.sum(keep))
        coef = Q[:, keep] / np.sqrt(w[keep])
        self.ortho = []
        for r in range(self.rank):
            self.ortho.append(
                [sum(coef[i, r] * fam[i][bi] for i in range(n)) for bi in range(len(nodes))]
            )

    def split(self, w_vals: list) -> tuple[list, list]:
        """Return (pi1 w, pi2 w) as value arrays over the quadrature batches."""
        mean = self.fixture.integrate(w_vals)
        if abs(mean) > 1e-8 * max(1.0, max(np.max(np.abs(v)) for v in w_vals)):
            raise BadInputError("projection input must have vanishing mean")
        pi2 = [np.zeros_like(v) for v in w_vals]
        for q in self.ortho:
            c = self.fixture.integrate([a * b for a, b in zip(w_vals, q)])
            pi2 = [p + c * b for p, b in zip(pi2, q)]
        pi1 = [a - b for a, b in zip(w_vals, pi2)]
        return pi1, pi2


# ---------------------------------------------------------------------------
# Lichnerowicz operator and Bochner-type chains


def lichnerowicz_sym2(geom, batch, v: Jet) -> Jet:
    return tc.adjoint(geom, batch, tc.cd(geom, batch, v, "ll"), "lll") + \
        tc.curvature_action_sym2(geom, batch, v) * LICH_CR


def lichnerowicz_endo(geom, batch, A: Jet) -> Jet:
    v = tc.flat_endo(geom, batch, A)
    Lv = lichnerowicz_sym2(geom, batch, v)
    return tc.sharp_sym2(geom, batch, Lv)


def bochner_routes(geom, batch, A: Jet):
    """The two curvature-chain right-hand sides for anti-linear A.

    route1: 2 lap_{-J} A + [Ric*, A] + grad f hook cd A
    route2: 2 lap_{w,-J} A + [Ric*, A] - 2 A del grad f - (J grad f) hook J cd A
    """
    free = geom.unweighted()
    lap_free = kh.hodge_witten(free, batch, A, 1)
    lap_w = kh.hodge_witten(geom, batch, A, 1)
    ric = geom.ric_endo(batch, lap_w.order)
    brk = tc.commutator(ric, A.truncate(ric.order))
    cdA = tc.cd(geom, batch, A, "ul")
    gradf = geom.gradf(batch, cdA.order)
    hook1 = jet_einsum("pa,paij->pij", gradf, cdA)
    route1 = lap_free * 2.0 + brk + hook1
    J = geom.J(batch, cdA.order)
    Jgf = jet_einsum("pij,pj->pi", J, gradf)
    hook2 = jet_einsum("pik,pkj->pij", J, jet_einsum("pa,paij->pij", Jgf, cdA))
    S = kh.partial10_gradf(geom, batch, lap_w.order)
    route2 = lap_w * 2.0 + brk - tc.endo_mul(A.truncate(S.order), S) * 2.0 - hook2
    return route1, route2


def drift_terms(geom, batch, A: Jet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The obstruction's weight terms for anti-linear A (jet order >= 1) as
    pointwise values: <Hess f, A^2>, <(J grad f) hook cd A, A> and
    <(J grad f) hook cd A, J A>; Hess f, grad f and J are read at order 0."""
    A0 = A.truncate(0)
    hessA2 = tc.pair_2tensors(geom, batch, geom.hessf(batch, 0),
                              tc.flat_endo(geom, batch, tc.endo_mul(A0, A0)))
    J = geom.J(batch, 0)
    Jgf = jet_einsum("pij,pj->pi", J, geom.gradf(batch, 0))
    hook = jet_einsum("pa,paij->pij", Jgf, tc.cd(geom, batch, A.truncate(1), "ul"))
    return (hessA2.value, tc.pair_endos(geom, batch, hook, A0).value,
            tc.pair_endos(geom, batch, hook, tc.endo_mul(J, A0)).value)


def stability_identity_sides(geom, batch, A: Jet) -> tuple[np.ndarray, np.ndarray]:
    """``(lhs, rhs)`` of the pointwise defect-corrected stability identity:
    <L_w A, A> + 2 <Hess f, A^2> - <(J grad f) hook cd A, J A> equals
    2 <lap_{w,-J} A, A> for anti-linear symmetric A.
    """
    LA = lichnerowicz_endo(geom, batch, A)
    lhs = tc.pair_endos(geom, batch, LA, A.truncate(LA.order))
    hessA2, _, cross = drift_terms(geom, batch, A)
    HW = kh.hodge_witten(geom, batch, A, 1)
    defect = tc.pair_endos(geom, batch, HW, A.truncate(HW.order))
    return lhs.value + hessA2 * 2.0 - cross, defect.value * 2.0


# ---------------------------------------------------------------------------
# the obstruction functional


def phi_blocks(geom, A_field: Field, order: int) -> Iterator[tuple]:
    """``(batch, A, drift terms)`` per quadrature block: ``A_field`` at
    ``order``, checked J-anti-linear, and the ``drift_terms`` of A to order
    1.  Both routes of the obstruction functional read these; the list of
    them at order 2 serves the two routes with one evaluation of A."""
    for b in geom.fixture.quad_nodes():
        A = A_field(b, order)
        A1 = A.truncate(1)
        kh._check_antilinear(geom, b, A1)
        yield b, A, drift_terms(geom, b, A1)


def phi_functional(geom, A_field: Field, u_fields: Sequence[Field],
                   blocks: Sequence[tuple] | None = None) -> list[float]:
    """Integral of 2 Re(u) <Hess f, A^2> - <(J grad f) hook cd A, i conj(u) x_J A>,
    one value per u in ``u_fields``; ``blocks``, from ``phi_blocks``, stand
    in for the evaluation of ``A_field``."""
    vals = [[] for _ in u_fields]
    if blocks is None:
        blocks = phi_blocks(geom, A_field, 1)
    for b, _, (hessA2, hookA, hookJA) in blocks:
        for out, u_field in zip(vals, u_fields):
            u = u_field(b, 0).value
            u1, u2 = np.real(u), np.imag(u)
            # i conj(u) x_J A = u2 A + u1 J A under the frozen complex action
            out.append(hessA2 * (2.0 * u1) - hookA * u2 - hookJA * u1)
    return [geom.fixture.integrate(v) for v in vals]


def phi_functional_bridge(geom, A_field: Field, u_fields: Sequence[Field],
                          blocks: Sequence[tuple] | None = None) -> list[float]:
    """Second route: (1/2) integral u1 [4 <Hess f, A^2> - 2 <hook, JA>
    - (lap_w - 2)|A|^2], one value per u; equals the direct route for kernel
    arguments.  ``blocks``, from ``phi_blocks`` at order 2, stand in for the
    evaluation of ``A_field``."""
    vals = [[] for _ in u_fields]
    if blocks is None:
        blocks = phi_blocks(geom, A_field, 2)
    for b, A, (hessA2, _, hookJA) in blocks:
        norm2 = tc.pair_endos(geom, b, A, A)
        lapN = tc.adjoint(geom, b, norm2.gradient(), "l") - norm2.truncate(norm2.order - 2) * 2.0
        weight = hessA2 * 4.0 - hookJA * 2.0 - lapN.value
        for out, u_field in zip(vals, u_fields):
            out.append(0.5 * np.real(u_field(b, 0).value) * weight)
    return [geom.fixture.integrate(v) for v in vals]


def integral_identity_sides(geom, pdata: PerelmanData, A_field: Field) -> tuple[float, float]:
    """``(lhs, rhs)``: the integral of |A|^2 F against that of the Hessian and
    drift terms, -(2 <Hess f, A^2> - <(J grad f) hook cd A, J A>)."""
    lhs_vals, rhs_vals = [], []
    for b in geom.fixture.quad_nodes():
        A = A_field(b, 1)
        norm2 = tc.pair_endos(geom, b, A, A).value
        lhs_vals.append(norm2 * pdata.F(b, 0).value)
        hessA2, _, hookJA = drift_terms(geom, b, A)
        rhs_vals.append(-(hessA2 * 2.0 - hookJA))
    return geom.fixture.integrate(lhs_vals), geom.fixture.integrate(rhs_vals)


# ---------------------------------------------------------------------------
# the weighted complex Bochner step and the derivative of normalized H


def grad_J(geom, batch, psi: Jet) -> Jet:
    """The real vector grad(Re psi) + J grad(Im psi)."""
    u1 = Jet(psi.dim, psi.order, np.real(psi.coeffs))
    u2 = Jet(psi.dim, psi.order, np.imag(psi.coeffs))
    g1 = tc.grad_scalar(geom, batch, u1)
    g2 = tc.grad_scalar(geom, batch, u2)
    J = geom.J(batch, g1.order)
    return g1 + jet_einsum("pij,pj->pi", J, g2)


def weighted_complex_bochner_sides(geom, batch, psi: Jet) -> tuple[Jet, Jet]:
    """``(lhs, rhs)``: adjoint(del-bar(grad_J conj(psi))) and
    (1/2) grad_J conj((lap_c - 2) psi).  The Laplacian first: it reads the
    weight one order above the adjoint, which then reads its truncation."""
    lam = kh.complex_laplacian(geom, batch, psi) - psi.truncate(psi.order - 2) * 2.0
    vec = grad_J(geom, batch, kh.conj_jet(psi))
    B = kh.dbar_vector(geom, batch, vec)
    lhs = tc.adjoint(geom, batch, B, "ul")
    rhs = grad_J(geom, batch, kh.conj_jet(lam)) * 0.5
    return lhs, rhs.truncate(lhs.order)


def eta_direction_fields(geom, psi_field: Field):
    """The tangent pair (v, V*) built from a complex potential: the metric
    part -g(del-bar grad_J conj(psi)) and the density rate
    (1/2) Re[(lap_c - 2) psi].

    The overall orientation is fixed so that the derivative of normalized H
    along (v, V* Omega) equals a quarter of the fourth-order square on the
    real part of the potential; under the manifest's symplectic sign this
    is the pair below (both membership constraints are sign-homogeneous).
    """

    def v_fn(batch, order):
        psi = psi_field(batch, order + 2)
        B = kh.dbar_vector(geom, batch, grad_J(geom, batch, kh.conj_jet(psi)))
        v = tc.flat_endo(geom, batch, B) * (-1.0)
        return (v + jet_map("pij->pji", v)) * 0.5

    def Vstar_fn(batch, order):
        psi = psi_field(batch, order + 2)
        lam = kh.complex_laplacian(geom, batch, psi) - psi.truncate(order) * 2.0
        return Jet(lam.dim, lam.order, np.real(lam.coeffs)) * 0.5

    return Field(v_fn), Field(Vstar_fn)


def tangent_cone_sides(geom, batch, v: Jet, Vs: Jet):
    """The membership pairs of a direction (v, V*) on one batch: anti-
    invariance (v against -J^T v J), del-bar closure of the sharp (against
    0), and the closedness constraint linking the density rate to the metric
    part (2 dd^c V* against -d(adj(v*) hook omega))."""
    J = geom.J(batch, v.order)
    JvJ = jet_einsum("pai,paj->pij", J, jet_einsum("pab,pbj->paj", v, J))
    vs = tc.sharp_sym2(geom, batch, v)
    db = kh.dbar_endo(geom, batch, vs)
    t1 = ddc_scalar(geom, batch, Vs) * 2.0
    W = tc.adjoint(geom, batch, vs, "ul")
    om = geom.omega(batch, W.order)
    t2 = d_oneform(jet_einsum("pi,pij->pj", W, om))
    return (v, JvJ * (-1.0)), (db, 0.0), (t1, t2.truncate(t1.order) * (-1.0))


def soliton_characterization_sides(geom, pdata: PerelmanData, batch) -> tuple[Jet, Jet]:
    """``(lhs, rhs)`` on a batch: 2 H_bar and -(lap_c - 2) F (complex)."""
    Hb = pdata.H_bar(batch, 0)
    F = pdata.F(batch, 2)
    lam = kh.complex_laplacian(geom, batch, F) - F.truncate(0) * 2.0
    return Hb * 2.0, lam * (-1.0)
