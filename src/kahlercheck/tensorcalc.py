"""Weighted Riemannian operator calculus on jet-valued tensors.

Index layout: the batch axis comes first, the value (upper) index of a
tangent-valued object precedes its covariant slots, and the covariant
derivative prepends its direction slot.  All frame sums are written as
metric contractions, so no explicit orthonormal frame enters the operators;
a Cholesky-frame route exists separately for frame-independence checks.

Each derivative rule is written once, for any valence, given as a slot
string after the point axis: ``u`` a tangent slot, ``l`` a covariant one
("u" a vector, "l" a 1-form, "ll" a 2-tensor, "ul" an endomorphism, "ull"
a tangent-valued 2-slot object, "lll" a covariant 3-tensor).  ``cd`` is the
one place outside the curvature where Gamma meets a tensor, and ``adjoint``
is the weighted adjoint of ``cd`` on a tensor's first covariant slot.

Weighted objects use the fixture density through f = log(dV_g / Omega):
div_w(xi) = tr(grad xi) - df.xi, the adjoints gain a "+ (grad f) hook" term,
and the scalar Laplacian ``adjoint(du, "l")`` is positive-spectrum:
lap_w(u) = -tr_g Hess u + <grad f, grad u>.
"""

from __future__ import annotations

import numpy as np

from .errors import BadDegreeError, BadValenceError
from .jets import Jet, jet_einsum, jet_map

# ---------------------------------------------------------------------------
# the covariant derivative (direction slot first in the output)

_SLOTS = "ijkl"        # value and form slots; "a" is the direction, "z" a dummy


def _labels(slots: str) -> str:
    if not slots or len(slots) > len(_SLOTS) or set(slots) - set("ul"):
        raise BadValenceError(f"slot string {slots!r}: one to four of 'u' and 'l'")
    return _SLOTS[:len(slots)]


def cd(geom, batch, T: Jet, slots: str) -> Jet:
    """nabla T, layout (m, a, *slots): the coordinate derivative, then, slot
    by slot in order, + Gamma . T on a tangent slot ``u`` and - Gamma . T on
    a covariant slot ``l``."""
    s = _labels(slots)
    out = jet_map(f"p{s}a->pa{s}", T.gradient())
    G = geom.gamma(batch, T.order - 1)
    for k, (kind, c) in enumerate(zip(slots, s)):
        Tz = f"p{s[:k]}z{s[k + 1:]}"
        if kind == "u":
            out = out + jet_einsum(f"p{c}az,{Tz}->pa{s}", G, T)
        else:
            out = out - jet_einsum(f"pza{c},{Tz}->pa{s}", G, T)
    return out


# ---------------------------------------------------------------------------
# index gymnastics and pairings


def sharp_sym2(geom, batch, v: Jet) -> Jet:
    """v*_g = g^{-1} v as an endomorphism."""
    return jet_einsum("pik,pkj->pij", geom.ginv(batch, v.order), v)


def flat_endo(geom, batch, A: Jet) -> Jet:
    """g A as a bilinear form."""
    return jet_einsum("pik,pkj->pij", geom.g(batch, A.order), A)


def sharp_oneform(geom, batch, al: Jet) -> Jet:
    return jet_einsum("pij,pj->pi", geom.ginv(batch, al.order), al)


def flat_vector(geom, batch, X: Jet) -> Jet:
    return jet_einsum("pij,pj->pi", geom.g(batch, X.order), X)


def grad_scalar(geom, batch, u: Jet) -> Jet:
    return sharp_oneform(geom, batch, u.gradient())


def raise2(geom, batch, v: Jet) -> Jet:
    gi = geom.ginv(batch, v.order)
    return jet_einsum("pik,pkj->pij", gi, jet_einsum("pik,pjk->pij", v, gi))


def pair_vectors(geom, batch, X: Jet, Y: Jet) -> Jet:
    return jet_einsum("pi,pi->p", flat_vector(geom, batch, X), Y)


def pair_oneforms(geom, batch, a: Jet, b: Jet) -> Jet:
    return jet_einsum("pi,pi->p", sharp_oneform(geom, batch, a), b)


def pair_2tensors(geom, batch, u: Jet, v: Jet) -> Jet:
    """<u, v>_g = u(e_k, e_l) v(e_k, e_l), no half factor."""
    return jet_einsum("pij,pij->p", raise2(geom, batch, u), v)


def pair_endos(geom, batch, A: Jet, B: Jet) -> Jet:
    """<A, B>_g = sum_k g(A e_k, B e_k)."""
    gA = flat_endo(geom, batch, A)
    Bu = jet_einsum("pjl,plk->pjk", B, geom.ginv(batch, B.order))
    return jet_einsum("pjk,pjk->p", gA, Bu)


def pair_slots2(geom, batch, S: Jet, T: Jet) -> Jet:
    """Full frame contraction of two tangent-valued 2-slot objects.

    Layout (m, i, a, b): value index i first, then the two covariant slots.
    """
    g = geom.g(batch, S.order)
    gi = geom.ginv(batch, S.order)
    Sl = jet_einsum("pij,pjab->piab", g, S)
    Tu = jet_einsum("piab,pac->picb", T, gi)
    Tu = jet_einsum("picb,pbd->picd", Tu, gi)
    return jet_einsum("piab,piab->p", Sl, Tu)


def endo_mul(A: Jet, B: Jet) -> Jet:
    return jet_einsum("pik,pkj->pij", A, B)


def commutator(A: Jet, B: Jet) -> Jet:
    return endo_mul(A, B) - endo_mul(B, A)


def transpose_endo(geom, batch, A: Jet) -> Jet:
    """g-transpose: g(A^T x, y) = g(x, A y)."""
    gi = geom.ginv(batch, A.order)
    g = geom.g(batch, A.order)
    return jet_einsum("pik,pkj->pij", gi, jet_einsum("plk,plj->pkj", A, g))


# ---------------------------------------------------------------------------
# weighted divergences, adjoints, Laplacians


def div_omega_vector(geom, batch, X: Jet) -> Jet:
    """div_w X = tr(nabla X) - df(X): it traces the tangent slot, so no metric."""
    cdX = cd(geom, batch, X, "u")
    tr = jet_map("paa->p", cdX)
    df = geom.df(batch, cdX.order)
    return tr - jet_einsum("pi,pi->p", df, X)


def adjoint(geom, batch, T: Jet, slots: str) -> Jet:
    """nabla*_w on T's first covariant slot: -g^{ab} (nabla_a T)(..e_b..)
    + T(..grad f..), with that slot removed.  The weighted Laplacian is
    ``adjoint(du, "l")``, the rough Laplacian of a 2-tensor
    ``adjoint(cd(v, "ll"), "lll")`` and the weighted divergence of a 1-form
    ``-adjoint(alpha, "l")``."""
    s = _labels(slots)
    if "l" not in slots:
        raise BadValenceError(f"slot string {slots!r} has no covariant slot")
    k = slots.index("l")
    c, rest = s[k], s[:k] + s[k + 1:]
    cdT = cd(geom, batch, T, slots)
    gi = geom.ginv(batch, cdT.order)
    t1 = jet_einsum(f"pa{c},pa{s}->p{rest}", gi, cdT) * (-1.0)
    gradf = geom.gradf(batch, cdT.order)
    # the operand order sets the convolution's order of summation: grad f
    # filling the last of several slots is written T . grad f, as A grad f
    if 0 < k == len(s) - 1:
        t2 = jet_einsum(f"p{s},p{c}->p{rest}", T, gradf)
    else:
        t2 = jet_einsum(f"p{c},p{s}->p{rest}", gradf, T)
    return t1 + t2


def curvature_action_sym2(geom, batch, v: Jet) -> Jet:
    """R(v)_{ij} = R_{iajb} v^{ab} with the covariant curvature."""
    R = geom.riemann_cov(batch, min(v.order, 2))
    vu = raise2(geom, batch, v)
    return jet_einsum("piajb,pab->pij", R, vu)


# ---------------------------------------------------------------------------
# the weighted 1-form M and the contraction operations


def m_form(geom, batch, u: Jet, v: Jet) -> Jet:
    """M(u, v)(xi) = 2 cd(v)(e_k, u* e_k, xi) + cd(u)(xi, v* e_k, e_k)."""
    cdv = cd(geom, batch, v, "ll")
    cdu = cd(geom, batch, u, "ll")
    u_up = raise2(geom, batch, u).truncate(cdv.order)
    v_up = raise2(geom, batch, v).truncate(cdu.order)
    t1 = jet_einsum("pab,pabc->pc", u_up, cdv) * 2.0
    t2 = jet_einsum("pbc,pabc->pa", v_up, cdu)
    return t1 + t2


def contraction(A: Jet, B: Jet) -> Jet:
    """A hook B := Alt(B o A); Alt normalized to fix antisymmetric forms.

    B may be a 1-form (plain composition) or a bilinear form.
    """
    nb = len(B.batch_shape)
    if nb == 2:  # (m, i): 1-form
        return jet_einsum("pa,pai->pi", B, A)
    if nb == 3:  # (m, i, j): bilinear
        D = jet_einsum("paj,pai->pij", B, A)
        return (D - jet_map("pij->pji", D)) * 0.5
    raise BadValenceError("contraction expects a 1-form or bilinear form")


def generalized_contraction(alpha: Jet, beta: Jet, p: int, q: int) -> Jet:
    """Contraction of a tangent-valued p-form into an E-valued q-form.

    Implemented for p = 1 (endomorphism-type alpha).  For q = 1 this is
    composition; for q = 2 the two-slot alternating insertion (no half
    factor), matching the graded expansion used by the bracket identities.
    ``beta`` layout: scalar-valued (m, slots...) or tangent-valued with the
    value index first (m, i, slots...).
    """
    if p < 1:
        raise BadDegreeError("contraction needs a form degree >= 1")
    if p != 1:
        raise BadDegreeError("only degree-1 contractions are implemented")
    nb = len(beta.batch_shape)
    if q == 1:
        if nb == 2:      # scalar-valued 1-form
            return jet_einsum("pa,pai->pi", beta, alpha)
        if nb == 3:      # tangent-valued 1-form (endomorphism)
            return jet_einsum("pia,paj->pij", beta, alpha)
    if q == 2:
        if nb == 3:      # scalar-valued 2-form
            D = jet_einsum("pab,pai->pib", beta, alpha)
            return D - jet_map("pib->pbi", D)
        if nb == 4:      # tangent-valued 2-form (m, i, a, b)
            D = jet_einsum("piab,paj->pijb", beta, alpha)
            return D - jet_map("pijb->pibj", D)
    raise BadValenceError(f"unsupported contraction arity q={q} for shape {beta.batch_shape}")


# ---------------------------------------------------------------------------
# orthonormal frames (used only by independence cross-checks)


def cholesky_frame(gval: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Columns form a g-orthonormal frame; optional random rotation."""
    L = np.linalg.cholesky(gval)
    frame = np.linalg.inv(np.swapaxes(L, -1, -2))  # L^{-T}: columns e_k
    if rng is not None:
        n = gval.shape[-1]
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        frame = frame @ Q
    return frame


def m_form_frame_values(geom, batch, u: Jet, v: Jet, frame: np.ndarray) -> np.ndarray:
    """Value-level frame-sum route for M(u, v), for frame-independence tests.

    ``frame[p, :, k]`` is the k-th frame vector at node p.
    """
    cdv = cd(geom, batch, v, "ll").value
    cdu = cd(geom, batch, u, "ll").value
    u_star = sharp_sym2(geom, batch, u).value
    v_star = sharp_sym2(geom, batch, v).value
    t1 = 2.0 * np.einsum("pak,pbm,pmk,pabc->pc", frame, u_star, frame, cdv)
    t2 = np.einsum("pbm,pmk,pck,pabc->pa", v_star, frame, frame, cdu)
    return t1 + t2
