"""Named first/second-variation formula checks.

Every entry compares a t-derivative of an operator-valued map along a
deformation curve against a closed-form right-hand side evaluated at the
base geometry.  The map is evaluated once on the curve's t-series (see
:mod:`variation`), whose t-coefficients are the exact derivatives, so a
residual measures the identity and roundoff, not a step size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fields as fl
from . import jets as jmath
from . import kahler as kh
from . import soliton as so
from . import tensorcalc as tc
from .backends import Field, Fixture
from .conventions import MANIFEST
from .errors import NanInFieldError
from .geometry import FixtureScope, GeometryState
from .jets import Jet, jet_einsum, jet_map
from .variation import HamiltonianFlowCurve, LinearCurve, StructureConjugationCurve

NIJ_SCALE = float(MANIFEST["nijenhuis_variation_scale"])


@dataclass
class RunOptions:
    node_count: int = 120


class Sides:
    """The named (lhs, rhs) pairs a runner compares, before tolerance gating.

    ``add`` records one comparison; a name may be added once per batch, and
    its sup and scale are taken over every add.  ``details`` holds reported
    values that are not compared, ``skip`` a reason not to gate the record
    and ``reason`` the cause of a failed requirement.  ``measure`` turns the
    pairs into the record's residuals.
    """

    def __init__(self, skip: str = ""):
        self.skip = skip
        self.reason = ""
        self.details: dict = {}
        self._pairs: dict = {}      # name -> [sup |lhs - rhs|, sup(|lhs|, |rhs|)]
        self._gaps: list = []       # |lhs - rhs| of every add, raveled, in add order

    def add(self, name: str, lhs, rhs):
        """Compare ``lhs`` with ``rhs``: jets (their values are read), arrays
        or numbers, subtracted before raveling so that a constant side
        broadcasts."""
        lhs, rhs = (np.asarray(x.value if isinstance(x, Jet) else x) for x in (lhs, rhs))
        gap = np.abs(lhs - rhs).ravel()
        self._gaps.append(gap)
        sup, scale = _sup(gap), max(_sup(lhs), _sup(rhs))
        if name in self._pairs:
            old = self._pairs[name]
            sup, scale = float(np.maximum(old[0], sup)), max(old[1], scale)
        self._pairs[name] = [sup, scale]

    def require(self, name: str, ok: bool, reason: str):
        """A condition that is not a comparison: when it fails it is the
        pair ``name`` of 1 against 0, and ``reason`` explains the record."""
        if not ok:
            self.add(name, 1.0, 0.0)
            self.reason = reason

    @property
    def sup(self) -> float:
        """The largest sup |lhs - rhs| over all pairs, 0 with none."""
        return float(np.max([p[0] for p in self._pairs.values()])) if self._pairs else 0.0

    def measure(self) -> tuple[float, float, dict]:
        """``(residual_sup, residual_l2, details)``: the largest pair sup, the
        RMS of every compared component, and the reported details with each
        pair's sup, the ``worst`` pair and its ``scale``."""
        details = dict(self.details)
        if not self._pairs:
            return 0.0, 0.0, details
        names = list(self._pairs)
        sups = np.array([self._pairs[n][0] for n in names])
        worst = names[int(np.argmax(sups))]
        details.update({n: self._pairs[n][0] for n in names})
        details["worst"], details["scale"] = worst, self._pairs[worst][1]
        gaps = np.concatenate(self._gaps)
        return float(sups.max()), float(np.sqrt(np.mean(gaps * gaps))), details


def _sup(arr) -> float:
    return float(np.max(np.abs(arr))) if np.size(arr) else 0.0


def _geom_cache(curve):
    """``at.series(t0, q)``, the geometry of the curve's series of degree q
    around t0, and ``at(t)``, the geometry at t, which is ``at.series(t, 0)``.
    Each is built once, keyed by (t0 rounded to 12 digits, q) and built at
    that rounded t0, as the flows are."""
    cache: dict = {}

    def series(t0: float, q: int) -> GeometryState:
        key = (round(t0, 12), q)
        if key not in cache:
            cache[key] = GeometryState(curve.series_at(*key))
        return cache[key]

    def at(t: float) -> GeometryState:
        return series(t, 0)

    at.curve = curve  # type: ignore[attr-defined]
    at.series = series  # type: ignore[attr-defined]
    return at


def _directions(geom, seed):
    v = fl.seeded_sym2(geom, seed)
    Vs = fl.seeded_scalar(geom, seed + 31, mean_zero=True)
    return v, Vs


def _linear_family(fixture: Fixture, seed: int):
    """Base geometry, the seeded direction (v, V*) and the geometry cache of
    the linear curve along it."""
    geom = GeometryState(fixture)
    v, Vs = _directions(geom, seed)
    return geom, v, Vs, _geom_cache(LinearCurve(fixture, v, Vs))


def _tder(at, map_fn, order=1, t0=0.0) -> Jet:
    """The ``order``-th t-derivative at ``t0`` of ``map_fn(geometry at t)``
    along the curve of ``at``, exact: ``order!`` times the t^order
    coefficient of ``map_fn`` on the curve's series of that degree."""
    val = map_fn(at.series(t0, order))
    if not np.all(np.isfinite(val.coeffs)):
        raise NanInFieldError(f"map not finite on the t-series at t0={t0}")
    return jmath.tcoeff(val, order) * float(math.factorial(order))


def _tders(at, seed, opts, lhs, order=1, inputs=lambda batch: ()):
    """Yield ``(batch, x, derivative)`` for every check batch: ``x`` is the
    tuple ``inputs(batch)``, evaluated once, and the derivative is taken of
    ``lhs(geometry at t, batch, *x)`` at t = 0."""
    for batch in at.curve.base.check_nodes(seed, opts.node_count):
        x = inputs(batch)
        yield batch, x, _tder(at, lambda gt: lhs(gt, batch, *x), order)


def _tder_check(at, seed, opts, lhs, rhs, factor=1.0, inputs=lambda batch: ()) -> Sides:
    """The pair ``variation``, ``factor * d/dt lhs`` against ``rhs``, on
    every check batch.

    ``lhs`` and ``inputs`` are as in ``_tders``; ``rhs(batch, *x)`` is the
    closed form at t = 0 and may take t-derivatives of its own.
    """
    s = Sides()
    for batch, x, der in _tders(at, seed, opts, lhs, inputs=inputs):
        s.add("variation", der.value * factor, rhs(batch, *x))
    return s


# ---------------------------------------------------------------------------
# first-variation entries on linear curves


def run_v_f(fixture: Fixture, seed: int, opts: RunOptions) -> Sides:
    geom, v, Vs, at = _linear_family(fixture, seed)

    def rhs(batch):
        tr = jet_einsum("pij,pij->p", geom.ginv(batch, 0), v(batch, 0))
        return tr * 0.5 - Vs(batch, 0)

    return _tder_check(at, seed, opts, lambda gt, batch: gt.f(batch, 0), rhs)


def run_v_grad(fixture, seed, opts) -> Sides:
    geom, v, Vs, at = _linear_family(fixture, seed)

    def rhs(batch):
        fdot_expr = jet_einsum("pij,pij->p", geom.ginv(batch, 1), v(batch, 1)) * 0.5 \
            - Vs(batch, 1)
        rhs = tc.grad_scalar(geom, batch, fdot_expr)
        vstar = tc.sharp_sym2(geom, batch, v(batch, 0))
        return rhs - jet_einsum("pij,pj->pi", vstar, geom.gradf(batch, 0))

    return _tder_check(at, seed, opts, lambda gt, batch: gt.gradf(batch, 0), rhs)


def run_v_adj(fixture, seed, opts) -> Sides:
    geom, v, Vs, at = _linear_family(fixture, seed)
    u = fl.seeded_sym2(geom, seed + 57)

    def rhs(batch, uj):
        w = _gauge_vector(geom, batch, v, Vs)
        return tc.m_form(geom, batch, v(batch, 2), uj) \
            - jet_einsum("pi,pij->pj", w, uj.truncate(w.order)) * 2.0

    return _tder_check(at, seed, opts, lambda gt, batch, uj: tc.adjoint(gt, batch, uj, "ll"),
                        rhs, factor=2.0,
                        inputs=lambda batch: (u(batch, 1),))


def _gauge_vector(geom, batch, v: Field, Vs: Field, order: int = 1) -> Jet:
    """adj(v*) + grad(V*), the vector controlling every first variation."""
    vstar = tc.sharp_sym2(geom, batch, v(batch, order + 1))
    w = tc.adjoint(geom, batch, vstar, "ul")
    return w + tc.grad_scalar(geom, batch, Vs(batch, order + 1))


def _pair_cd_with_sym2(geom, batch, cdW: Jet, v: Jet) -> Jet:
    """sum_k g(cd_{e_k} W, v* e_k) for an endo-valued derivative (m, a, i)."""
    g = geom.g(batch, cdW.order)
    lowered = jet_einsum("pji,pai->paj", g, cdW)
    v_up = tc.raise2(geom, batch, v).truncate(lowered.order)
    return jet_einsum("paj,paj->p", lowered, v_up)


def run_v_trcov(fixture, seed, opts) -> Sides:
    geom, v, Vs, at = _linear_family(fixture, seed)
    u = fl.seeded_sym2(geom, seed + 57)

    def lhs(gt, batch, uj):
        return jet_einsum("pab,pabj->pj", geom.ginv(batch, 0), tc.cd(gt, batch, uj, "ll"))

    def rhs(batch, uj):
        vj = v(batch, 2)
        vstar = tc.sharp_sym2(geom, batch, vj)
        w_unw = tc.adjoint(geom.unweighted(), batch, vstar, "ul")
        t1 = jet_einsum("pi,pij->pj", w_unw, uj.truncate(w_unw.order)) * 2.0
        cdv = tc.cd(geom, batch, vj, "ll")
        ustar = tc.sharp_sym2(geom, batch, uj)
        X = jet_einsum("pbc,pabc->pa", geom.ginv(batch, 1), cdv)
        t2 = jet_einsum("pa,paj->pj", X, ustar.truncate(X.order))
        u_up = tc.raise2(geom, batch, uj)
        t3 = jet_einsum("pbc,pabc->pa", u_up.truncate(cdv.order), cdv)
        return t1 + t2 - t3

    return _tder_check(at, seed, opts, lhs, rhs, factor=2.0,
                        inputs=lambda batch: (u(batch, 1),))


def run_v_div1(fixture, seed, opts) -> Sides:
    geom, v, Vs, at = _linear_family(fixture, seed)
    al = fl.seeded_oneform(geom, seed + 91)

    def rhs(batch, aj):
        sharp_a = tc.sharp_oneform(geom, batch, aj)
        cd_sharp = tc.cd(geom, batch, sharp_a, "u")
        pairing = _pair_cd_with_sym2(geom, batch, cd_sharp, v(batch, 1))
        w = _gauge_vector(geom, batch, v, Vs, order=0)
        return pairing * (-1.0) + jet_einsum("pi,pi->p", aj.truncate(w.order), w)

    return _tder_check(at, seed, opts, lambda gt, batch, aj: -tc.adjoint(gt, batch, aj, "l"), rhs,
                        inputs=lambda batch: (al(batch, 1),))


def run_v_div2(fixture, seed, opts) -> Sides:
    geom, v, Vs, at = _linear_family(fixture, seed)

    def lhs(gt, batch, vj2):
        return -tc.adjoint(gt, batch, tc.adjoint(gt, batch, vj2, "ll"), "l")

    return _tder_check(at, seed, opts, lhs,
                        lambda batch, _: _v_div2_rhs(geom, batch, v, Vs),
                        inputs=lambda batch: (v(batch, 2),))


def _v_div2_rhs(geom, batch, v: Field, Vs: Field) -> Jet:
    vj = v(batch, 3)
    norm2 = tc.pair_2tensors(geom, batch, vj, vj)
    r1 = tc.adjoint(geom, batch, norm2.truncate(2).gradient(), "l") * (-0.25)
    vstar = tc.sharp_sym2(geom, batch, vj)
    cdvs = tc.cd(geom, batch, vstar, "ul")
    hat = jet_map("pjia->piaj", cdvs)
    adj_hat = tc.adjoint(geom, batch, hat, "ull")
    r2 = tc.pair_endos(geom, batch, adj_hat, vstar.truncate(adj_hat.order)) * (-1.0)
    r3 = tc.pair_slots2(geom, batch, hat.truncate(1), jet_map("paij->piaj", cdvs.truncate(1)))
    alpha = tc.adjoint(geom, batch, vj, "ll")
    w = _gauge_vector(geom, batch, v, Vs, order=1)
    r4 = jet_einsum("pi,pi->p", alpha.truncate(w.order), w) * 2.0
    adj_vs = tc.adjoint(geom, batch, vstar, "ul")
    W2 = adj_vs * 2.0 + tc.grad_scalar(geom, batch, Vs(batch, 2))
    cdW = tc.cd(geom, batch, W2, "u")
    r5 = _pair_cd_with_sym2(geom, batch, cdW, vj.truncate(cdW.order)) * (-1.0)
    k = min(r1.order, r2.order, r3.order, r4.order, r5.order)
    return r1.truncate(k) + r2.truncate(k) + r3.truncate(k) + r4.truncate(k) + r5.truncate(k)


def run_v_super(fixture, seed, opts) -> Sides:
    geom, v, Vs, at = _linear_family(fixture, seed)

    def rhs(batch, vstar0):
        vj = v(batch, 2)
        norm2 = tc.pair_2tensors(geom, batch, vj, vj)
        grad_norm = tc.grad_scalar(geom, batch, norm2.truncate(2))
        w = _gauge_vector(geom, batch, v, Vs, order=0)
        return grad_norm * 0.5 - jet_einsum(
            "pij,pj->pi", vstar0.truncate(w.order), w
        ) * 2.0

    return _tder_check(at, seed, opts, lambda gt, batch, vs: tc.adjoint(gt, batch, vs, "ul"),
                        rhs, factor=2.0,
                        inputs=lambda batch: (tc.sharp_sym2(geom, batch, v(batch, 1)),))


def run_v_dh(fixture, seed, opts) -> Sides:
    geom, v, Vs, at = _linear_family(fixture, seed)
    return _tder_check(at, seed, opts, lambda gt, batch: so.H_scalar(gt, batch, 0),
                        lambda batch: _dh_formula(geom, batch, v(batch, 3), Vs(batch, 3)),
                        factor=2.0)


def _dh_formula(geom, batch, vj: Jet, Vsj: Jet) -> Jet:
    """2 dH/dt = (lap_w - 2) V* - div_w(adj(v) + dV*) - <v, h>."""
    lapV = tc.adjoint(geom, batch, Vsj.gradient(), "l") - Vsj.truncate(Vsj.order - 2) * 2.0
    alpha = tc.adjoint(geom, batch, vj, "ll") + Vsj.gradient().truncate(vj.order - 1)
    adj = tc.adjoint(geom, batch, alpha, "l")           # -div_w(alpha)
    h = so.h_tensor(geom, batch, min(vj.order, 1))
    pair = tc.pair_2tensors(geom, batch, vj.truncate(h.order), h)
    k = min(lapV.order, adj.order, pair.order)
    return lapV.truncate(k) + adj.truncate(k) - pair.truncate(k)


def _hess_rhs(geom, batch, vj, Vsj, vstar, norm2, Vs2, w, kappa):
    L = so.lichnerowicz_sym2(geom, batch, vj)
    r1 = tc.pair_2tensors(geom, batch, L, vj.truncate(L.order)) * (-0.5)
    inner = norm2 * 0.25 + Vs2
    r2 = tc.adjoint(geom, batch, inner.truncate(2).gradient(), "l") * (-1.0)
    r3 = norm2 * 0.5 + Vs2 + (-0.5 * kappa)
    r4 = tc.pair_vectors(geom, batch, w, w) * (-2.0)
    adj_vs = tc.adjoint(geom, batch, vstar, "ul")
    gradV = tc.grad_scalar(geom, batch, Vsj)
    W2 = adj_vs * 2.0 + gradV.truncate(adj_vs.order) * 3.0
    cdW = tc.cd(geom, batch, W2, "u")
    r5 = _pair_cd_with_sym2(geom, batch, cdW, vj.truncate(cdW.order))
    r6 = tc.pair_vectors(
        geom, batch, adj_vs, adj_vs + gradV.truncate(adj_vs.order) * 2.0
    )
    div_adj = tc.div_omega_vector(geom, batch, adj_vs)
    h = so.h_tensor(geom, batch, 1)
    r7 = jet_einsum(
        "p,p->p", Vsj.truncate(div_adj.order),
        div_adj + tc.pair_2tensors(geom, batch, vj.truncate(h.order), h).truncate(div_adj.order),
    )
    k = min(r1.order, r2.order, r4.order, r5.order, r6.order, r7.order)
    return r1.truncate(k) + r2.truncate(k) + r3.truncate(k) + r4.truncate(k) + \
        r5.truncate(k) + r6.truncate(k) + r7.truncate(k)


def _hess_assemble(geom, seed, opts, v: Field, Vs: Field, cases):
    """Shared assembly for the second-variation checks on the base geometry
    ``geom``: for each ``(kappa, rhs)`` case, the second t-derivative of H
    less the first-variation correction, against ``rhs``.  H is differentiated
    once per batch for all cases.  Returns, per case, the (lhs, rhs) values
    of every batch, and the direction-constraint vector adj(v*) + grad V*
    against 0 as the pair ``direction_constraint``."""
    at = _geom_cache(LinearCurve(geom.fixture, v, Vs))
    pairs, constraint = [[] for _ in cases], Sides()
    for batch, _, d2 in _tders(at, seed, opts, lambda gt, batch: so.H_scalar(gt, batch, 0),
                               order=2):
        vj = v(batch, 3)
        Vsj = Vs(batch, 3)
        vstar = tc.sharp_sym2(geom, batch, vj)
        theta = jet_einsum("p,pij->pij", Vsj, vj) - \
            jet_einsum("pba,pbc->pac", vstar, vj)
        norm2 = tc.pair_2tensors(geom, batch, vj, vj)
        Vs2 = jet_einsum("p,p->p", Vsj, Vsj)
        w = _gauge_vector(geom, batch, v, Vs, order=1)
        constraint.add("direction_constraint", w, 0.0)
        for out, (kappa, rhs) in zip(pairs, cases):
            theta_star = (norm2 - Vs2 * 2.0 + (-kappa)) * 0.25
            dh_theta = _dh_formula(geom, batch, theta, theta_star) * 0.5
            lhs = d2.value * 2.0 - 2.0 * dh_theta.value
            out.append((lhs, rhs(geom, batch, vj, Vsj, vstar, norm2, Vs2, w, kappa).value))
    return pairs, constraint


def _hess_sides(checked, spread_cases) -> Sides:
    """The pair ``variation`` of the ``checked`` case, and as the detail
    ``kappa_independence`` the largest gap between the residuals of two
    ``spread_cases`` on the same batch."""
    s, spread = Sides(), Sides()
    for lhs, rhs in checked:
        s.add("variation", lhs, rhs)
    for a, b in itertools.combinations(spread_cases, 2):
        for (la, ra), (lb, rb) in zip(a, b):
            spread.add("kappa_independence", la - ra, lb - rb)
    s.details["kappa_independence"] = spread.sup
    return s


def run_v_hess(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    v, Vs = _directions(geom, seed)
    cases, _ = _hess_assemble(geom, seed, opts, v, Vs,
                              [(kappa, _hess_rhs) for kappa in (0.0, 1.0, 10.0)])
    return _hess_sides(cases[0], cases)


def run_v_hess_f(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)

    # the direction ((1 + f) e^f g, (e^f - mean) Omega) satisfies the
    # divergence constraint exactly; it is normalized to order one
    probe = fixture.check_nodes(seed + 3, 60)[0]
    fv = geom.f(probe, 0).value
    scale = 1.0 / max(np.max(np.abs((1.0 + fv) * np.exp(fv))), 1.0)

    def v_fn(batch, order):
        f = geom.f(batch, order)
        s = jet_einsum("p,p->p", f + 1.0, jmath.exp(f)) * scale
        extra = Jet.const(0.0, geom.dim, order, (batch.size, geom.dim, geom.dim))
        if fixture.caps.flat:
            d = np.zeros((geom.dim, geom.dim))
            d[0, 0], d[1, 1] = 0.7, -0.7
            extra.coeffs[0] += d
        return jet_einsum("p,pij->pij", s, geom.g(batch, order)) + extra

    raw_mean_field = Field(lambda b, k: jmath.exp(geom.f(b, k)))
    mean = fixture.integrate([raw_mean_field(b, 0).value for b in fixture.quad_nodes()])

    def Vs_fn(batch, order):
        return (jmath.exp(geom.f(batch, order)) - mean) * scale

    # the constrained statement replaces the assembled right-hand side; it is
    # checked at kappa = 0 against the dedicated formula
    (r0, r1, constrained), constraint = _hess_assemble(
        geom, seed, opts, Field(v_fn), Field(Vs_fn),
        [(0.0, _hess_rhs), (1.0, _hess_rhs), (0.0, _hess_f_rhs)])
    s = _hess_sides(constrained, [r0, r1])
    s.details["direction_constraint"] = constraint.sup
    return s


def _hess_f_rhs(geom, batch, vj: Jet, Vsj: Jet, *_) -> Jet:
    L = so.lichnerowicz_sym2(geom, batch, vj)
    alpha = tc.adjoint(geom, batch, vj, "ll")
    grad_adj = tc.cd(geom, batch, alpha, "l")
    r1 = (tc.pair_2tensors(geom, batch, L, vj.truncate(L.order)) +
          tc.pair_2tensors(geom, batch, grad_adj, vj.truncate(grad_adj.order)) * 2.0) * (-0.5)
    norm2 = tc.pair_2tensors(geom, batch, vj, vj)
    Vs2 = jet_einsum("p,p->p", Vsj, Vsj)
    inner = norm2 * 0.5 + Vs2
    lap_inner = tc.adjoint(geom, batch, inner.truncate(2).gradient(), "l") \
        - inner.truncate(0) * 2.0
    r2 = lap_inner * (-0.5)
    h = so.h_tensor(geom, batch, 1)
    r3 = jet_einsum("p,p->p", Vsj.truncate(h.order),
                    tc.pair_2tensors(geom, batch, vj.truncate(h.order), h))
    k = min(r1.order, r2.order, r3.order)
    return r1.truncate(k) + r2.truncate(k) + r3.truncate(k)


# ---------------------------------------------------------------------------
# structure-variation entries on pullback / conjugation curves


def make_structure_curve(fixture: Fixture, seed: int):
    """Pointwise conjugation curves on tori (not integrable for t != 0 in
    two complex dimensions, which is what the torsion-variation check
    wants), Hamiltonian pullbacks on the projective line."""
    if fixture.caps.sphere:
        # the same Hamiltonian as the Kahler family, so the same curve
        return make_kahler_family(fixture, seed)
    A = fl.seeded_antilinear(GeometryState(fixture), seed + 7)
    return StructureConjugationCurve(fixture, A)


def make_kahler_family(fixture: Fixture, seed: int):
    """Curves that stay integrable and compatible: Hamiltonian pullbacks.

    The structure-derivative formulas below differentiate the Kahler
    condition, so their premise is an integrable family; symplectomorphism
    pullbacks realize that on every fixture.  Inside a ``FixtureScope`` on
    ``fixture`` there is one curve per seed, whose flow cache then serves
    every check along it; outside one, every call builds a new curve."""
    scope = FixtureScope.on(fixture)
    families = scope.families if scope else {}
    if seed not in families:
        amp = 0.15 if fixture.caps.periodic else 0.5
        ham = fl.seeded_scalar(GeometryState(fixture), seed + 7, mean_zero=True, amp=amp)
        families[seed] = HamiltonianFlowCurve(fixture, ham)
    return families[seed]


def run_v_gdot(fixture, seed, opts) -> Sides:
    at = _geom_cache(make_structure_curve(fixture, seed))
    geom = at(0.0)
    s = Sides()
    for batch, _, gdot in _tders(at, seed, opts, lambda gt, batch: gt.g(batch, 0)):
        Jdot = _tder(at, lambda gt: gt.J(batch, 0))
        gi = geom.ginv(batch, 0)
        gds = jet_einsum("pik,pkj->pij", gi, gdot)
        J0 = geom.J(batch, 0)
        s.add("variation", gds, jet_einsum("pik,pkj->pij", J0, Jdot) * (-1.0))
        gddot = _tder(at, lambda gt: gt.g(batch, 0), 2)
        gdds = jet_einsum("pik,pkj->pij", gi, gddot)
        JgJ = jet_einsum("pik,pkj->pij", J0,
                         jet_einsum("pik,pkj->pij", gdds, J0))
        s.add("second_order_residual", (gdds - JgJ) * 0.5,
              jet_einsum("pik,pkj->pij", gds, gds))
    return s


def run_v_nj(fixture, seed, opts) -> Sides:
    at = _geom_cache(make_structure_curve(fixture, seed))
    geom = at(0.0)
    consequence = []

    def rhs(batch):
        Jdot = _tder(at, lambda gt: gt.J(batch, 2))
        db = kh.dbar_endo(geom, batch, Jdot)
        J0 = geom.J(batch, db.order)
        dbar_term = jet_einsum("pik,pkab->piab", J0, db) * NIJ_SCALE
        N0 = kh.nijenhuis(geom, batch, geom.J(batch, 2))
        hook = tc.generalized_contraction(Jdot.truncate(N0.order), N0, 1, 2)
        comp = jet_einsum("pik,pkab->piab", Jdot.truncate(N0.order), N0)
        # consequence, on the same batch: along the curve the structure
        # variation stays del-bar closed whenever the structures remain
        # integrable
        if fixture.caps.dim == 2:
            for tt in (0.0, 0.5 * at.curve.t_max * 0.4, -0.5 * at.curve.t_max * 0.4):
                gt = at(tt)
                Jd_t = _tder(at, lambda gs: gs.J(batch, 2), t0=tt)
                consequence.append(kh.dbar_endo(gt, batch, Jd_t))
        return dbar_term + hook - comp

    s = _tder_check(at, seed, opts,
                    lambda gt, batch: kh.nijenhuis(gt, batch, gt.J(batch, 1)), rhs)
    for dbar in consequence:
        s.add("dbar_Jdot_along_curve", dbar, 0.0)
    return s


def run_v_dbarvar(fixture, seed, opts) -> Sides:
    at = _geom_cache(make_kahler_family(fixture, seed))
    geom = at(0.0)

    def gstar0(batch):
        gdot = _tder(at, lambda gt: gt.g(batch, 2))
        return (jet_einsum("pik,pkj->pij", geom.ginv(batch, 2), gdot),)

    def rhs(batch, gs):
        n10 = jet_map("paij->piaj", kh.nabla_half(geom, batch, gs, "ul", "10"))
        return tc.generalized_contraction(gs.truncate(n10.order), n10, 1, 2) * (-1.0)

    return _tder_check(at, seed, opts, kh.dbar_endo, rhs, inputs=gstar0)


def run_v_secord(fixture, seed, opts) -> Sides:
    at = _geom_cache(make_kahler_family(fixture, seed))
    geom = at(0.0)
    s = Sides()
    for batch, _, gdot in _tders(at, seed, opts, lambda gt, batch: gt.g(batch, 2)):
        gddot = _tder(at, lambda gt: gt.g(batch, 2), 2)
        gi = geom.ginv(batch, 2)
        gds = jet_einsum("pik,pkj->pij", gi, gdot)
        gdds = jet_einsum("pik,pkj->pij", gi, gddot)
        xi_star = gdds - jet_einsum("pik,pkj->pij", gds, gds)
        n10 = jet_map("paij->piaj", kh.nabla_half(geom, batch, gds, "ul", "10"))
        s.add("variation", kh.dbar_endo(geom, batch, xi_star),
              tc.generalized_contraction(gds.truncate(n10.order), n10, 1, 2))
    return s


def run_v_dbarvf(fixture, seed, opts) -> Sides:
    at = _geom_cache(make_kahler_family(fixture, seed))
    geom = at(0.0)
    xi_field = fl.seeded_vector(geom, seed + 3)

    def rhs(batch, xij):
        gdot = _tder(at, lambda gt: gt.g(batch, 1))
        gds = jet_einsum("pik,pkj->pij", geom.ginv(batch, 1), gdot)
        cd_gds = tc.cd(geom, batch, gds, "ul")
        t1 = jet_einsum("pa,paij->pij", xij.truncate(cd_gds.order), cd_gds)
        p_xi = jet_map("pai->pia", kh.nabla_half(geom, batch, xij, "u", "10"))
        db_xi = kh.dbar_vector(geom, batch, xij)
        k = min(p_xi.order, gds.order)
        t2 = tc.commutator(p_xi.truncate(k), gds.truncate(k))
        t3 = tc.commutator(db_xi.truncate(k), gds.truncate(k))
        return t1 - t2 + t3

    return _tder_check(at, seed, opts, kh.dbar_vector, rhs, factor=2.0,
                        inputs=lambda batch: (xi_field(batch, 2),))


def run_v_trans(fixture, seed, opts) -> Sides:
    at = _geom_cache(make_structure_curve(fixture, seed))
    geom = at(0.0)
    A_field = fl.seeded_sym_endo(geom, seed + 5)

    def rhs(batch, Aj):
        gdot = _tder(at, lambda gt: gt.g(batch, 0))
        gds = jet_einsum("pik,pkj->pij", geom.ginv(batch, 0), gdot)
        At = tc.transpose_endo(geom, batch, Aj)
        return tc.commutator(At.truncate(gds.order), gds)

    return _tder_check(at, seed, opts, tc.transpose_endo, rhs,
                        inputs=lambda batch: (A_field(batch, 1),))


def run_v_kursym(fixture, seed, opts) -> Sides:
    at = _geom_cache(make_kahler_family(fixture, seed))
    s = Sides()
    # the one off-centre loop: the symmetry is checked along the curve
    for batch in fixture.check_nodes(seed, opts.node_count):
        for tt in (0.0, 0.05, 0.1):
            gt = at(tt)
            gdot = _tder(at, lambda gs: gs.g(batch, 2), t0=tt)
            gds = jet_einsum("pik,pkj->pij", gt.ginv(batch, 2), gdot)
            W = tc.adjoint(gt, batch, gds, "ul")
            E = kh.dbar_vector(gt, batch, W)
            s.add("symmetry", E, tc.transpose_endo(gt, batch, E))
    return s


def run_v_kur1(fixture, seed, opts) -> Sides:
    at = _geom_cache(make_kahler_family(fixture, seed))
    geom = at(0.0)
    batch = fixture.check_nodes(seed, opts.node_count)[0]
    gdot = _tder(at, lambda gt: gt.g(batch, 1))
    rho_dot = _tder(at, lambda gt: gt.rho(batch, 2))
    Vstar = jet_einsum("p,p->p", rho_dot, jmath.reciprocal(geom.rho(batch, 2)))
    gds = jet_einsum("pik,pkj->pij", geom.ginv(batch, 1), gdot)
    w = tc.adjoint(geom, batch, gds, "ul") + tc.grad_scalar(geom, batch, Vstar)
    speed = _sup(gds.value)
    if speed < 1e-10:
        return Sides(skip="trivial direction: the curve does not move the metric")
    s = Sides()
    s.add("direction_constraint", w, 0.0)
    s.skip = (f"direction not divergence-compatible: constraint residual {s.sup:.2e}"
              if s.sup > 1e-6 * max(1.0, speed)
              else "constraint met only by a trivial direction at desk scale")
    return s


def run_v_fundcx(fixture, seed, opts) -> Sides:
    return Sides(skip="harmonic structure variations are trivial on the rigid fixture; "
                      "the symmetry statement has no nontrivial instance at desk scale")
