"""Registry of residual-gated checks with stable public identifiers.

Three suites: the pointwise/integral identity suite (ID-*), the variation
catalog (V-*), and the shrinker/obstruction suite (S-*).  Each runner returns
the named sides it compares (``catalog.Sides``), and ``run_check`` measures
them into a CheckResult whose pass flag is exactly residual_sup <= tolerance;
skipped results always carry a reason.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from . import backends as bk
from . import catalog as vcat
from . import fields as fl
from . import jets as jmath
from . import kahler as kh
from . import soliton as so
from . import tensorcalc as tc
from .backends import FIXTURE_KINDS, Field, NodeBatch
from .catalog import RunOptions, Sides, _geom_cache, _tder
from .conventions import manifest_hash
from .errors import KahlercheckError
from .geometry import GeometryState
from .jets import Jet, jet_einsum, jet_linear, jet_map
from .variation import HamiltonianFlowCurve, LinearCurve, compose_field

# Requirements: a check runs on every fixture whose ``Capabilities`` meet
# one of its alternatives, each a dict of capability values.
ANY = ({},)
KAHLER = ({"kahler": True},)
PERIODIC = ({"periodic": True},)
# the rows that read the sphere's closed forms: its chart transition or its
# holomorphic fields as the eigenvalue-2 kernel
SPHERE = ({"sphere": True},)
SHRINKER = ({"shrinker": True},)
# S-GAUGE's orbit on a weighted curved surface
CURVED_KAHLER2 = ({"kahler": True, "flat": False, "dim": 2},)
# S-PHI and S-INT: the statement on the shrinker, their plumbing on a 4-torus
SHRINKER_OR_KAHLER4 = ({"shrinker": True}, {"kahler": True, "dim": 4})


@dataclass
class CheckResult:
    check_id: str
    fixture: str
    seed: int
    residual_sup: float
    residual_l2: float
    tolerance: float
    status: str
    reason: str
    runtime_ms: float
    manifest_hash: str
    details: dict = dc_field(default_factory=dict)

    def to_record(self) -> dict:
        rec = {
            "check_id": self.check_id,
            "fixture": self.fixture,
            "seed": self.seed,
            "residual_sup": _num(self.residual_sup),
            "residual_l2": _num(self.residual_l2),
            "tolerance": self.tolerance,
            "status": self.status,
            "reason": self.reason,
            "manifest_hash": self.manifest_hash,
            "details": {k: _num(v) for k, v in sorted(self.details.items())},
            "runtime_ms": round(self.runtime_ms, 3),
        }
        return rec


def _num(x):
    if x is None:
        return None
    if isinstance(x, (int, float, np.floating)):
        return float(x)
    return x


@dataclass(frozen=True)
class CheckDef:
    id: str
    suite: str
    formula: str
    tag: str
    requires: tuple
    tolerance: float
    runner: object
    flat_tolerance: float | None = None
    notes: str = ""

    @property
    def fixtures(self) -> tuple:
        """The fixture kinds whose capabilities meet ``requires``."""
        return tuple(k for k in FIXTURE_KINDS if bk.CAPABILITIES[k].satisfies(self.requires))

    def tol_for(self, caps: bk.Capabilities) -> float:
        if self.flat_tolerance is not None and caps.flat:
            return self.flat_tolerance
        return self.tolerance


def _pointwise(sides):
    """The runner of a pointwise identity: ``sides(geom, batch, seed)`` on
    every check batch, one (lhs, rhs) pair, added as ``identity``, or a dict
    of named pairs.

    ``sides`` builds its seeded fields in its body; each is seeded by its
    construction, so every batch sees the same field."""

    def run(fixture, seed, opts) -> Sides:
        geom = GeometryState(fixture)
        s = Sides()
        for batch in fixture.check_nodes(seed, opts.node_count):
            pairs = sides(geom, batch, seed)
            for name, (lhs, rhs) in (pairs.items() if isinstance(pairs, dict)
                                     else [("identity", pairs)]):
                s.add(name, lhs, rhs)
        return s

    return run


def _duality(sides):
    """The runner of an integral duality: the pair ``duality`` of the
    integrals of the two sides that ``sides(geom, batch, seed)`` returns per
    quadrature batch."""

    def run(fixture, seed, opts) -> Sides:
        geom = GeometryState(fixture)
        lhs, rhs = zip(*(sides(geom, b, seed) for b in fixture.quad_nodes()))
        s = Sides()
        s.add("duality", fixture.integrate(lhs), fixture.integrate(rhs))
        return s

    return run


# ---------------------------------------------------------------------------
# identity suite runners


def run_fixture_invariants(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    s = Sides()
    s.add("unit_mass", fixture.integrate([np.ones(b.size) for b in fixture.quad_nodes()]), 1.0)
    for batch in fixture.check_nodes(seed, opts.node_count):
        g = geom.g(batch, 0).value
        eig = float(np.min(np.linalg.eigvalsh(g)))
        s.details["min_metric_eig"] = min(s.details.get("min_metric_eig", eig), eig)
        if geom.is_kahler:
            J = geom.J(batch, 1)
            s.add("J_square", np.einsum("pij,pjk->pik", J.value, J.value), -np.eye(fixture.dim))
            s.add("J_compatibility", np.einsum("pai,pab,pbj->pij", J.value, g, J.value), g)
            s.add("integrability", kh.nijenhuis(geom, batch, J), 0.0)
            om = geom.omega(batch, 1)
            dom = jet_map("pijd->pdij", om.gradient()).value
            curl = dom + np.transpose(dom, (0, 3, 1, 2)) + np.transpose(dom, (0, 2, 3, 1))
            s.add("symplectic_closed", curl, 0.0)
            s.add("parallel_J", tc.cd(geom, batch, J, "ul"), 0.0)
    return s


def run_quadrature(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    nodes = fixture.quad_nodes()
    s = Sides()
    s.add("unit_mass", fixture.integrate([np.ones(b.size) for b in nodes]), 1.0)
    u = fl.seeded_scalar(geom, seed, mean_zero=True)
    s.add("projected_mean", fixture.integrate([u(b, 0).value for b in nodes]), 0.0)
    if fixture.caps.flat:
        s.add("odd_mode", fixture.integrate([np.sin(2 * np.pi * b.pts[:, 0]) for b in nodes]),
              0.0)
        dirichlet = fixture.integrate([4 * np.pi**2 * np.cos(2 * np.pi * b.pts[:, 0]) ** 2
                                       for b in nodes])
        s.add("dirichlet_closed_form", dirichlet, 2 * np.pi**2)
    return s


@_pointwise
def run_metric_compat(geom, b, seed):
    return tc.cd(geom, b, geom.g(b, 1), "ll"), 0.0


@_pointwise
def run_div_lap(geom, b, seed):
    uj = fl.seeded_scalar(geom, seed)(b, 3)
    X = tc.grad_scalar(geom, b, uj)
    return tc.div_omega_vector(geom, b, X), tc.adjoint(geom, b, uj.gradient(), "l") * (-1.0)


@_duality
def run_div_integral(geom, b, seed):
    return tc.div_omega_vector(geom, b, fl.seeded_vector(geom, seed)(b, 1)).value, 0.0


def _identity_inputs(geom, seed, batch):
    u = fl.seeded_scalar(geom, seed + 1)(batch, 2)
    xi = fl.seeded_vector(geom, seed + 2)(batch, 2)
    A = fl.seeded_sym_endo(geom, seed + 3)(batch, 2)
    return u, xi, A


@_pointwise
def run_div_ua(geom, b, seed):
    u, xi, A = _identity_inputs(geom, seed, b)
    uA = jet_einsum("p,pij->pij", u, A)
    lhs = tc.adjoint(geom, b, uA, "ul")
    gradu = tc.grad_scalar(geom, b, u)
    rhs = jet_einsum("pij,pj->pi", A.truncate(gradu.order), gradu) * (-1.0) + \
        jet_einsum("p,pi->pi", u.truncate(1), tc.adjoint(geom, b, A, "ul"))
    return lhs, rhs


@_pointwise
def run_div_uxi(geom, b, seed):
    u, xi, A = _identity_inputs(geom, seed, b)
    uxi = jet_einsum("p,pi->pi", u, xi)
    lhs = tc.div_omega_vector(geom, b, uxi)
    rhs = jet_einsum("pi,pi->p", u.gradient().truncate(1), xi.truncate(1)) + \
        jet_einsum("p,p->p", u.truncate(1), tc.div_omega_vector(geom, b, xi))
    return lhs, rhs


@_pointwise
def run_div_a2(geom, b, seed):
    _, _, A = _identity_inputs(geom, seed, b)
    lhs = tc.adjoint(geom, b, tc.endo_mul(A, A), "ul")
    cdA = tc.cd(geom, b, A, "ul")
    W = jet_einsum("paij,pjm->paim", cdA, A.truncate(cdA.order))
    tr = jet_einsum("pam,paim->pi", geom.ginv(b, cdA.order), W)
    rhs = tr * (-1.0) + jet_einsum("pij,pj->pi", A.truncate(1),
                                   tc.adjoint(geom, b, A, "ul"))
    return lhs, rhs


@_pointwise
def run_div_ev(geom, b, seed):
    _, xi, A = _identity_inputs(geom, seed, b)
    Axi = jet_einsum("pij,pj->pi", A, xi)
    lhs = tc.div_omega_vector(geom, b, Axi)
    adjA = tc.adjoint(geom, b, A, "ul")
    cdxi = tc.cd(geom, b, xi, "u")
    gA = tc.flat_endo(geom, b, A.truncate(1))
    pairing = jet_einsum("pai,pai->p",
                         jet_einsum("pja,pji->pai", geom.ginv(b, 1), gA),
                         cdxi.truncate(1))
    rhs = tc.pair_vectors(geom, b, adjA, xi.truncate(1)) * (-1.0) + pairing
    return lhs, rhs


@_pointwise
def run_div_tr(geom, b, seed):
    _, _, A = _identity_inputs(geom, seed, b)
    cdA = tc.cd(geom, b, A, "ul")
    W = jet_einsum("paij,pjm->paim", cdA, A.truncate(cdA.order))
    TrW = jet_einsum("pam,paim->pi", geom.ginv(b, cdA.order), W)
    lhs = tc.div_omega_vector(geom, b, TrW)
    hat = jet_map("pjia->piaj", cdA)
    adjB = tc.adjoint(geom, b, hat, "ull")
    rhs = tc.pair_endos(geom, b, adjB, A.truncate(adjB.order)) * (-1.0) + \
        tc.pair_slots2(geom, b, hat.truncate(1), jet_map("paij->piaj", cdA.truncate(1)))
    return lhs, rhs


@_pointwise
def run_m_identity(geom, b, seed):
    vj = fl.seeded_sym2(geom, seed + 11)(b, 2)
    M = tc.m_form(geom, b, vj, vj)
    vstar = tc.sharp_sym2(geom, b, vj)
    adj_vs = tc.adjoint(geom, b, vstar, "ul")
    adj_vs2 = tc.adjoint(geom, b, tc.endo_mul(vstar, vstar), "ul")
    normsq = tc.pair_2tensors(geom, b, vj, vj)
    rhs = jet_einsum("pi,pij->pj", adj_vs, vj.truncate(adj_vs.order)) * 2.0 \
        - tc.flat_vector(geom, b, adj_vs2) * 2.0 \
        + normsq.gradient().truncate(1) * 0.5
    return M, rhs


def run_frame_independence(fixture, seed, opts) -> Sides:
    # one generator draws the frames of every batch in turn
    geom = GeometryState(fixture)
    u = fl.seeded_sym2(geom, seed + 13)
    v = fl.seeded_sym2(geom, seed + 17)
    rng = np.random.default_rng(seed + 19)
    s = Sides()
    for b in fixture.check_nodes(seed, opts.node_count):
        uj, vj = u(b, 1), v(b, 1)
        frame = tc.cholesky_frame(geom.g(b, 0).value, rng)
        s.add("identity", tc.m_form(geom, b, uj, vj),
              tc.m_form_frame_values(geom, b, uj, vj, frame))
    return s


@_duality
def run_adj_sym2_duality(geom, b, seed):
    uj = fl.seeded_sym2(geom, seed + 23)(b, 1)
    aj = fl.seeded_oneform(geom, seed + 29)(b, 1)
    lhs = tc.pair_oneforms(geom, b, tc.adjoint(geom, b, uj, "ll"), aj.truncate(0))
    cda = tc.cd(geom, b, aj, "l")
    return lhs.value, jet_einsum("pij,pij->p", tc.raise2(geom, b, uj.truncate(0)), cda).value


@_duality
def run_adj_endo_duality(geom, b, seed):
    Aj = fl.seeded_sym_endo(geom, seed + 31)(b, 1)
    Xj = fl.seeded_vector(geom, seed + 37)(b, 1)
    lhs = tc.pair_vectors(geom, b, tc.adjoint(geom, b, Aj, "ul"), Xj.truncate(0))
    cdX = tc.cd(geom, b, Xj, "u")
    return lhs.value, np.einsum("pij,pia,pab,pbj->p", geom.g(b, 0).value, Aj.value,
                                geom.ginv(b, 0).value, cdX.value)


@_duality
def run_lap_symmetry(geom, b, seed):
    uj = fl.seeded_scalar(geom, seed + 41)(b, 2)
    vj = fl.seeded_scalar(geom, seed + 43)(b, 2)
    return ((tc.adjoint(geom, b, uj.gradient(), "l") * vj.truncate(0)).value,
            (tc.adjoint(geom, b, vj.gradient(), "l") * uj.truncate(0)).value)


def run_lap_positivity(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    u = fl.seeded_scalar(geom, seed + 47)
    uu, du2 = [], []
    for b in fixture.quad_nodes():
        uj = u(b, 2)
        uu.append((tc.adjoint(geom, b, uj.gradient(), "l") * uj.truncate(0)).value)
        duj = uj.gradient().truncate(0)
        du2.append(tc.pair_oneforms(geom, b, duj, duj).value)
    dirichlet = fixture.integrate(du2)
    s = Sides()
    s.add("identity", fixture.integrate(uu), dirichlet)
    s.details.update(dirichlet_energy=dirichlet, nonnegative=bool(dirichlet > 0))
    s.require("positive_energy", dirichlet > 0,
              f"the Dirichlet energy {dirichlet:.3e} is not positive")
    return s


@_pointwise
def run_sharp(geom, b, seed):
    vj = fl.seeded_sym2(geom, seed + 53)(b, 0)
    xi = fl.seeded_vector(geom, seed + 59)(b, 0)
    eta = fl.seeded_vector(geom, seed + 61)(b, 0)
    vs = tc.sharp_sym2(geom, b, vj)
    lhs = jet_einsum("pi,pi->p", tc.flat_vector(geom, b, jet_einsum("pij,pj->pi", vs, xi)), eta)
    rhs = jet_einsum("pi,pi->p", jet_einsum("pij,pj->pi", vj, xi), eta)
    return lhs, rhs


def run_contraction_algebra(fixture, seed, opts) -> Sides:
    # one generator draws the tensors of every batch in turn
    rng = np.random.default_rng(seed + 67)
    n = fixture.dim

    def cj(arr):
        j = Jet.const(0.0, n, 1, arr.shape)
        j.coeffs[0] = arr
        return j

    s = Sides()
    for b in fixture.check_nodes(seed, opts.node_count):
        m = b.size
        sym = rng.normal(size=(m, n, n))
        sym = sym + np.swapaxes(sym, 1, 2)
        anti = rng.normal(size=(m, n, n))
        anti = anti - np.swapaxes(anti, 1, 2)
        eye = np.broadcast_to(np.eye(n), (m, n, n)).copy()
        s.add("kills_symmetric", tc.contraction(cj(eye), cj(sym)), 0.0)
        s.add("fixes_antisymmetric", tc.contraction(cj(eye), cj(anti)), anti)
        alpha = cj(rng.normal(size=(m, n, n)))
        b1 = cj(rng.normal(size=(m, n)))
        s.add("first_slot", tc.generalized_contraction(alpha, b1, 1, 1),
              tc.contraction(alpha, b1))
        beta2 = cj(rng.normal(size=(m, n, n, n)))
        g2 = tc.generalized_contraction(alpha, beta2, 1, 2).value
        s.add("antisymmetric_pair", g2, -np.swapaxes(g2, 2, 3))
    return s


def run_chart_transition(fixture, seed, opts) -> Sides:
    rng = np.random.default_rng(seed + 71)
    pts = rng.uniform(0.5, 0.95, size=(40, 2))
    comp = rng.normal(size=(40, 2, 2))
    comp = comp + np.swapaxes(comp, 1, 2)
    new_pts, out = bk.chart_transition(comp, "sym2", pts)
    back_pts, back = bk.chart_transition(out, "sym2", new_pts)
    s = Sides()
    s.add("roundtrip", back, comp)
    s.add("roundtrip_points", back_pts, pts)
    g0 = fixture.g(NodeBatch(0, pts), 0).value
    _, g_push = bk.chart_transition(g0, "sym2", pts)
    s.add("metric_overlap", g_push, fixture.g(NodeBatch(1, new_pts), 0))
    return s


# -- Kahler-only identity runners


@_pointwise
def _bidegree(geom, b, seed):
    Aj = fl.seeded_antilinear(geom, seed + 73)(b, 2)
    n10, n01 = (kh.nabla_half(geom, b, Aj, "ul", half) for half in ("10", "01"))
    cdA = tc.cd(geom, b, Aj, "ul")
    J = geom.J(b, n01.order)
    return {"reconstruction": (n10 + n01, cdA),
            "typed": (jet_einsum("pba,pbij->paij", J, n01),
                      jet_einsum("pik,pakj->paij", J, n01) * (-1.0))}


def run_bidegree(fixture, seed, opts) -> Sides:
    s = _bidegree(fixture, seed, opts)
    if fixture.caps.sphere:
        # the holomorphic generators lie in the kernel of del-bar
        geom = GeometryState(fixture)
        basis = bk.holomorphic_basis(fixture.backend)
        for b in fixture.check_nodes(seed, opts.node_count):
            for xi in basis:
                s.add("holomorphic_kernel", kh.dbar_vector(geom, b, xi(b, 2)), 0.0)
    return s


@_pointwise
def run_dbar_squared(geom, b, seed):
    e = kh.dbar_vector(geom, b, fl.seeded_vector(geom, seed + 79)(b, 3))
    return kh.dbar_endo(geom, b, e), 0.0


@_duality
def run_adj_dbar_duality(geom, b, seed):
    Aj = fl.seeded_antilinear(geom, seed + 83)(b, 1)
    Xj = fl.seeded_vector(geom, seed + 89)(b, 1)
    db = kh.dbar_vector(geom, b, Xj)
    return (tc.pair_endos(geom, b, db, Aj.truncate(db.order)).value,
            tc.pair_vectors(geom, b, Xj.truncate(0), tc.adjoint(geom, b, Aj, "ul")).value)


@_pointwise
def run_dbar_three_route(geom, b, seed):
    Aj = fl.seeded_antilinear(geom, seed + 97)(b, 2)
    r1 = tc.adjoint(geom, b, Aj, "ul")
    free = geom.unweighted()
    r2 = tc.adjoint(free, b, Aj, "ul") + \
        jet_einsum("pij,pj->pi", Aj.truncate(1), geom.gradf(b, 1))
    f = geom.f(b, 2)
    ef = jmath.exp(f)
    emf = jmath.exp(f * (-1.0))
    scaled = jet_einsum("p,pij->pij", emf, Aj)
    r3 = jet_einsum("p,pi->pi", ef.truncate(1), tc.adjoint(free, b, scaled, "ul"))
    return {"unweighted_route": (r1, r2), "conjugated_route": (r1, r3)}


@_pointwise
def run_hw_relation(geom, b, seed):
    return kh.hodge_witten_relation_sides(
        geom, b, fl.seeded_antilinear(geom, seed + 101)(b, 2))


def run_hw_self_adjoint(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    A = fl.seeded_antilinear(geom, seed + 103)
    B = fl.seeded_antilinear(geom, seed + 107)
    ab, ba, aa = [], [], []
    for b in fixture.quad_nodes():
        Aj, Bj = A(b, 2), B(b, 2)
        LA = kh.hodge_witten(geom, b, Aj, 1)
        LB = kh.hodge_witten(geom, b, Bj, 1)
        ab.append(tc.pair_endos(geom, b, LA, Bj.truncate(0)).value)
        ba.append(tc.pair_endos(geom, b, LB, Aj.truncate(0)).value)
        # the energy integrand reuses this batch's Hodge-Witten jets
        aa.append(tc.pair_endos(geom, b, LA, Aj.truncate(0)).value)
    s = Sides()
    s.add("symmetry_gap", fixture.integrate(ab), fixture.integrate(ba))
    energy = fixture.integrate(aa)
    s.details["energy"] = energy
    s.require("nonnegative_energy", energy >= 0, f"the energy {energy:.3e} is negative")
    return s


@_pointwise
def run_b_two_route(geom, b, seed):
    uj = fl.seeded_scalar(geom, seed + 109)(b, 2)
    return kh.b_operator(geom, b, uj), kh.b_operator_divergence_route(geom, b, uj)


@_duality
def run_b_skew(geom, b, seed):
    # skewness: the integral of u B(v) is minus that of v B(u)
    uj = fl.seeded_scalar(geom, seed + 113)(b, 1)
    vj = fl.seeded_scalar(geom, seed + 127)(b, 1)
    return ((kh.b_operator(geom, b, uj) * vj.truncate(0)).value,
            -(kh.b_operator(geom, b, vj) * uj.truncate(0)).value)


@_pointwise
def run_b_chain(geom, b, seed):
    Aj = fl.seeded_antilinear(geom, seed + 131)(b, 2)
    norm2 = tc.pair_endos(geom, b, Aj, Aj)
    lhs = kh.b_operator(geom, b, norm2)
    cdA = tc.cd(geom, b, Aj, "ul")
    J = geom.J(b, cdA.order)
    Jgf = jet_einsum("pij,pj->pi", J, geom.gradf(b, cdA.order))
    hook = jet_einsum("pa,paij->pij", Jgf, cdA)
    return lhs, tc.pair_endos(geom, b, hook, Aj.truncate(hook.order)) * 2.0


@_pointwise
def run_mc_equivalence(geom, b, seed):
    return kh.maurer_cartan_sides(geom, b, fl.seeded_antilinear(geom, seed + 137)(b, 2))


@_pointwise
def run_mc_explicit(geom, b, seed):
    return kh.mc_explicit_sides(geom, b, fl.seeded_antilinear(geom, seed + 139)(b, 2))


def run_lie_bracket(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    s = Sides()
    X = fl.seeded_vector(geom, seed + 149)
    Y = fl.seeded_vector(geom, seed + 151)
    for b in fixture.check_nodes(seed, opts.node_count):
        J = geom.J(b, 2)
        a = (X(b, 2) + jet_einsum("pij,pj->pi", J, X(b, 2)) * (-1j)) * 0.5
        c = (Y(b, 2) + jet_einsum("pij,pj->pi", J, Y(b, 2)) * (-1j)) * 0.5
        br = kh.lie_bracket_forms(geom, b, a, c, 0, 0)
        cda = tc.cd(geom, b, a, "u")
        cdc = tc.cd(geom, b, c, "u")
        k = cda.order
        rhs = jet_einsum("pc,pci->pi", a.truncate(k), cdc) - \
            jet_einsum("pc,pci->pi", c.truncate(k), cda)
        s.add("degree0", br, rhs)
        s.add("degree0", br, kh.lie_bracket_forms(geom, b, c, a, 0, 0) * (-1.0))
    if fixture.dim == 4:
        mu1 = fl.seeded_antilinear(geom, seed + 157)
        mu2 = fl.seeded_antilinear(geom, seed + 163)
        for b in fixture.check_nodes(seed, opts.node_count):
            alpha = kh.cayley_half(geom, b, mu1(b, 3))
            beta = kh.cayley_half(geom, b, mu2(b, 3))
            br = kh.lie_bracket_forms(geom, b, alpha, beta, 1, 1)
            pa = kh.partial_omega_01form(geom, b, alpha)
            pb = kh.partial_omega_01form(geom, b, beta)
            rhs = tc.generalized_contraction(alpha.truncate(pb.order), pb, 1, 2) + \
                tc.generalized_contraction(beta.truncate(pa.order), pa, 1, 2)
            s.add("degree1", br, rhs)
            s.add("degree1", br, kh.lie_bracket_forms(geom, b, beta, alpha, 1, 1))
    return s

# ---------------------------------------------------------------------------
# shrinker / obstruction suite runners


def _pdata(fixture) -> tuple[GeometryState, so.PerelmanData]:
    geom = GeometryState(fixture)
    return geom, so.PerelmanData(geom)


def run_perelman(fixture, seed, opts) -> Sides:
    geom, pdata = _pdata(fixture)
    nodes = fixture.quad_nodes()
    s = Sides()
    s.add("mean_F", fixture.integrate(pdata.F(b, 0).value for b in nodes), 0.0)
    s.add("mean_H_bar", fixture.integrate(pdata.H_bar(b, 0).value for b in nodes), 0.0)
    if fixture.caps.flat:
        for b in fixture.check_nodes(seed, opts.node_count):
            s.add("flat_h_plus_g", pdata.h(b, 0), geom.g(b, 0) * (-1.0))
            s.add("flat_H_plus_one", so.H_scalar(geom, b, 0), -1.0)
    return s


def run_soliton_residuals(fixture, seed, opts) -> Sides:
    geom, pdata = _pdata(fixture)
    s = Sides()
    for b in fixture.check_nodes(seed, opts.node_count):
        s.add("h", pdata.h(b, 0), 0.0)
        s.add("H_bar", pdata.H_bar(b, 0), 0.0)
        s.add("F", pdata.F(b, 0), 0.0)
        cr = so.chern_ricci(geom, b, 0)
        om = geom.omega(b, 0)
        s.add("chern_ricci", cr, om)
        Jrec = np.einsum("pij,pjk->pik", np.linalg.inv(om.value), geom.g(b, 0).value)
        s.add("J_from_form", Jrec, geom.J(b, 0))
    return s


def _characterization(s: Sides, name: str, geom, batches):
    """The pointwise soliton characterization, 2 H_bar against
    -(lap_c - 2) F, on ``batches``."""
    pdata = so.PerelmanData(geom)
    for b in batches:
        s.add(name, *so.soliton_characterization_sides(geom, pdata, b))


def run_characterization(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    s = Sides()
    _characterization(s, "at_base", geom, fixture.check_nodes(seed, opts.node_count))
    # along the gauge orbit the identity persists
    ham = fl.seeded_scalar(geom, seed + 3, mean_zero=True, amp=0.5)
    curve = HamiltonianFlowCurve(fixture, ham)
    _characterization(s, "on_orbit", GeometryState(curve.fixture_at(0.05)),
                      fixture.check_nodes(seed, 60))
    # negative control: scaling the density leaves the compatible family
    def rho_bad(batch, order):
        base = fixture.omega_density(batch, order)
        x = Jet.coordinates(batch.pts, 2, order)[0]
        bump = jmath.sin(x * 3.0) * 0.2 + 1.0
        return jet_einsum("p,p->p", base, bump)

    bad = bk.Fixture(f"{fixture.name}-offfamily", fixture.backend, fixture.g, Field(rho_bad),
                     fixture.J, replace(fixture.caps, shrinker=False), fixture.descriptor)
    control = Sides()
    _characterization(control, "negative_control", GeometryState(bad),
                      fixture.check_nodes(seed, 40))
    s.details["negative_control"] = control.sup
    s.require("control_moved", control.sup >= 1e-3,
              "negative control failed to move the residual")
    return s


def run_lambda_basis(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    basis = so.lambda_basis(geom)
    ev = np.linalg.eigvalsh(basis.gram)
    nodes = fixture.quad_nodes()
    s = Sides()
    for f in basis.functions:
        # each kernel function is an eigenfunction, lap_c u = 2 u, of mean 0
        for b in fixture.check_nodes(0, 80):
            s.add("kernel_residual", kh.complex_laplacian(geom, b, f(b, 2)), f(b, 0) * 2.0)
        s.add("means", fixture.integrate(f(b, 0).value for b in nodes), 0.0)
    rank = int(np.sum(ev > 1e-10 * ev[-1]))
    s.details.update(gram_rank=rank, gram_cond=basis.cond)
    s.require("rank_3", rank == 3, f"the Gram matrix has rank {rank}, not 3")
    return s


def run_p_kernel(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    basis = so.lambda_basis(geom)
    s = Sides()
    for b in fixture.check_nodes(seed, opts.node_count):
        for f in basis.functions:
            w = f(b, 4)
            wr = Jet(w.dim, w.order, np.real(w.coeffs))
            out = kh.p_operator(geom, b, wr)
            s.add("kernel", out, 0.0)
            s.add("imag_residue", np.imag(out.value), 0.0)
    # positivity off the kernel: <w, P w> equals the squared shifted-
    # Laplacian norm, strictly positive away from the kernel
    w_field = fl.seeded_scalar(geom, seed + 5, mean_zero=True)
    quad = []
    for b in fixture.quad_nodes():
        lam = kh.complex_laplacian(geom, b, w_field(b, 2)) - w_field(b, 0) * 2.0
        quad.append(np.abs(lam.value) ** 2)
    energy = fixture.integrate(quad)
    s.details.update(offkernel_energy=energy, positive=bool(energy > 0))
    s.require("positive_offkernel", energy > 0,
              f"the off-kernel energy {energy:.3e} is not positive")
    return s


def run_projector(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    basis = so.lambda_basis(geom)
    proj = so.KernelProjector(geom, basis)
    nodes = fixture.quad_nodes()
    s = Sides()
    s.details["rank"] = proj.rank
    s.require("rank_3", proj.rank == 3, f"the kernel projector has rank {proj.rank}, not 3")
    for k in range(20):
        w_field = fl.seeded_scalar(geom, seed + 7 * k, mean_zero=True)
        w = [w_field(b, 0).value for b in nodes]
        pi1, pi2 = proj.split(w)
        for a, c, d in zip(pi1, pi2, w):
            s.add("completeness", a + c, d)
        _, pi2b = proj.split(pi2)
        for a, c in zip(pi2, pi2b):
            s.add("idempotency", a, c)
        s.add("orthogonality", fixture.integrate(a * c for a, c in zip(pi1, pi2)), 0.0)
    u0 = [np.real(basis.functions[0](b, 0).value) for b in nodes]
    _, pi2u = proj.split(u0)
    for a, c in zip(pi2u, u0):
        s.add("kernel_fixed", a, c)
    return s


def run_g_metric(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    basis = so.lambda_basis(geom)
    s = Sides()
    for f in basis.functions:
        s.add("kernel_degeneracy", so.g_metric(geom, f, f), 0.0)
    phi = fl.seeded_complex_scalar(geom, seed + 11)
    psi = fl.seeded_complex_scalar(geom, seed + 13)
    a = so.g_metric(geom, phi, psi)
    # symmetry and linearity relative to the size of G(phi, psi), once past 1
    rel = max(1.0, abs(a))
    s.add("symmetry", a / rel, so.g_metric(geom, psi, phi) / rel)
    pos = so.g_metric(geom, phi, phi)
    s.details["sample_positivity"] = pos
    s.require("positive", pos > 0, f"G(phi, phi) = {pos:.3e} is not positive")
    comb = Field(lambda bt, k: phi(bt, k) + psi(bt, k) * 2.0)
    s.add("linearity", (so.g_metric(geom, comb, psi) - a) / rel,
          2.0 * so.g_metric(geom, psi, psi) / rel)
    return s


def run_tangent_cone(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    psi = fl.seeded_complex_scalar(geom, seed + 17)
    v_f, Vs_f = so.eta_direction_fields(geom, psi)
    s, control = Sides(), Sides()
    # V* before v on each batch: it reads the weight two orders up, and v
    # and the control's g then read truncations
    for b in fixture.check_nodes(seed + 19, 120):
        Vs = Vs_f(b, 2)
        anti, dbar, closed = so.tangent_cone_sides(geom, b, v_f(b, 2), Vs)
        s.add("anti_invariance_and_dbar", *anti)
        s.add("anti_invariance_and_dbar", *dbar)
        s.add("density_closedness", *closed)
    # negative control: the J-invariant metric in place of v is rejected
    for b in fixture.check_nodes(seed + 23, 120):
        Vs = Vs_f(b, 2)
        anti, dbar, _ = so.tangent_cone_sides(geom, b, geom.g(b, 2), Vs)
        control.add("anti_invariance_and_dbar", *anti)
        control.add("anti_invariance_and_dbar", *dbar)
    s.details["negative_control"] = control.sup
    s.require("control_moved", control.sup >= 1e-2,
              "negative control failed: an invariant tensor was accepted")
    return s


def run_bochner_chain(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    A = fl.seeded_antilinear(geom, seed + 29)
    s = Sides()
    for b in fixture.check_nodes(seed, opts.node_count):
        Aj = A(b, 2)
        r1, r2 = so.bochner_routes(geom, b, Aj)
        s.add("route_equivalence", r1, r2)
        s.add("lichnerowicz_agreement", so.lichnerowicz_endo(geom, b, Aj), r1)
    return s


def run_stability(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    A = fl.seeded_antilinear(geom, seed + 31)
    s, defect = Sides(), Sides()
    for b in fixture.check_nodes(seed, opts.node_count):
        Aj = A(b, 2)
        s.add("identity", *so.stability_identity_sides(geom, b, Aj))
        defect.add("harmonicity_defect", kh.hodge_witten(geom, b, Aj, 1), 0.0)
    s.details.update(harmonicity_defect=defect.sup, defect_coefficient=2.0)
    return s


def run_phi(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    s = Sides()
    if fixture.caps.shrinker:
        basis = so.lambda_basis(geom)
        for k in range(10):
            A = fl.seeded_antilinear(geom, seed + 3 * k)
            blocks = list(so.phi_blocks(geom, A, 2))
            direct = so.phi_functional(geom, A, basis.functions, blocks)
            bridge = so.phi_functional_bridge(geom, A, basis.functions, blocks)
            for v, b in zip(direct, bridge):
                s.add("max_value", v, 0.0)
                s.add("two_route_gap", v, b)
        for b in fixture.check_nodes(seed, 60):
            s.add("pointwise_mechanism", geom.gradf(b, 0), 0.0)
        return s
    # plumbing mode: real-linearity on a curved weighted fixture, relative
    # to the size of phi(u) once past 1
    A = fl.seeded_antilinear(geom, seed + 37)
    u = fl.seeded_complex_scalar(geom, seed + 41)
    w = fl.seeded_complex_scalar(geom, seed + 43)
    comb = Field(lambda bt, k: u(bt, k) * 2.0 + w(bt, k) * (-3.0))
    p_comb, p_u, p_w = so.phi_functional(geom, A, [comb, u, w])
    rel = max(1.0, abs(p_u))
    s.add("linearity", (p_comb - 2.0 * p_u) / rel, -3.0 * p_w / rel)
    return s


def run_integral_identity(fixture, seed, opts) -> Sides:
    geom, pdata = _pdata(fixture)
    A = fl.seeded_antilinear(geom, seed + 47)
    lhs, rhs = so.integral_identity_sides(geom, pdata, A)
    # a sup estimate of the harmonicity defect, the pointwise norm of the
    # Hodge-Witten Laplacian of A, on the sample nodes suffices
    hw_norm = Sides()
    for b in fixture.check_nodes(1, 120):
        hw = kh.hodge_witten(geom, b, A(b, 2), 1)
        hwn = tc.pair_endos(geom, b, hw, hw).value
        hw_norm.add("harmonicity_defect", np.sqrt(np.max(hwn)), 0.0)
    defect = hw_norm.sup
    s = Sides()
    s.details.update(drift_side=abs(rhs), harmonicity_defect=defect)
    if fixture.caps.shrinker:
        s.add("cone_integral", lhs, 0.0)
    else:
        # the hypothesis fails off the shrinker: the gap is reported, not gated
        s.details["cone_integral"] = abs(lhs)
        s.skip = ("the identity needs a harmonic argument; on this fixture "
                  f"the seeded one has harmonicity defect {defect:.2e}")
    s.add("integral_identity", lhs, rhs)
    return s


def run_weighted_bochner(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    basis = so.lambda_basis(geom)
    s = Sides()
    for b in fixture.check_nodes(seed, 40):
        for f in basis.functions:
            s.add("kernel_arguments", *so.weighted_complex_bochner_sides(geom, b, f(b, 4)))
    for k in range(10):
        psi = fl.seeded_complex_scalar(geom, seed + 5 * k)
        for b in fixture.check_nodes(seed + k, 40):
            s.add("seeded_arguments", *so.weighted_complex_bochner_sides(geom, b, psi(b, 4)))
    return s


def run_dh_map(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    basis = so.lambda_basis(geom)
    nodes = fixture.quad_nodes()
    s = Sides()

    def H_mean(gt):
        # PerelmanData.H_mean's quadrature written in jets, so that on a
        # series geometry the mean is a t-series too: the one integral that
        # does not go through Fixture.integrate, which sums values only
        return sum(jet_linear("p,p->", b.weights,
                              jet_einsum("p,p->p", so.H_scalar(gt, b, 0), gt.rho(b, 0)))
                   for b in nodes)

    def one(psi_field, label):
        # d/dt of H less its mean against a quarter of P on Re psi
        v_f, Vs_f = so.eta_direction_fields(geom, psi_field)
        at = _geom_cache(LinearCurve(fixture, v_f, Vs_f))
        mean_dot = _tder(at, H_mean).value
        for batch in fixture.check_nodes(seed, 50):
            der = _tder(at, lambda gt: so.H_scalar(gt, batch, 0))
            psi = psi_field(batch, 4)
            wr = Jet(psi.dim, psi.order, np.real(psi.coeffs))
            P = kh.p_operator(geom, batch, wr)
            s.add(label, der.value - mean_dot, np.real(P.value) * 0.25)

    one(basis.functions[1], "kernel_argument")
    one(fl.seeded_complex_scalar(geom, seed + 53), "seeded_argument")
    return s


def run_gauge(fixture, seed, opts) -> Sides:
    geom = GeometryState(fixture)
    ham = fl.seeded_scalar(geom, seed + 59, mean_zero=True,
                           amp=0.15 if fixture.caps.periodic else 0.5)
    curve = HamiltonianFlowCurve(fixture, ham)
    s = Sides()
    if fixture.caps.shrinker:
        for t in (0.05, -0.05, 0.1):
            pt = so.PerelmanData(GeometryState(curve.fixture_at(t)))
            for b in fixture.check_nodes(seed, 60):
                s.add("H_bar_along_orbit", pt.H_bar(b, 0), 0.0)
        for t in (0.05, 0.1):
            gt = GeometryState(curve.fixture_at(t))
            for b in fixture.check_nodes(seed, 40):
                s.add("symplectic_residual", gt.omega(b, 0), geom.omega(b, 0))
        return s
    # equivariance on a curved weighted torus: transported quantities commute
    pdata = so.PerelmanData(geom)
    H_mean = pdata.H_mean

    def hbar_field(batch, order):
        return so.H_scalar(geom, batch, order) - H_mean

    t = 0.08
    gt = GeometryState(curve.fixture_at(t))
    pt = so.PerelmanData(gt)
    H_field = Field(lambda batch, order: so.H_scalar(geom, batch, order))
    # its two parts, reported: H itself, point by point, and the quadrature
    # of its mean
    pointwise = Sides()
    for b in fixture.check_nodes(seed, 60):
        s.add("H_bar_equivariance", pt.H_bar(b, 0),
              curve.pullback_scalar_values(Field(hbar_field), b, t))
        pointwise.add("H_pointwise_equivariance", so.H_scalar(gt, b, 0),
                      curve.pullback_scalar_values(H_field, b, t))
    s.details["H_pointwise_equivariance"] = pointwise.sup
    s.details["H_mean_drift"] = float(abs(pt.H_mean - H_mean))
    # the defect tensor transports as a 2-tensor
    for b in fixture.check_nodes(seed, 40):
        pos = curve.flow_jets(b, t, 1)
        h0Y = compose_field(Field(lambda bb, kk: so.h_tensor(geom, bb, kk)),
                            b.chart, [p.truncate(0) for p in pos], 0)
        dpsi = curve._jacobian(pos).value
        transported = np.einsum("pia,pij,pjb->pab", dpsi, h0Y.value, dpsi)
        s.add("h_equivariance", transported, so.h_tensor(gt, b, 0))
    return s

# ---------------------------------------------------------------------------
# registry


REGISTRY: dict = {d.id: d for d in [
    CheckDef("ID-FIXTURE", "identity", "fixture invariants: unit mass, SPD, J algebra, "
             "integrability, closedness, parallel J", "fixture-plumbing",
             ANY, 1e-8, run_fixture_invariants, flat_tolerance=1e-12),
    CheckDef("ID-QUAD", "identity", "quadrature exactness and normalization",
             "Glb-Rm-m", ANY, 1e-8, run_quadrature, flat_tolerance=1e-12),
    CheckDef("ID-COMPAT", "identity", "cd(g) = 0", "levi-civita",
             ANY, 1e-8, run_metric_compat, flat_tolerance=1e-13),
    CheckDef("ID-DIVLAP", "identity", "div_w(grad u) = -lap_w(u)", "divlap",
             ANY, 1e-8, run_div_lap, flat_tolerance=1e-12),
    CheckDef("ID-DIVINT", "identity", "integral of div_w(xi) vanishes", "no-boundary",
             ANY, 1e-8, run_div_integral, flat_tolerance=1e-12),
    CheckDef("ID-DIV-UA", "identity", "adj(u A) = -A grad u + u adj(A)", "div-scalar-endo",
             ANY, 1e-8, run_div_ua, flat_tolerance=1e-12),
    CheckDef("ID-DIV-UXI", "identity", "div_w(u xi) = <grad u, xi> + u div_w(xi)",
             "div-scalar-vf", ANY, 1e-8, run_div_uxi, flat_tolerance=1e-12),
    CheckDef("ID-DIV-A2", "identity", "adj(A^2) = -Tr_g(cd A . A) + A adj(A)",
             "div-square", ANY, 1e-8, run_div_a2, flat_tolerance=1e-12),
    CheckDef("ID-DIV-EV", "identity", "div_w(A xi) = -<adj A, xi> + <A, cd xi>",
             "div-Ev", ANY, 1e-8, run_div_ev, flat_tolerance=1e-12),
    CheckDef("ID-DIV-TR", "identity", "div_w Tr_g(cd A . A) = -<adj(hat cd A), A> + "
             "<hat cd A, cd A>", "div-Tr", ANY, 1e-8, run_div_tr, flat_tolerance=1e-12),
    CheckDef("ID-MG", "identity", "M(v,v) = 2 v adj(v*) - 2 g adj(v*^2) + d|v|^2 / 2",
             "m-form", ANY, 1e-8, run_m_identity, flat_tolerance=1e-12),
    CheckDef("ID-FRAME", "identity", "frame independence of the frame-summed 1-form",
             "frame-sums", ANY, 1e-8, run_frame_independence, flat_tolerance=1e-12),
    CheckDef("ID-ADJ-SYM2", "identity", "duality of adj on symmetric 2-tensors",
             "weighted-adjoint", ANY, 1e-9, run_adj_sym2_duality, flat_tolerance=1e-12),
    CheckDef("ID-ADJ-ENDO", "identity", "duality of adj on endomorphisms",
             "weighted-adjoint", ANY, 1e-9, run_adj_endo_duality, flat_tolerance=1e-12),
    CheckDef("ID-LAP-SYM", "identity", "symmetry of lap_w", "weighted-laplacian",
             ANY, 1e-9, run_lap_symmetry, flat_tolerance=1e-12),
    CheckDef("ID-LAP-POS", "identity", "Dirichlet identity and positivity of lap_w",
             "weighted-laplacian", ANY, 1e-9, run_lap_positivity, flat_tolerance=1e-12),
    CheckDef("ID-SHARP", "identity", "g(v* x, y) = v(x, y)", "sharp",
             ANY, 1e-11, run_sharp, flat_tolerance=1e-12),
    CheckDef("ID-CONTR", "identity", "contraction algebra: fixed points and linearity",
             "alt-contraction", ANY, 1e-12, run_contraction_algebra),
    CheckDef("ID-CHART", "identity", "chart transition round trip and overlap agreement",
             "stereographic", SPHERE, 1e-10, run_chart_transition),
    # complex-structure layer
    CheckDef("ID-BIDEG", "identity", "bidegree split reconstructs cd and is typed",
             "bidegree", KAHLER, 1e-9, run_bidegree, flat_tolerance=1e-12),
    CheckDef("ID-DBARSQ", "identity", "del-bar squared vanishes on vector fields",
             "dbar-complex", KAHLER, 1e-9, run_dbar_squared, flat_tolerance=1e-12),
    CheckDef("ID-ADJ-DBAR", "identity", "duality of del-bar against the weighted adjoint",
             "dbar-adjoint", KAHLER, 1e-9, run_adj_dbar_duality, flat_tolerance=1e-12),
    CheckDef("ID-DBAR3", "identity", "three routes to the del-bar adjoint agree",
             "dbar-three-route", KAHLER, 1e-10, run_dbar_three_route,
             flat_tolerance=1e-12),
    CheckDef("ID-HW-REL", "identity", "weighted vs unweighted Hodge-Witten relation",
             "Om-AntHol-Hdg-Lap", KAHLER, 1e-9, run_hw_relation, flat_tolerance=1e-12),
    CheckDef("ID-HW-SELFADJ", "identity", "self-adjointness and energy positivity",
             "L2omOm-prod", KAHLER, 1e-9, run_hw_self_adjoint, flat_tolerance=1e-12),
    CheckDef("ID-B2ROUTE", "identity", "drift operator two routes", "B-drift",
             KAHLER, 1e-10, run_b_two_route, flat_tolerance=1e-12),
    CheckDef("ID-BSKEW", "identity", "drift operator is skew", "B-drift",
             KAHLER, 1e-9, run_b_skew, flat_tolerance=1e-12),
    CheckDef("ID-BCHAIN", "identity", "drift of |A|^2 is twice the hooked pairing",
             "B-drift", KAHLER, 1e-9, run_b_chain, flat_tolerance=1e-12),
    CheckDef("ID-MC-EQUIV", "identity", "real and complex deformation residues agree",
             "super-realMCARTAN", KAHLER, 1e-9, run_mc_equivalence, flat_tolerance=1e-12),
    CheckDef("ID-MC-EXPL", "identity", "explicit form of the real deformation residue",
             "super-realMCARTAN", KAHLER, 1e-9, run_mc_explicit, flat_tolerance=1e-12),
    CheckDef("ID-LIE-EXT", "identity", "exterior bracket through the frame calculus",
             "exterior-lie", KAHLER, 1e-9, run_lie_bracket, flat_tolerance=1e-11),
    CheckDef("V-F", "variation", "df/dt = (1/2) tr_g(dg/dt) - dOmega*/dt", "var-f",
             PERIODIC, 1e-6, vcat.run_v_f),
    CheckDef("V-GRAD", "variation", "d/dt grad f = grad(df/dt) - (dg/dt)* grad f",
             "var-grad", PERIODIC, 1e-6, vcat.run_v_grad),
    CheckDef("V-ADJ", "variation", "2 D(adj)(v,V) u = M(v,u) - 2 u(adj(v*) + grad V*)",
             "var-adjDer", PERIODIC, 1e-6, vcat.run_v_adj),
    CheckDef("V-TRCOV", "variation",
             "2 g^-1 hook D(cd)(v) u = 2 u(adj0 v*) + cd v(u* ., e, e) - cd v(., u* e, e)",
             "Tr-varCov", PERIODIC, 1e-6, vcat.run_v_trcov),
    CheckDef("V-DIV1", "variation", "D(div_w)(v,V) a = -<cd a*, v*> + a(adj(v*) + grad V*)",
             "var-div-oneform", PERIODIC, 1e-6, vcat.run_v_div1,
             notes="coefficient 1 on the drift term, fixed numerically"),
    CheckDef("V-DIV2", "variation", "D(div_w adj)(v,V) v = the five-term assembly",
             "var-div2", PERIODIC, 1e-6, vcat.run_v_div2),
    CheckDef("V-SUPER", "variation",
             "2 D(adj)(v,V) v* = (1/2) grad |v|^2 - 2 v*(adj(v*) + grad V*)",
             "super-var-Div", PERIODIC, 1e-6, vcat.run_v_super),
    CheckDef("V-DH", "variation", "2 dH/dt = (lap_w - 2)V* - div_w(adj v + dV*) - <v, h>",
             "first-var-H", PERIODIC, 1e-6, vcat.run_v_dh),
    CheckDef("V-HESS", "variation", "second variation of H with covariant speed correction",
             "sec-var-H", PERIODIC, 1e-5, vcat.run_v_hess),
    CheckDef("V-HESS-F", "variation",
             "constrained second variation on divergence-compatible directions",
             "corol-sec-varH", PERIODIC, 1e-5, vcat.run_v_hess_f),
    CheckDef("V-GDOT", "variation", "dg*/dt = -J dJ/dt; (d2g*/dt2)^(1,0) = (dg*/dt)^2",
             "gdot-JJdot", KAHLER, 1e-6, vcat.run_v_gdot),
    CheckDef("V-NJ", "variation", "dN/dt = Jdot hook N - Jdot N + del-bar Jdot",
             "var-nijenhuis", KAHLER, 1e-6, vcat.run_v_nj),
    CheckDef("V-DBARVAR", "variation", "(d/dt del-bar) g* = -g* hook nabla10 g*",
             "var-dbar-endo", KAHLER, 1e-6, vcat.run_v_dbarvar),
    CheckDef("V-SECORD", "variation", "del-bar(d/dt g*) = g* hook nabla10 g*",
             "sec-ord-Defm", KAHLER, 1e-5, vcat.run_v_secord),
    CheckDef("V-DBARVF", "variation",
             "2 d/dt(del-bar xi) = xi hook cd g* - [del xi, g*] + [del-bar xi, g*]",
             "var-dbar-vf", KAHLER, 1e-6, vcat.run_v_dbarvf),
    CheckDef("V-TRANS", "variation", "d/dt A^T = [A^T, dg*/dt]",
             "var-transpose", KAHLER, 1e-6, vcat.run_v_trans),
    CheckDef("V-KURSYM", "variation",
             "del-bar adj(dg*/dt) is g-symmetric along compatible families",
             "basic-kuranishSym", SHRINKER, 1e-7, vcat.run_v_kursym),
    CheckDef("V-KUR1", "variation",
             "symmetry of del-bar adj(d/dt dg*/dt) under the divergence constraint",
             "first-kur-sm", SHRINKER, 1e-6, vcat.run_v_kur1,
             notes="conditional: requires a divergence-compatible initial speed"),
    CheckDef("V-FUNDCX", "variation",
             "symmetry of adj(Jdot hook nabla10 Jdot) for harmonic Jdot",
             "fund-cx-def-sm", SHRINKER, 1e-6, vcat.run_v_fundcx,
             notes="conditional: needs a nontrivial harmonic variation"),
    CheckDef("S-PERELMAN", "soliton", "normalizations of the weight and potential",
             "fundamental-objects", ANY, 1e-10, run_perelman, flat_tolerance=1e-12),
    CheckDef("S-SOLITON", "soliton", "shrinker residuals and the form identities",
             "soliton-point", SHRINKER, 1e-9, run_soliton_residuals),
    CheckDef("S-CHAR", "soliton", "2 Hbar = -(lap_c - 2) F on the compatible family",
             "soliton-characterization", SHRINKER, 1e-9, run_characterization),
    CheckDef("S-LAMBDA", "soliton", "holomorphic fields span the eigenvalue-2 kernel",
             "kernel-basis", SPHERE, 1e-8, run_lambda_basis),
    CheckDef("S-PKER", "soliton", "the fourth-order square annihilates the real kernel",
             "P-kernel", SPHERE, 1e-7, run_p_kernel),
    CheckDef("S-PI2", "soliton", "kernel projection: completeness, idempotency, "
             "orthogonality", "dec-P-op", SPHERE, 1e-9, run_projector),
    CheckDef("S-GMET", "soliton", "induced bilinear form: kernel degeneracy, symmetry, "
             "positivity", "G-metric", SPHERE, 1e-8, run_g_metric),
    CheckDef("S-TCONE", "soliton", "membership residuals of potential-built directions",
             "TConeS", SHRINKER, 1e-8, run_tangent_cone),
    CheckDef("S-BOCHNER", "soliton", "curvature chain routes and the Lichnerowicz form",
             "dec-Lich2", KAHLER, 1e-8, run_bochner_chain, flat_tolerance=1e-10),
    CheckDef("S-STAB", "soliton", "defect-corrected stability identity",
             "stab-harm", KAHLER, 1e-8, run_stability, flat_tolerance=1e-10),
    CheckDef("S-GAUGE", "soliton", "gauge invariance along symplectomorphism orbits",
             "gauge-orbit", CURVED_KAHLER2, 1e-7, run_gauge),
    CheckDef("S-PHI", "obstruction", "the obstruction functional vanishes with the "
             "two-route bridge", "obstruction-functional", SHRINKER_OR_KAHLER4, 1e-8,
             run_phi),
    CheckDef("S-INT", "obstruction", "the cone integral against the drift terms",
             "integral-identity", SHRINKER_OR_KAHLER4, 1e-9, run_integral_identity),
    CheckDef("S-WBOCH", "obstruction", "weighted complex Bochner step at the shrinker",
             "div-sec-var-met", SPHERE, 1e-7, run_weighted_bochner),
    CheckDef("S-DH", "obstruction", "derivative of normalized H along potential "
             "directions equals a quarter of the fourth-order square", "DH-quarter-P",
             SPHERE, 1e-5, run_dh_map),
]}


SUITES = ("identity", "variation", "soliton", "obstruction")


def checks_for(suites=None, fixtures=None, ids=None):
    """The (check id, fixture) pairs to run: the ids in their given order, or
    else every check of the suites in id order, each on its fixtures that
    are selected.  None selects everything; an empty list selects nothing."""
    if ids is None:
        suites = SUITES if suites is None else suites
        ids = [cid for cid in sorted(REGISTRY) if REGISTRY[cid].suite in suites]
    return [(cid, fx) for cid in ids for fx in REGISTRY[cid].fixtures
            if fixtures is None or fx in fixtures]


def run_check(check_id: str, fixture, seed: int,
              opts: RunOptions | None = None) -> CheckResult:
    """The record of one check on ``fixture``, a kind name or a descriptor
    (see ``backends.make_fixture``), labelled with the fixture's name."""
    opts = opts or RunOptions()
    d = REGISTRY[check_id]
    fixture = bk.make_fixture(fixture)
    tol = d.tol_for(fixture.caps)
    t0 = time.perf_counter()
    try:
        out = d.runner(fixture, seed, opts)
    except Exception as exc:
        # one faulty check becomes a failed record instead of ending the run
        details = {}
        if isinstance(exc, KahlercheckError):
            reason = f"{exc.slug}: {exc}"
        else:
            reason = f"internal-error: {type(exc).__name__}: {exc}"
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            details["raised_at"] = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
        ms = (time.perf_counter() - t0) * 1e3
        return CheckResult(check_id, fixture.name, seed, float("nan"), float("nan"),
                           tol, "fail", reason, ms, manifest_hash(), details)
    ms = (time.perf_counter() - t0) * 1e3
    sup, l2, details = out.measure()
    if out.skip:
        status, reason = "skipped-with-reason", out.skip
    elif sup <= tol:
        status, reason = "pass", ""
    else:
        status = "fail"
        reason = out.reason or (f"residual_sup {sup:.3e} of {details['worst']} "
                                f"exceeds tolerance {tol:.3e}")
    return CheckResult(check_id, fixture.name, seed, sup, l2, tol,
                       status, reason, ms, manifest_hash(), details)
