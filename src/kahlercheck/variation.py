"""One-parameter families of geometries, as fixtures at a given t and as
t-series around a centre t0.

Spatial data stays jet-exact along every curve: linear curves evaluate their
direction fields as jets, pullback curves integrate the flow in jet
arithmetic (so the transported frame is the first-order block of the flow
jets), and structure-conjugation curves exponentiate pointwise in jets.
``series_at(t0, q)`` builds the same fixture with every field a jet series
of degree q in t - t0 (see :mod:`jets`), so t-derivatives are exact too:
g + t v is its own series, exp(tS) has a closed one, and a flow's series is
the Picard iteration of its generating field (the Taylor method for an ODE).

A flow to a finite t is integrated by Butcher's sixth-order Runge-Kutta
method, in steps of at most ``HamiltonianFlowCurve.step`` and shorter where
the field's gradient is steep, continuing a cached flow on the same step;
the series around t start from that flow.  Curve terms, flows and flow
series are cached by ``geometry.by_order``: a lower order is served by
truncating a build at a higher one.
``fd_derivative`` (Richardson-extrapolated central differences) remains as
an independent reference for these series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import jets as jmath
from .backends import Field, Fixture, NodeBatch
from .errors import FlowDivergedError, NanInFieldError
from .geometry import by_order, inverse_and_logdet, symplectic_form
from .jets import Jet, jet_einsum

# ---------------------------------------------------------------------------
# composition of a field with jet-valued positions


@lru_cache(maxsize=None)
def _monomial_parents(dim: int, order: int) -> tuple:
    """For every multi-index of the jet table but the first: the index of the
    monomial it extends by one factor, the axis of that factor (the first
    non-zero entry) and the degree of the parent.  Each parent comes earlier
    in table order."""
    tb = jmath.table(dim, order)
    parents = [(0, 0, 0)]
    for beta in tb.alphas[1:].tolist():
        a = next(i for i, x in enumerate(beta) if x > 0)
        beta[a] -= 1
        parents.append((tb.index[tuple(beta)], a, sum(beta)))
    return tuple(parents)


def compose_field(field: Field, chart: int, pos: list[Jet], order: int) -> Jet:
    """Taylor-exact evaluation of ``field`` along jet-valued positions.

    The field is expanded at the position values and recomposed with the
    zero-constant part of the position jets, which terminates exactly at the
    jet order plus the t-degree of the positions.
    """
    yvals = np.stack([np.real(p.value) for p in pos], axis=-1)
    F = field(NodeBatch(chart, yvals), order + pos[0].q)
    return _recompose(F, pos, order)


def _recompose(F: Jet, pos: list[Jet], order: int) -> Jet:
    """sum_alpha F_alpha (pos - pos.value)^alpha at spatial order ``order``:
    the Taylor coefficients ``F`` of a field at the position values, of at
    least that order plus the t-degree of the positions, composed with them."""
    dim = pos[0].dim
    parents = _monomial_parents(dim, order + pos[0].q)
    w = []
    for p in pos:
        # + 0.0 makes the zeros those of a product's sums, which start at
        # 0.0, so an increment is also its own monomial of degree one
        c = p.truncate(order).coeffs + 0.0
        c[0] = 0.0
        w.append(Jet(dim, order, c))
    nonzero = [bool(np.any(F.coeffs[idx])) for idx in range(len(parents))]
    # a monomial is built if its coefficient is non-zero or a needed
    # monomial extends it; built in table order, parents come first
    needed = list(nonzero)
    for idx in range(len(parents) - 1, 0, -1):
        if needed[idx]:
            needed[parents[idx][0]] = True
    shape_extra = (1,) * (F.coeffs.ndim - 2)
    out = None
    monos: list = [None] * len(parents)
    for idx, (prev, a, degree) in enumerate(parents):
        if not needed[idx]:
            continue
        if idx == 0:
            monos[0] = Jet.const(1.0, dim, order, pos[0].batch_shape)
        elif prev == 0:
            monos[idx] = w[a]
        else:
            # a monomial of degree |beta| in increments vanishes below |beta|
            monos[idx] = jmath._mul(monos[prev], w[a], (degree, 1))
        if not nonzero[idx]:
            continue
        mono = monos[idx]
        term = Jet(
            mono.dim,
            mono.order,
            mono.coeffs.reshape(mono.coeffs.shape + shape_extra) * F.coeffs[idx][None, ...],
        )
        out = term if out is None else out + term
    if out is None:
        out = Jet.const(0.0, dim, order, F.coeffs.shape[1:])
    return out


# ---------------------------------------------------------------------------
# finite differences with Richardson extrapolation, the tests' reference for
# the t-series


@dataclass
class FDInfo:
    observed_order: float | None
    nominal_order: int
    base_step: float
    shrunk: bool


_SCHEMES = {
    ("central-2", 1): (2, {1.0: 0.5, -1.0: -0.5}, 1),
    ("central-4", 1): (4, {2.0: -1 / 12, 1.0: 8 / 12, -1.0: -8 / 12, -2.0: 1 / 12}, 1),
    ("central-2", 2): (2, {1.0: 1.0, 0.0: -2.0, -1.0: 1.0}, 2),
}


def fd_derivative(map_fn, t0: float = 0.0, order: int = 1, scheme: str = "central-4",
                  base_step: float = 1e-2, richardson_levels: int = 2,
                  t_max: float | None = None):
    """Richardson-extrapolated central difference of a jet-valued map.

    Returns ``(derivative, FDInfo)``.  The map is evaluated on a shared
    t-cache; the observed order is estimated from three step halvings.
    """
    nominal, stencil, power = _SCHEMES[(scheme, order)]
    h = base_step
    shrunk = False
    span = max(abs(o) for o in stencil)
    if t_max is not None and span * h + abs(t0) > t_max:
        h = (t_max - abs(t0)) / (span * 1.25)
        shrunk = True
    cache: dict = {}
    nlevels = max(richardson_levels + 1, 3)

    def ev(t):
        if t not in cache:
            val = map_fn(t)
            arr = val.coeffs if isinstance(val, Jet) else np.asarray(val, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise NanInFieldError(f"map evaluation not finite at t={t}")
            cache[t] = val
        return cache[t]

    def coeffs_of(v):
        return v.coeffs if isinstance(v, Jet) else np.asarray(v, dtype=float)

    def stencil_eval(step):
        acc = None
        for off, wgt in stencil.items():
            c = coeffs_of(ev(t0 + off * step)) * (wgt / step**power)
            acc = c if acc is None else acc + c
        return acc

    proto = ev(t0 + h)
    levels = [stencil_eval(h / 2**k) for k in range(nlevels)]
    d0 = np.max(np.abs(levels[0] - levels[1]))
    d1 = np.max(np.abs(levels[1] - levels[2]))
    scale = np.max(np.abs(levels[-1])) + 1e-300
    floor = max(1e-10 * scale, 1e-11)
    if d1 < floor or d0 < floor:
        observed = None  # converged to roundoff; order estimate meaningless
    else:
        observed = float(np.log2(d0 / d1))
    ext = levels
    p = nominal
    for _ in range(richardson_levels):
        ext = [
            (2**p * ext[k + 1] - ext[k]) / (2**p - 1) for k in range(len(ext) - 1)
        ]
        p += 2
    best = ext[-1]
    info = FDInfo(observed_order=observed, nominal_order=nominal,
                  base_step=h, shrunk=shrunk)
    if isinstance(proto, Jet):
        return Jet(proto.dim, proto.order, best), info
    return best, info


# ---------------------------------------------------------------------------
# deformation curves


def _term(terms: dict, name: str, field, batch: NodeBatch, order: int) -> Jet:
    """The jet of a t-independent term of a curve, kept in the curve's
    ``terms`` under (name, batch token) by ``by_order``, so every t, every
    series and every lower order shares one evaluation (read-only, as every
    ``by_order`` store)."""
    return by_order(terms, (name, batch.token), order, lambda: field(batch, order))


class LinearCurve:
    """g_t = g + t v and density rate rho_t = rho (1 + t V*)."""

    def __init__(self, fixture: Fixture, v_field: Field, Vstar_field: Field | None):
        self.base = fixture
        self.v = v_field
        self.Vstar = Vstar_field
        # base g, base rho, v and V*, the same at every t
        self._terms: dict = {}
        self.t_max = self._spd_window()

    def _spd_window(self) -> float:
        batch = self.base.check_nodes(987, 80)[0]
        g = _term(self._terms, "g", self.base.g, batch, 0).value
        v = _term(self._terms, "v", self.v, batch, 0).value
        lam = np.linalg.eigvals(np.linalg.solve(g, v))
        lim_g = 0.45 / max(np.max(np.abs(lam)), 1e-9)
        lim_r = np.inf
        if self.Vstar is not None:
            vs = np.max(np.abs(_term(self._terms, "Vstar", self.Vstar, batch, 0).value))
            lim_r = 0.45 / max(vs, 1e-9)
        return float(min(lim_g, lim_r, 0.5))

    def fixture_at(self, t: float) -> Fixture:
        return self.series_at(t, 0)

    def series_at(self, t0: float, q: int) -> Fixture:
        """The curve at t0 + s, every field a series of degree q in s: the
        line c0 + t c1 is c0 + t0 c1 + s c1."""
        base = self.base

        def line(c0, c1):
            return jmath.series(([c0 + c1 * t0, c1] + [c1 * 0.0] * (q - 1))[:q + 1])

        def g_fn(batch, order):
            return line(_term(self._terms, "g", base.g, batch, order),
                        _term(self._terms, "v", self.v, batch, order))

        def rho_fn(batch, order):
            rho = _term(self._terms, "rho", base.omega_density, batch, order)
            if self.Vstar is None:
                return rho
            Vs = _term(self._terms, "Vstar", self.Vstar, batch, order)
            return line(rho, jet_einsum("p,p->p", rho, Vs))

        return Fixture(f"{base.name}+t*dir", base.backend, Field(g_fn),
                       Field(rho_fn), None, base.caps, base.descriptor)


# Butcher's rational 7-stage explicit Runge-Kutta method of order 6 (J. C.
# Butcher, "On Runge-Kutta processes of high order", J. Austral. Math. Soc. 4,
# 1964), nodes c = (0, 1/3, 2/3, 1/3, 1/2, 1/2, 1).  Stage i is evaluated at
# pos + h sum_j a_ij k_j, the step is pos + h sum_j b_j k_j; only the non-zero
# (j, a_ij) and (j, b_j) are listed, each sum taken in this order.
_RK6_A = (
    (),
    ((0, 1 / 3),),
    ((1, 2 / 3),),
    ((0, 1 / 12), (1, 1 / 3), (2, -1 / 12)),
    ((0, -1 / 16), (1, 9 / 8), (2, -3 / 16), (3, -3 / 8)),
    ((1, 9 / 8), (2, -3 / 8), (3, -3 / 4), (4, 1 / 2)),
    ((0, 9 / 44), (1, -9 / 11), (2, 63 / 44), (3, 18 / 11), (5, -16 / 11)),
)
_RK6_B = ((0, 11 / 120), (2, 27 / 40), (3, 27 / 40), (4, -4 / 15), (5, -4 / 15),
          (6, 11 / 120))


class HamiltonianFlowCurve:
    """Pullback along the flow of -(1/2) omega^{-1} du, integrated in jets:
    to a finite t by Butcher's sixth-order Runge-Kutta method in steps sized
    by the field (``flow_jets``), around a centre t0 as a t-series by Picard
    iteration (``flow_series``)."""

    t_max = 0.2
    step = 0.05         # the longest Runge-Kutta step
    kappa = 0.4         # the largest h |grad xi| of a step; see _steps
    max_steps = 10_000  # a flow that needs more has left the fixture's scale

    def __init__(self, fixture: Fixture, u_field: Field):
        self.base = fixture
        self.u = u_field
        self._flows: dict = {}
        self._lipschitz: dict = {}
        self._series: dict = {}

        def xi_fn(batch, order):
            # every Runge-Kutta stage evaluates xi on a fresh batch: caching
            # the fixture data under its token would only grow the cache
            du = u_field(batch, order + 1).gradient()
            om = symplectic_form(fixture.J(batch, order), fixture.g(batch, order))
            om_inv, _ = inverse_and_logdet(om)
            return jet_einsum("pij,pj->pi", om_inv, du) * (-0.5)

        self.xi = Field(xi_fn)

    def flow_jets(self, batch: NodeBatch, t: float, order: int) -> list[Jet]:
        """The flow to t of the batch's points, as position jets of ``order``.

        Computed at t rounded to 12 digits, in n = ``_steps(batch, t)``
        sixth-order Runge-Kutta steps of h = t / n, and cached under (batch
        token, h) and n, so each flow is a function of its key alone."""
        t = round(t, 12)
        n = self._steps(batch, t)
        h = t / n
        runs = self._flows.setdefault((batch.token, h), {})
        return by_order(runs, n, order, lambda: self._integrate(batch, runs, n, h, order))

    def _steps(self, batch: NodeBatch, t: float) -> int:
        """max(ceil(|t| / step), ceil(|t| L / kappa)), at least 1, where L is
        the largest Frobenius norm of grad xi over the batch's points: a
        smooth flow takes steps of ``step``, a steep one steps of h with
        h L <= kappa.  t = 0 is the identity, one step of 0.  A field too
        steep for ``max_steps`` raises ``FlowDivergedError``."""
        if t == 0.0:
            return 1
        n = max(int(math.ceil(abs(t) / self.step)),
                int(math.ceil(abs(t) * self._lipschitz_bound(batch) / self.kappa)))
        if n > self.max_steps:
            raise FlowDivergedError(f"the flow to t={t} would take {n} steps")
        return n

    def _lipschitz_bound(self, batch: NodeBatch) -> float:
        """max over the batch's points of |grad xi|_F, from one order-1
        evaluation of xi, kept under the batch token."""
        if batch.token not in self._lipschitz:
            grad = self.xi(batch, 1).gradient().value         # (m, i, a)
            bound = float(np.max(np.sqrt(np.sum(grad * grad, axis=(-2, -1)))))
            if not math.isfinite(bound):
                raise FlowDivergedError("the flow's field has a non-finite gradient")
            self._lipschitz[batch.token] = bound
        return self._lipschitz[batch.token]

    def _integrate(self, batch: NodeBatch, runs: dict, n: int, h: float,
                   order: int) -> list[Jet]:
        """The flow of n steps of h; h = 0 is the identity, the coordinate
        jets.  The flow continues the one in ``runs`` (the flows on step h, by
        steps taken) of the most steps below n and an order at least
        ``order``: its truncation equals the flow integrated at ``order``, so
        continuing it reproduces the integration from the identity bit for
        bit."""
        pos = Jet.coordinates(batch.pts, self.base.backend.dim, order)
        if h == 0.0:
            return pos
        done = max((m for m, built in runs.items()
                    if m < n and any(k >= order for k in built)), default=0)
        if done:
            pos = [p.truncate(order) for p in runs[done][max(runs[done])]]
        for _ in range(done, n):
            pos = self._rk6_step(batch.chart, pos, h, order)
        if not all(np.all(np.isfinite(p.coeffs)) for p in pos):
            raise FlowDivergedError("flow integration produced non-finite jets")
        return pos

    def _rk6_step(self, chart, pos, h, order):
        """One step of ``_RK6_A`` and ``_RK6_B``; positions and stages are
        stacked as (coordinate, coefficient, point)."""
        dim = pos[0].dim
        P = np.stack([p.coeffs for p in pos])

        def combine(weights):
            inc = None
            for j, w in weights:
                term = ks[j] * w
                inc = term if inc is None else inc + term
            return P + inc * h

        ks = []
        for row in _RK6_A:
            stage = combine(row) if row else P
            xi = compose_field(self.xi, chart, [Jet(dim, order, c) for c in stage], order)
            ks.append(np.moveaxis(xi.coeffs, -1, 0))
        return [Jet(dim, order, c) for c in combine(_RK6_B)]

    def flow_series(self, batch: NodeBatch, t0: float, order: int, q: int) -> list[Jet]:
        """The flow to t0 + s of the batch's points, as position jets of
        ``order`` that are series of degree ``q`` in s.

        Picard iteration around the flow to t0 (t0 = 0 is the identity, any
        other t0 the Runge-Kutta flow of ``flow_jets``): psi_t0 plus the
        integral of xi(psi) is exact to s^(n+1) when psi is exact to s^n.  xi
        is expanded once, at the points psi_t0, and recomposed with each
        iterate.  Cached under
        (batch token, t0 rounded to 12 digits, q) by ``by_order``."""
        t0 = round(t0, 12)

        def build():
            base = pos = self.flow_jets(batch, t0, order)
            if q:
                pts = np.stack([p.value for p in base], axis=-1)
                F = self.xi(NodeBatch(batch.chart, pts), order + q - 1)
                for _ in range(q):
                    xi = _recompose(F, pos, order)
                    pos = [p + jmath.tintegral(Jet(xi.dim, xi.order, xi.coeffs[..., i]))
                           for i, p in enumerate(base)]
            return pos

        return by_order(self._series, (batch.token, t0, q), order, build)

    def _jacobian(self, pos: list[Jet]) -> Jet:
        rows = [p.gradient() for p in pos]      # each (m, a): d_a Psi^i
        return jmath.jet_stack(rows, axis=2)    # (m, i, a)

    def fixture_at(self, t: float) -> Fixture:
        return self.series_at(t, 0)

    def series_at(self, t0: float, q: int) -> Fixture:
        """The pullback along the flow to t0 + s, every field a series of
        degree q in s."""
        base = self.base
        curve = self

        def pullback(field, batch, order):
            pos = curve.flow_series(batch, t0, order + 1, q)
            Y = compose_field(field, batch.chart, [p.truncate(order) for p in pos], order)
            return curve._jacobian(pos), Y

        def g_fn(batch, order):
            dpsi, gY = pullback(base.g, batch, order)
            return jet_einsum("pia,pij->paj",
                              dpsi, jet_einsum("pij,pjb->pib", gY, dpsi))

        def rho_fn(batch, order):
            dpsi, rhoY = pullback(base.omega_density, batch, order)
            _, logdet = inverse_and_logdet(dpsi)
            return jet_einsum("p,p->p", rhoY, jmath.exp(logdet))

        def J_fn(batch, order):
            dpsi, JY = pullback(base.J, batch, order)
            dpsi_inv, _ = inverse_and_logdet(dpsi)
            return jet_einsum("pia,paj->pij",
                              dpsi_inv, jet_einsum("pik,pkj->pij", JY, dpsi))

        return Fixture(f"{base.name}@flow", base.backend, Field(g_fn),
                       Field(rho_fn), Field(J_fn), base.caps,
                       base.descriptor)

    def pullback_scalar_values(self, field: Field, batch: NodeBatch, t: float):
        pos = self.flow_jets(batch, t, 0)
        return compose_field(field, batch.chart, pos, 0).value


class StructureConjugationCurve:
    """J_t = exp(t S) J exp(-t S) with S = (1/2) J A for anti-linear symmetric
    A; the induced metric is read off the fixed symplectic form."""

    t_max = 0.25

    def __init__(self, fixture: Fixture, A_field: Field):
        self.base = fixture
        self.A = A_field
        # J, S and the symplectic form, the same at every t
        self._terms: dict = {}

    def _J0(self, batch: NodeBatch, order: int) -> Jet:
        return _term(self._terms, "J0", self.base.J, batch, order)

    def _generator(self, batch: NodeBatch, order: int) -> Jet:
        return jet_einsum("pik,pkj->pij", self._J0(batch, order), self.A(batch, order)) * 0.5

    def _omega(self, batch: NodeBatch, order: int) -> Jet:
        return symplectic_form(self._J0(batch, order), self.base.g(batch, order))

    def _expm(self, S: Jet, t: float) -> Jet:
        n = S.batch_shape[-1]
        out = Jet.const(0.0, S.dim, S.order, S.batch_shape)
        out.coeffs[0] = np.eye(n)
        term = out
        for k in range(1, 24):
            term = jet_einsum("pik,pkj->pij", term, S) * (t / k)
            out = out + term
            if np.max(np.abs(term.coeffs)) < 1e-19:
                break
        return out

    def _exp_series(self, S: Jet, t0: float, q: int, sign: float) -> Jet:
        """exp(sign (t0 + s) S) as a series of degree q in s: the s^k
        coefficient is exp(sign t0 S) (sign S)^k / k!."""
        P = self._expm(S, sign * t0)
        parts = [P]
        for k in range(1, q + 1):
            P = jet_einsum("pik,pkj->pij", P, S) * (sign / k)
            parts.append(P)
        return jmath.series(parts)

    def fixture_at(self, t: float) -> Fixture:
        return self.series_at(t, 0)

    def series_at(self, t0: float, q: int) -> Fixture:
        """The conjugated structure at t0 + s, and the metric it induces,
        as series of degree q in s."""
        base = self.base

        def J_fn(batch, order):
            J0 = self._J0(batch, order)
            S = _term(self._terms, "S", self._generator, batch, order)
            E = self._exp_series(S, t0, q, 1.0)
            Einv = self._exp_series(S, t0, q, -1.0)
            return jet_einsum("pik,pkj->pij", E, jet_einsum("pik,pkj->pij", J0, Einv))

        def g_fn(batch, order):
            om = _term(self._terms, "omega", self._omega, batch, order)
            Jt = J_fn(batch, order)
            return jet_einsum("pai,paj->pij", Jt, om) * (-1.0)

        return Fixture(f"{base.name}@conj", base.backend, Field(g_fn),
                       base.omega_density, Field(J_fn), base.caps, base.descriptor)
