"""Derived geometric data (inverse metric, connection, curvature, log-density)
as cached jets over node batches.

Conventions: Christoffel symbols Gamma^i_{jk} carry the upper index first;
curvature is R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj} + Gamma Gamma,
Ricci is the (j, l) trace, which makes the round unit sphere satisfy
Ric = g.  The weight function is f = 1/2 log det g - log(rho), rho the
fixture density with respect to chart Lebesgue measure.

Each quantity is built at the order its reader asks for, and no higher:
Gamma Gamma products run at the curvature's order, and Ricci is contracted
straight from Gamma and its first derivatives, so the 4-index tensor is
built only for ``riemann`` itself (read by ``riemann_cov``).  The curvature
reads Gamma one order up for those derivatives from a stored build, or
builds it and drops it, so Gamma is stored only at the orders its readers
ask for.  log det g takes its derivatives from Jacobi's formula,
tr(g^-1 dg), so the inverse is read one order below log det g, at no more
than the order Gamma needs.  The metric follows Gamma's rule: Gamma and
log det g differentiate g one order above the inverse they read, and take
that g from a stored build, or build it, store its truncation one order down
for the inverse and drop it, so g is stored only at the orders that its
other readers ask for.  A state keeps one build per quantity and node batch
and answers any lower order from it by truncation (``by_order``), which is
bit-identical to a build at that order because every jet table is a prefix
of the higher-order ones.

Inside a ``FixtureScope`` every state on the scope's fixture shares one
cache, so the checks of one fixture group build each quantity once; outside
one, each state keeps its own.
"""

from __future__ import annotations

import numpy as np

from . import jets, tensorcalc
from .backends import NodeBatch, ambient_table
from .errors import OrderExhaustedError, UnsupportedGeometryError
from .jets import Jet, _einsum, jet_einsum, jet_linear, jet_map

MAX_FIELD_ORDER = 4


def inverse_and_logdet(G: Jet) -> tuple[Jet, Jet]:
    """Jet inverse and log-determinant of an SPD jet matrix.

    Uses the Neumann series around the pointwise value, which terminates
    exactly at the jet order (plus the t-degree of a series) because the
    remainder has no constant term.
    That constant term is set to its exact zero rather than left as the
    rounding noise of ``I - G0^{-1} G0``, so the result truncated to a lower
    order is bit-identical to the inverse computed at that order.
    """
    G0 = G.value
    G0inv = np.linalg.inv(G0)
    n = G0.shape[-1]
    E = jet_linear("pik,pkj->pij", G0inv, G) * (-1.0)
    E.coeffs[0] = 0.0
    acc = E.copy()
    acc.coeffs[0] += np.eye(n)
    logdet_corr = jet_map("pii->p", E) * (-1.0)
    P = E
    for k in range(2, G.order + G.q + 1):
        P = _einsum("pij,pjk->pik", P, E, (k - 1, 1))     # E^k vanishes below k
        acc = acc + P
        logdet_corr = logdet_corr + jet_map("pii->p", P) * (-1.0 / k)
    Ginv = jet_linear("pkj,pik->pij", G0inv, acc)
    sign, base_logdet = np.linalg.slogdet(G0)
    logdet = logdet_corr + base_logdet
    return Ginv, logdet


def by_order(store: dict, key, order: int, build):
    """``store[key]`` at ``order``: truncated from its build at the next
    higher order when there is one, else ``build()``, a jet or a sequence of
    them, whose truncations then replace every lower entry, so a store keeps
    one build per key.  Every jet table is a prefix of the higher-order ones,
    so the truncation is bit-identical to a build at ``order``; this one rule
    serves the geometry states, the curve terms, the flows and the flow
    series.
    Stored coefficients are read-only: a write into them would reach every
    later reader of the store."""
    built = store.setdefault(key, {})
    if order not in built:
        above = [k for k in built if k > order]
        if above:
            value = built[min(above)]
        else:
            value = build()
            for j in [value] if isinstance(value, Jet) else value:
                j.coeffs.flags.writeable = False
            # the new build supersedes every lower one
            for k in [k for k in built if k < order]:
                built[k] = _truncate(value, k)
        built[order] = _truncate(value, order)
    return built[order]


def _truncate(value, order: int):
    """A jet, or a sequence of jets entry by entry, truncated to ``order``."""
    if isinstance(value, Jet):
        return value.truncate(order)
    return type(value)(j.truncate(order) for j in value)


def symplectic_form(J: Jet, g: Jet) -> Jet:
    """omega_{ij} = g(J e_i, e_j)."""
    return jet_einsum("pki,pkj->pij", J, g)


class FixtureScope:
    """The state that every check of one fixture group shares, dropped when
    the ``with`` block ends: the base fixture's ``GeometryState``, whose cache
    every ``GeometryState(fixture)`` built inside the block reads and fills,
    and the Hamiltonian families of ``catalog.make_kahler_family`` by seed.
    One scope is open at a time; a state on any other fixture keeps its own
    cache."""

    current: "FixtureScope | None" = None

    def __init__(self, fixture):
        self.fixture = fixture
        self.geometry: GeometryState | None = None
        self.families: dict = {}

    def __enter__(self) -> "FixtureScope":
        if FixtureScope.current is not None:
            raise RuntimeError("a fixture scope is already open")
        self.geometry = GeometryState(self.fixture)
        FixtureScope.current = self
        return self

    def __exit__(self, *exc):
        FixtureScope.current = None
        self.geometry = None
        self.families = {}

    @staticmethod
    def on(fixture) -> "FixtureScope | None":
        """The open scope when it is on ``fixture``, else None."""
        scope = FixtureScope.current
        return scope if scope is not None and scope.fixture is fixture else None


class GeometryState:
    """Lazy per-batch jets of everything derived from (g, Omega, J)."""

    def __init__(self, fixture, weightless: bool = False):
        self.fixture = fixture
        self.weightless = weightless
        scope = FixtureScope.on(fixture)
        self._cache: dict = scope.geometry._cache if scope else {}

    def unweighted(self):
        """Same metric data with the weight turned off (f constant)."""
        twin = GeometryState(self.fixture, weightless=True)
        twin._cache = self._cache
        return twin

    @property
    def dim(self) -> int:
        return self.fixture.backend.dim

    @property
    def is_kahler(self) -> bool:
        return self.fixture.J is not None

    # -- cache plumbing ------------------------------------------------------

    def _get(self, name: str, batch: NodeBatch, order: int, builder):
        """The quantity ``name`` on ``batch`` at ``order`` (see ``by_order``)."""
        return by_order(self._cache, (name, batch.token), order, builder)

    def _for_gradient(self, name: str, batch: NodeBatch, order: int, builder) -> Jet:
        """``name`` at ``order`` for a reader that only takes its gradient:
        truncated from a stored build at or above ``order`` when there is
        one, and otherwise built here and not stored.  Its truncation one
        order down is then stored, as a copy, when that order is not."""
        built = self._cache.get((name, batch.token), {})
        top = max(built, default=-1)
        if top >= order:
            return built[top].truncate(order)
        up = builder()
        self._get(name, batch, order - 1, lambda: up.truncate(order - 1).copy())
        return up

    def _guard(self, order: int, depth: int, what: str):
        if order + depth > MAX_FIELD_ORDER:
            raise OrderExhaustedError(
                f"{what} at jet order {order} needs field order {order + depth} > {MAX_FIELD_ORDER}"
            )

    # -- primary fields ------------------------------------------------------

    def g(self, batch: NodeBatch, order: int) -> Jet:
        self._guard(order, 0, "metric")
        return self._get("g", batch, order, lambda: self.fixture.g(batch, order))

    def _metric_up(self, batch: NodeBatch, order: int) -> Jet:
        """g at ``order`` for Gamma and log det g, which only differentiate
        it and read the inverse one order down (see ``_for_gradient``)."""
        self._guard(order, 0, "metric")
        return self._for_gradient("g", batch, order, lambda: self.fixture.g(batch, order))

    def rho(self, batch: NodeBatch, order: int) -> Jet:
        self._guard(order, 0, "density")
        return self._get("rho", batch, order, lambda: self.fixture.omega_density(batch, order))

    def J(self, batch: NodeBatch, order: int) -> Jet:
        def build():
            if not self.is_kahler:
                raise UnsupportedGeometryError(f"{self.fixture.name} has no complex structure")
            return self.fixture.J(batch, order)

        return self._get("J", batch, order, build)

    # -- metric-derived -------------------------------------------------------

    def _inverse(self, batch: NodeBatch, order: int) -> tuple[Jet, Jet]:
        return self._get("inverse", batch, order,
                         lambda: inverse_and_logdet(self.g(batch, order)))

    def ginv(self, batch: NodeBatch, order: int) -> Jet:
        return self._inverse(batch, order)[0]

    def logdetg(self, batch: NodeBatch, order: int) -> Jet:
        """log det g: its value from the order-0 inverse, its derivatives by
        Jacobi's formula d_a log det g = tr(g^-1 d_a g), so the inverse is
        read one order below this one.  Not stored: ``f`` stores it."""
        if order == 0:
            return self._inverse(batch, 0)[1]
        # g first: the inverse below reads the truncation that it stores
        dg = self._metric_up(batch, order).gradient()
        dlog = jet_einsum("pij,pjia->pa", self.ginv(batch, order - 1), dg)
        return jets.antigradient(self._inverse(batch, 0)[1], dlog)

    def _christoffel(self, batch: NodeBatch, order: int) -> Jet:
        """Gamma at ``order``, built and not stored."""
        self._guard(order, 1, "connection")
        # g one order up first: the inverse below reads the truncation that
        # it stores.  g and dg go before the contraction, which sets the peak
        dg = jet_map("pijd->pdij", self._metric_up(batch, order + 1).gradient())
        S = jet_map("pikj->pkij", dg) + jet_map("pjki->pkij", dg) - dg
        del dg
        ginv = self.ginv(batch, order)
        return jet_einsum("plk,pkij->plij", ginv, S) * 0.5

    def gamma(self, batch: NodeBatch, order: int) -> Jet:
        """Christoffel jets Gamma[p, i, j, k] = Gamma^i_{jk}."""
        return self._get("gamma", batch, order, lambda: self._christoffel(batch, order))

    def _connection_jets(self, batch: NodeBatch, order: int) -> tuple[Jet, Jet]:
        """Gamma and dG[p, d, i, j, k] = d_d Gamma^i_{jk}, both at ``order``:
        every coefficient of a Gamma Gamma product above it would be dropped.
        Gamma one order up, which only its derivatives read, comes from
        ``_for_gradient``."""
        self._guard(order, 2, "curvature")
        G = self._for_gradient("gamma", batch, order + 1,
                               lambda: self._christoffel(batch, order + 1))
        return self.gamma(batch, order), jet_map("pijkd->pdijk", G.gradient())

    def riemann(self, batch: NodeBatch, order: int) -> Jet:
        """R[p, i, j, k, l] = R^i_{jkl}."""

        def build():
            G, dG = self._connection_jets(batch, order)
            T1 = jet_map("pkilj->pijkl", dG)
            T2 = jet_map("plikj->pijkl", dG)
            Q1 = jet_einsum("pikq,pqlj->pijkl", G, G)
            Q2 = jet_einsum("pilq,pqkj->pijkl", G, G)
            return T1 - T2 + Q1 - Q2

        return self._get("riemann", batch, order, build)

    def riemann_cov(self, batch: NodeBatch, order: int) -> Jet:
        def build():
            return jet_einsum("pia,pajkl->pijkl", self.g(batch, order), self.riemann(batch, order))

        return self._get("riemann_cov", batch, order, build)

    def ric(self, batch: NodeBatch, order: int) -> Jet:
        """Ric_{jl} = R^i_{jil}, contracted straight from Gamma:
        d_i Gamma^i_{lj} - d_l Gamma^i_{ij} + Gamma^i_{iq} Gamma^q_{lj}
        - Gamma^i_{lq} Gamma^q_{ij}, with no 4-index tensor built."""

        def build():
            G, dG = self._connection_jets(batch, order)
            trace = jet_map("piiq->pq", G)
            return (jet_map("piilj->pjl", dG) - jet_map("pliij->pjl", dG)
                    + jet_einsum("pq,pqlj->pjl", trace, G)
                    - jet_einsum("pilq,pqij->pjl", G, G))

        return self._get("ric", batch, order, build)

    def ric_endo(self, batch: NodeBatch, order: int) -> Jet:
        def build():
            return jet_einsum("pik,pkj->pij", self.ginv(batch, order), self.ric(batch, order))

        return self._get("ric_endo", batch, order, build)

    # -- weight ---------------------------------------------------------------

    def f(self, batch: NodeBatch, order: int) -> Jet:
        key = "f0" if self.weightless else "f"

        def build():
            if self.weightless:
                return Jet.const(0.0, self.dim, order, (batch.size,))
            return self.logdetg(batch, order) * 0.5 - jets.log(self.rho(batch, order))

        return self._get(key, batch, order, build)

    def df(self, batch: NodeBatch, order: int) -> Jet:
        key = "df0" if self.weightless else "df"

        def build():
            if self.weightless:
                return Jet.const(0.0, self.dim, order, (batch.size, self.dim))
            return self.f(batch, order + 1).gradient()

        return self._get(key, batch, order, build)

    def gradf(self, batch: NodeBatch, order: int) -> Jet:
        key = "gradf0" if self.weightless else "gradf"

        def build():
            # df first: log det g reads g one order up and stores its
            # truncation, which the inverse below then reads
            df = self.df(batch, order)
            return jet_einsum("pij,pj->pi", self.ginv(batch, order), df)

        return self._get(key, batch, order, build)

    def hessf(self, batch: NodeBatch, order: int) -> Jet:
        """Covariant Hessian of f, a symmetric 2-tensor: ``tensorcalc.cd``
        of the gradient of f built two orders up, not of a stored df, which
        would stay cached one order above its readers."""
        key = "hessf0" if self.weightless else "hessf"

        def build():
            if self.weightless:
                return Jet.const(0.0, self.dim, order, (batch.size, self.dim, self.dim))
            return tensorcalc.cd(self, batch, self.f(batch, order + 2).gradient(), "l")

        return self._get(key, batch, order, build)

    # -- chart data ------------------------------------------------------------

    def ambient(self, batch: NodeBatch, order: int) -> tuple:
        """The jets of ``backends.AMBIENT_MONOMIALS`` of the unit-sphere
        embedding, which every chart polynomial on CP1 reads.  Only the
        backend's own batches are stored: a fresh batch, such as a
        Runge-Kutta stage's, is evaluated once."""
        if not self.fixture.caps.sphere:
            raise UnsupportedGeometryError(f"{self.fixture.name} has no sphere embedding")
        if not self.fixture.backend.owns(batch):
            return ambient_table(batch, order)
        return self._get("ambient", batch, order, lambda: ambient_table(batch, order))

    # -- symplectic form -------------------------------------------------------

    def omega(self, batch: NodeBatch, order: int) -> Jet:
        return self._get("omega", batch, order,
                         lambda: symplectic_form(self.J(batch, order), self.g(batch, order)))
