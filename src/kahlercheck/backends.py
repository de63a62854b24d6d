"""Compact model geometries: flat/perturbed tori and the round projective line.

A :class:`Backend` owns charts and quadrature; a :class:`Fixture` adds the
metric, the normalized positive density and (where defined) the complex
structure.  All fields are chart-local closed-form expressions evaluated in
jet arithmetic, so every spatial derivative used downstream is exact.

Quadrature weights are stored with respect to the chart Lebesgue measure of
the node's own chart; ``Fixture.integrate`` folds in the fixture density.
Every backend's grid comes, chart by chart, as consecutive blocks of at
most ``QUAD_BLOCK`` nodes.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import jets
from .errors import (
    BadInputError,
    BadVolumeError,
    DegenerateMetricError,
    NanInFieldError,
    NoOverlapError,
)
from .jets import Jet, jet_stack

TWO_PI = 2.0 * math.pi

# The most nodes in one quadrature batch, the one bound on the size of a
# check's jet temporaries.  A batch's jets are the memory peak: order-2
# tensor jets in dimension 4 on the 10^4-node grids.  Below about 2000 nodes
# the peak no longer falls.
QUAD_BLOCK = 2048

_token_counter = itertools.count()


@dataclass(frozen=True)
class NodeBatch:
    chart: int
    pts: np.ndarray                    # (m, dim)
    weights: np.ndarray | None = None  # chart-Lebesgue weights
    token: int = dc_field(default_factory=lambda: next(_token_counter))

    @property
    def size(self) -> int:
        return self.pts.shape[0]


NodeSet = tuple


def _blocks(chart: int, pts: np.ndarray, weights: np.ndarray) -> list[NodeBatch]:
    """One chart's nodes and weights, in order, as ceil(n / QUAD_BLOCK)
    consecutive batches of near-equal size."""
    n_blocks = max(1, math.ceil(len(pts) / QUAD_BLOCK))
    return [NodeBatch(chart, p, w)
            for p, w in zip(np.array_split(pts, n_blocks), np.array_split(weights, n_blocks))]


class Field:
    """Chart-indexed tensor field, evaluated as a jet at a node batch."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, batch: NodeBatch, order: int) -> Jet:
        return self.fn(batch, order)


def chart_expr_field(backend, exprs):
    """Build a Field from per-chart closures acting on coordinate jets.

    ``exprs`` is a single callable (same formula on every chart) or a dict
    chart -> callable; each callable receives the coordinate jets and returns
    a Jet whose batch shape starts with the node count.
    """

    def fn(batch: NodeBatch, order: int) -> Jet:
        e = exprs[batch.chart] if isinstance(exprs, dict) else exprs
        xs = Jet.coordinates(batch.pts, backend.dim, order)
        return e(*xs)

    return Field(fn)


def const_matrix_field(backend, mat):
    """The constant ``mat`` at every node: its coefficients are a read-only
    broadcast of one (ncoeff, 1, *mat.shape) array over the points, so the
    zeros above order 0 are not stored per node."""
    m = np.asarray(mat, dtype=float)

    def fn(batch: NodeBatch, order: int) -> Jet:
        c = np.zeros((jets.table(backend.dim, order).ncoeff, 1) + m.shape)
        c[0] = m
        return Jet(backend.dim, order, np.broadcast_to(c, (len(c), batch.size) + m.shape))

    return Field(fn)


# ---------------------------------------------------------------------------
# backends


class Backend:
    dim = 0

    def __init__(self):
        self._check_memo: dict = {}
        self._owned: set = set()

    def quad_nodes(self) -> NodeSet:
        raise NotImplementedError

    def owns(self, batch: NodeBatch) -> bool:
        """Whether ``batch`` is one of this backend's own batches, a
        ``quad_nodes()`` block or a ``check_nodes()`` batch: the batches that
        are evaluated again, so the only ones worth a cache entry."""
        return batch.token in self._owned

    def _own(self, batches) -> NodeSet:
        self._owned.update(b.token for b in batches)
        return tuple(batches)

    def check_nodes(self, seed: int, count: int) -> NodeSet:
        """Seeded random check batches, the same read-only objects on every
        call in a process, so that caches keyed by the batch token (flows)
        serve every check that draws the same nodes."""
        key = (seed, count)
        if key not in self._check_memo:
            batches = self._draw_check_nodes(seed, count)
            for b in batches:
                b.pts.flags.writeable = False
            self._check_memo[key] = self._own(batches)
        return self._check_memo[key]

    def _draw_check_nodes(self, seed: int, count: int) -> NodeSet:
        raise NotImplementedError

    def integrate_chart(self, values_per_batch, nodes: NodeSet) -> float:
        """Sum of chart-Lebesgue weighted values over all batches."""
        total = 0.0
        for batch, vals in zip(nodes, values_per_batch):
            v = np.asarray(vals)
            if not np.all(np.isfinite(v)):
                raise NanInFieldError("non-finite value at a quadrature node")
            total += np.sum(batch.weights * v)
        return total


class Torus(Backend):
    def __init__(self, dim: int, grid: int):
        super().__init__()
        self.dim = dim
        self.grid = grid
        self._quad = None

    def quad_nodes(self) -> NodeSet:
        """The uniform tensor grid in lexicographic order, in blocks."""
        if self._quad is None:
            axes = [np.arange(self.grid) / self.grid for _ in range(self.dim)]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            w = np.full(pts.shape[0], self.grid ** (-self.dim), dtype=float)
            self._quad = self._own(_blocks(0, pts, w))
        return self._quad

    def _draw_check_nodes(self, seed: int, count: int) -> NodeSet:
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, size=(count, self.dim))
        return (NodeBatch(0, pts),)


class CP1(Backend):
    """Two stereographic charts with transition w = 1/z; Gauss x uniform grid."""

    dim = 2

    def __init__(self, n_theta: int, n_phi: int):
        super().__init__()
        self.n_theta = n_theta
        self.n_phi = n_phi
        self._quad = None

    def quad_nodes(self) -> NodeSet:
        """The chart-0 nodes in blocks, then the chart-1 nodes in blocks."""
        if self._quad is None:
            u, gw = np.polynomial.legendre.leggauss(self.n_theta)
            phi = (np.arange(self.n_phi) + 0.5) * TWO_PI / self.n_phi
            U, PHI = np.meshgrid(u, phi, indexing="ij")
            W = np.repeat(gw, self.n_phi) * (TWO_PI / self.n_phi)
            U, PHI = U.ravel(), PHI.ravel()
            batches = []
            for chart in (0, 1):
                mask = U <= 0 if chart == 0 else U > 0
                pts = self._angles_to_chart(U[mask], PHI[mask], chart)
                r2 = np.sum(pts**2, axis=1)
                w_leb = W[mask] * (1.0 + r2) ** 2 / 4.0
                batches += _blocks(chart, pts, w_leb)
            self._quad = self._own(batches)
        return self._quad

    @staticmethod
    def _angles_to_chart(u, phi, chart):
        s = np.sqrt(np.maximum(1.0 - u**2, 0.0))
        X, Y, Z = s * np.cos(phi), s * np.sin(phi), u
        if chart == 0:
            return np.stack([X / (1.0 - Z), Y / (1.0 - Z)], axis=-1)
        return np.stack([X / (1.0 + Z), -Y / (1.0 + Z)], axis=-1)

    def _draw_check_nodes(self, seed: int, count: int) -> NodeSet:
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.0, 1.0, size=count)
        phi = rng.uniform(0.0, TWO_PI, size=count)
        batches = []
        for chart in (0, 1):
            mask = u <= 0 if chart == 0 else u > 0
            if np.any(mask):
                batches.append(
                    NodeBatch(chart, self._angles_to_chart(u[mask], phi[mask], chart))
                )
        return tuple(batches)

    # -- chart transition ---------------------------------------------------

    @staticmethod
    def transition_jacobian(pts: np.ndarray) -> np.ndarray:
        x, y = pts[:, 0], pts[:, 1]
        r2 = x * x + y * y
        if np.any(r2 < 0.04) or np.any(r2 > 25.0):
            raise NoOverlapError("point outside the chart overlap annulus")
        r4 = r2 * r2
        m = np.empty(pts.shape[:1] + (2, 2))
        m[:, 0, 0] = (y * y - x * x) / r4
        m[:, 0, 1] = -2 * x * y / r4
        m[:, 1, 0] = 2 * x * y / r4
        m[:, 1, 1] = (y * y - x * x) / r4
        return m

    @staticmethod
    def transition_point(pts: np.ndarray) -> np.ndarray:
        r2 = np.sum(pts**2, axis=1, keepdims=True)
        if np.any(r2 < 1e-12):
            raise NoOverlapError("transition undefined at the chart origin")
        out = pts / r2
        out[:, 1] *= -1.0
        return out


def chart_transition(components: np.ndarray, valence: str, pts: np.ndarray):
    """CP1 tensor components in the other chart, at the image points.

    ``components`` has shape (m, ...) matching the valence: scalar (m,),
    vector (m,2), oneform (m,2), sym2 (m,2,2), endo (m,2,2).
    Returns (new_points, new_components).
    """
    new_pts = CP1.transition_point(pts)
    M = CP1.transition_jacobian(pts)           # d(new)/d(old) at old points
    Minv = CP1.transition_jacobian(new_pts)    # involution: inverse = jacobian at image
    if valence == "scalar":
        out = components
    elif valence == "vector":
        out = np.einsum("pai,pi->pa", M, components)
    elif valence == "oneform":
        out = np.einsum("pi,pia->pa", components, Minv)
    elif valence == "sym2":
        out = np.einsum("pia,pjb,pij->pab", Minv, Minv, components)
    elif valence == "endo":
        out = np.einsum("pai,pij,pjb->pab", M, components, Minv)
    else:
        raise BadInputError(f"unsupported valence {valence!r}")
    return new_pts, out


# ---------------------------------------------------------------------------
# fixtures


@dataclass(frozen=True)
class Capabilities:
    """What holds on a fixture.  The registry's requirements and every branch
    of a runner read this record; a fixture's name is only a label."""

    dim: int
    kahler: bool = False    # a complex structure J compatible with g
    flat: bool = False      # constant metric and density, so f = 0 and h = -g,
                            # with the closed forms of the unit square torus
    periodic: bool = False  # one torus chart; seeded fields are trig polynomials
    sphere: bool = False    # the stereographic atlas of CP1, its holomorphic
                            # fields and its ambient unit-sphere embedding
    shrinker: bool = False  # Ric + Hess f = g

    def satisfies(self, requires) -> bool:
        """Whether every value of one of the alternatives ``requires`` (a
        tuple of dicts of field values) holds here."""
        return any(all(getattr(self, k) == v for k, v in alt.items()) for alt in requires)


@dataclass
class Fixture:
    name: str
    backend: Backend
    g: Field
    omega_density: Field
    J: Field | None
    caps: Capabilities
    descriptor: dict
    # density values per batch token, read-only, as Backend._check_memo
    _density_memo: dict = dc_field(default_factory=dict, init=False, repr=False,
                                   compare=False)

    def quad_nodes(self) -> NodeSet:
        return self.backend.quad_nodes()

    def check_nodes(self, seed: int, count: int) -> NodeSet:
        return self.backend.check_nodes(seed, count)

    @property
    def dim(self) -> int:
        return self.backend.dim

    def density_values(self, nodes: NodeSet) -> list:
        """The density at each batch's nodes, evaluated once per batch for
        the life of the fixture; the arrays are read-only."""
        out = []
        for b in nodes:
            rho = self._density_memo.get(b.token)
            if rho is None:
                rho = self.omega_density(b, 0).value
                rho.flags.writeable = False
                self._density_memo[b.token] = rho
            out.append(rho)
        return out

    def integrate(self, values_per_batch) -> float:
        """Integral against the fixture density Omega of the values on each
        quadrature batch, in ``quad_nodes()`` order: every integral of the
        engine is this call."""
        nodes = self.quad_nodes()
        values = list(values_per_batch)
        if len(values) != len(nodes):
            raise BadInputError(f"{self.name}: {len(values)} value arrays for "
                                f"{len(nodes)} quadrature batches")
        rho = self.density_values(nodes)
        weighted = [np.asarray(v) * r for v, r in zip(values, rho)]
        return self.backend.integrate_chart(weighted, nodes)


# -- torus helper fields ----------------------------------------------------


def trig_field(modes, amps, const) -> Field:
    """Torus trig polynomial const + sum_m amps[m] sin(2 pi k_m . x + phase_m).

    ``modes`` lists (k, phase); ``amps`` has shape (len(modes), *shape) and
    ``const`` broadcasts to ``shape``, the tensor shape of the field.  The
    Taylor coefficients are closed form (Griewank & Walther, *Evaluating
    Derivatives*, ch. 13): with theta_m = 2 pi k_m . x + phase_m, coefficient
    alpha is sum_m amps[m] sin^(|alpha|)(theta_m) (2 pi k_m)^alpha / alpha!,
    and sin^(d) cycles through (sin, cos, -sin, -cos).
    """
    ks = TWO_PI * np.array([k for k, _ in modes], dtype=float)
    phases = np.array([ph for _, ph in modes], dtype=float)
    amps = np.asarray(amps, dtype=float)
    shape = amps.shape[1:]
    flat = amps.reshape(len(modes), -1)
    const = np.broadcast_to(np.asarray(const, dtype=float), shape).ravel()

    def fn(batch, order):
        tb = jets.table(ks.shape[1], order)
        theta = batch.pts @ ks.T + phases                              # (points, modes)
        s, c = np.sin(theta), np.cos(theta)
        cycle = (s, c, -s, -c)
        mono = np.prod(ks[None] ** tb.alphas[:, None], axis=2) / tb.factorials[:, None]
        weighted = mono[:, :, None] * flat[None]                       # (ncoeff, modes, entries)
        # coefficients are sorted by degree, so each degree is one slice
        ends = np.searchsorted(tb.alphas.sum(axis=1), np.arange(order + 2))
        out = np.empty((tb.ncoeff, batch.size, flat.shape[1]))
        for d in range(order + 1):
            sel = slice(ends[d], ends[d + 1])
            np.matmul(cycle[d % 4], weighted[sel], out=out[sel])
        out[0] += const
        return Jet(tb.dim, order, out.reshape((tb.ncoeff, batch.size) + shape))

    return Field(fn)


def trig_modes(rng, dim, band, nmodes, amp):
    """Seeded modes (k, phase) with nonzero k in [-band, band]^dim and their
    amplitudes N(0, 1) amp / nmodes, drawn in the order k, phase, amplitude."""
    modes, amps = [], []
    while len(modes) < nmodes:
        k = rng.integers(-band, band + 1, size=dim)
        if not np.any(k):
            continue
        modes.append((k.astype(float), rng.uniform(0, TWO_PI)))
        amps.append(rng.normal() * amp / nmodes)
    return modes, np.array(amps)


def standard_J(dim: int) -> np.ndarray:
    """Block-diagonal complex structure for coordinates (x0+ix1, x2+ix3, ...)."""
    J = np.zeros((dim, dim))
    for b in range(dim // 2):
        J[2 * b, 2 * b + 1] = -1.0
        J[2 * b + 1, 2 * b] = 1.0
    return J


def _kahler_metric_from_modes(modes, amps, J0: np.ndarray) -> Field:
    """Metric of omega0 + d d^c(phi) for phi = sum_m amps[m] sin(2 pi k_m.x + phase_m).

    Each mode's potential Hessian is the amplitude -a (2 pi)^2 k k^T times its
    sine, and (d d^c phi)_ij = -1/2 (H J0 - (H J0)^T)_ij and g = -J0^T omega
    are linear, so the metric is one trig field with omega0 = J0^T.
    """
    omega0 = J0.T
    g_amps = []
    for (k, _), a in zip(modes, amps):
        HJ = (-a * TWO_PI**2 * np.outer(k, k)) @ J0
        g_amps.append(-J0.T @ (-0.5 * (HJ - HJ.T)))
    return trig_field(modes, np.array(g_amps), -J0.T @ omega0)


def _normalized_density(backend, raw: Field, name: str) -> Field:
    nodes = backend.quad_nodes()
    vals = [raw(b, 0).value for b in nodes]
    if any(np.any(v <= 0) for v in vals):
        raise BadVolumeError(f"{name}: density not positive on quadrature nodes")
    total = backend.integrate_chart(vals, nodes)
    if total <= 0:
        raise BadVolumeError(f"{name}: non-positive total mass")
    scale = 1.0 / total

    def fn(batch, order):
        return raw(batch, order) * scale

    return Field(fn)


def _median(values: np.ndarray) -> float:
    """``np.median`` of all the values, from a sort: ``np.median`` imports
    ``numpy.ma``, which no other part of the engine loads."""
    s = np.sort(values, axis=None)
    mid = s.size // 2
    return s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2


def _check_spd(fixture: Fixture, floor: float = 0.15):
    for batch in fixture.quad_nodes():
        gv = fixture.g(batch, 0).value
        ev = np.linalg.eigvalsh(gv)
        if np.min(ev) <= floor * max(1.0, _median(ev)):
            raise DegenerateMetricError(
                f"{fixture.name}: metric not safely positive (min eig {np.min(ev):.3e})"
            )


def _check_unit_mass(fixture: Fixture, tol: float = 1e-10):
    total = fixture.integrate([np.ones(b.size) for b in fixture.quad_nodes()])
    if abs(total - 1.0) > tol:
        raise BadVolumeError(f"{fixture.name}: density integrates to {total!r}")


# -- fixture constructors ----------------------------------------------------


def _flat2(desc):
    backend = Torus(2, desc["grid"])
    g = const_matrix_field(backend, np.eye(2))
    rho = chart_expr_field(backend, lambda x, y: Jet.const(1.0, 2, x.order, x.batch_shape))
    J = const_matrix_field(backend, standard_J(2))
    return Fixture("FLAT2", backend, g, rho, J, CAPABILITIES["FLAT2"], desc)


def _pert2(desc):
    backend = Torus(2, desc["grid"])
    eps = desc["epsilon"]
    J0 = standard_J(2)

    # potential eps' sin(2 pi x) cos(2 pi y), scaled so the induced metric
    # perturbation has size ~eps; written in the sum-angle mode basis
    amp = eps / TWO_PI**2
    modes = [(np.array([1.0, 1.0]), 0.0), (np.array([1.0, -1.0]), 0.0)]
    g = _kahler_metric_from_modes(modes, [amp / 2.0, amp / 2.0], J0)
    raw = chart_expr_field(backend, lambda x, y: jets.exp(jets.sin(TWO_PI * y)))
    rho = _normalized_density(backend, raw, "PERT2-density")
    J = const_matrix_field(backend, J0)
    fx = Fixture("PERT2", backend, g, rho, J, CAPABILITIES["PERT2"], desc)
    _check_spd(fx)
    _check_unit_mass(fx)
    return fx


def _riem4(desc):
    backend = Torus(4, desc["grid"])
    seed = desc["seed"]
    eps = desc["epsilon"]
    rng = np.random.default_rng(seed)
    modes, amps = [], []
    for i in range(4):
        for j in range(i, 4):
            unit = np.zeros((4, 4))
            unit[i, j] = unit[j, i] = 1.0
            ms, a = trig_modes(rng, 4, band=1, nmodes=2, amp=eps)
            modes += ms
            amps += [am * unit for am in a]
    g = trig_field(modes, amps, np.eye(4))
    raw = trig_field(*trig_modes(rng, 4, band=1, nmodes=2, amp=0.3), 1.0)
    rho = _normalized_density(backend, raw, "RIEM4-density")
    fx = Fixture("RIEM4", backend, g, rho, None, CAPABILITIES["RIEM4"], desc)
    _check_spd(fx)
    _check_unit_mass(fx)
    return fx


def _kah4(desc):
    backend = Torus(4, desc["grid"])
    seed = desc["seed"]
    eps = desc["epsilon"]
    rng = np.random.default_rng(seed)
    J0 = standard_J(4)
    modes, amps = trig_modes(rng, 4, band=1, nmodes=4, amp=eps / TWO_PI**2)
    g = _kahler_metric_from_modes(modes, amps, J0)
    raw = trig_field(*trig_modes(rng, 4, band=1, nmodes=2, amp=0.25), 1.0)
    rho = _normalized_density(backend, raw, "KAH4-density")
    J = const_matrix_field(backend, J0)
    fx = Fixture("KAH4", backend, g, rho, J, CAPABILITIES["KAH4"], desc)
    _check_spd(fx)
    _check_unit_mass(fx)
    return fx


def _fs(desc):
    backend = CP1(desc["n_theta"], desc["n_phi"])

    def g_expr(x, y):
        lam = 4.0 / (1.0 + x * x + y * y) ** 2
        z = Jet.const(0.0, 2, lam.order, lam.batch_shape)
        row0 = jet_stack([lam, z], axis=2)
        row1 = jet_stack([z, lam], axis=2)
        return jet_stack([row0, row1], axis=2)

    def rho_expr(x, y):
        return (1.0 / math.pi) / ((1.0 + x * x + y * y) ** 2)

    g = chart_expr_field(backend, g_expr)
    rho = chart_expr_field(backend, rho_expr)
    J = const_matrix_field(backend, standard_J(2))
    fx = Fixture("FS", backend, g, rho, J, CAPABILITIES["FS"], desc)
    _check_spd(fx)
    _check_unit_mass(fx)
    return fx


_MAKERS = {"FLAT2": _flat2, "PERT2": _pert2, "RIEM4": _riem4, "KAH4": _kah4, "FS": _fs}

# What holds on every fixture of each kind, whatever its descriptor: the one
# place where a kind decides which checks run on it and how.
CAPABILITIES = {
    "FLAT2": Capabilities(dim=2, kahler=True, flat=True, periodic=True),
    "PERT2": Capabilities(dim=2, kahler=True, periodic=True),
    "RIEM4": Capabilities(dim=4, periodic=True),
    "KAH4": Capabilities(dim=4, kahler=True, periodic=True),
    "FS": Capabilities(dim=2, kahler=True, sphere=True, shrinker=True),
}

# Every key a descriptor of each kind may set, with its default.
_DEFAULTS = {
    "FLAT2": {"grid": 24},
    "PERT2": {"grid": 48, "epsilon": 0.08},
    "RIEM4": {"grid": 10, "seed": 7, "epsilon": 0.05},
    "KAH4": {"grid": 10, "seed": 11, "epsilon": 0.04},
    "FS": {"n_theta": 16, "n_phi": 32},
}

_cache: dict = {}


def _descriptor_value(kind: str, key: str, value):
    """``value`` as the type of ``key``: an int of at least 1 for a grid size,
    an int for ``seed`` and a finite float for ``epsilon``.  A bool is none of
    these."""
    if key == "epsilon":
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
    else:
        ok = isinstance(value, numbers.Integral) and (key == "seed" or value >= 1)
    if isinstance(value, bool) or not ok:
        need = {"epsilon": "a finite real", "seed": "an integer"}.get(key, "an integer >= 1")
        raise BadInputError(f"{kind} descriptor {key} must be {need}, not {value!r}")
    return float(value) if key == "epsilon" else int(value)


def make_fixture(desc) -> Fixture:
    """Build a fixture from a descriptor (dict with ``kind`` or a kind name).

    The descriptor is completed from the kind's defaults; the completed one
    keys the cache and becomes ``Fixture.descriptor``, so every descriptor
    of the same geometry returns the same fixture."""
    if isinstance(desc, str):
        desc = {"kind": desc}
    kind = desc.get("kind")
    if kind not in _MAKERS:
        raise BadInputError(f"unknown fixture kind {kind!r}")
    unknown = set(desc) - {"kind"} - set(_DEFAULTS[kind])
    if unknown:
        raise BadInputError(f"unknown {kind} descriptor keys: {sorted(unknown)}")
    full = {**_DEFAULTS[kind], **desc}
    for k in _DEFAULTS[kind]:
        full[k] = _descriptor_value(kind, k, full[k])
    key = tuple(sorted((k, repr(v)) for k, v in full.items()))
    if key not in _cache:
        _cache[key] = _MAKERS[kind](full)
    return _cache[key]


FIXTURE_KINDS = tuple(_MAKERS)


# -- projective-line closed-form data ----------------------------------------


def ambient_coordinates(chart: int, xs):
    """Jets of the unit-sphere embedding (X, Y, Z) in a stereographic chart."""
    x, y = xs
    r2 = x * x + y * y
    inv = jets.reciprocal(1.0 + r2)
    X = 2.0 * x * inv
    Y = (2.0 if chart == 0 else -2.0) * y * inv
    Z = (r2 - 1.0) * inv if chart == 0 else (1.0 - r2) * inv
    return X, Y, Z


# The monomials X^i Y^j Z^k of an ambient table, as exponents (i, j, k):
# X, Y, Z, then those of degree two in lexicographic order.
AMBIENT_MONOMIALS = ((1, 0, 0), (0, 1, 0), (0, 0, 1)) + tuple(
    e for e in itertools.product(range(3), repeat=3) if sum(e) == 2)


def ambient_parent(mono: tuple) -> tuple[tuple, int]:
    """The monomial that ``mono`` extends by one coordinate factor, and that
    factor's axis: its first non-zero exponent, lowered by one."""
    a = next(n for n, e in enumerate(mono) if e)
    return mono[:a] + (mono[a] - 1,) + mono[a + 1:], a


def ambient_table(batch: NodeBatch, order: int) -> tuple:
    """Jets of ``AMBIENT_MONOMIALS`` at the batch's nodes: X, Y, Z by
    ``ambient_coordinates``, and each monomial of degree two the product of
    its parent and a coordinate."""
    coords = ambient_coordinates(batch.chart, Jet.coordinates(batch.pts, 2, order))
    built = dict(zip(AMBIENT_MONOMIALS, coords))
    for mono in AMBIENT_MONOMIALS[3:]:
        parent, a = ambient_parent(mono)
        built[mono] = built[parent] * coords[a]
    return tuple(built[mono] for mono in AMBIENT_MONOMIALS)


def holomorphic_basis(backend) -> list[Field]:
    """Real vector fields of the three holomorphic generators on CP1."""

    def make(chart_exprs):
        def fn(batch, order):
            xs = Jet.coordinates(batch.pts, 2, order)
            re, im = chart_exprs[batch.chart](*xs)
            return jet_stack([re, im], axis=2)

        return Field(fn)

    def c(val, x):
        return Jet.const(val, 2, x.order, x.batch_shape)

    # phi in {1, z, z^2} on chart 0 maps to {-w^2, -w, -1} on chart 1
    gens = [
        {
            0: lambda x, y: (c(1.0, x), c(0.0, x)),
            1: lambda x, y: (-(x * x) + y * y, -2.0 * x * y),
        },
        {
            0: lambda x, y: (x * 1.0, y * 1.0),
            1: lambda x, y: (-1.0 * x, -1.0 * y),
        },
        {
            0: lambda x, y: (x * x - y * y, 2.0 * x * y),
            1: lambda x, y: (c(-1.0, x), c(0.0, x)),
        },
    ]
    return [make(g) for g in gens]
