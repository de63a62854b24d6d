"""Seeded, jet-exact random fields on the fixtures.

Tori get band-limited trig polynomials; the projective line gets polynomials
in the ambient sphere coordinates (globally smooth, rational per chart).
Anti-linear endomorphisms are built as the anti-commuting part of a sharped
symmetric 2-tensor, so they are also g-symmetric.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import backends as bk
from . import tensorcalc as tc
from .backends import Field
from .geometry import GeometryState
from .jets import Jet, jet_einsum


def _rng(seed, *salt) -> np.random.Generator:
    # stable across processes (the builtin hash is randomized per run)
    tags = [zlib.crc32(str(s).encode()) for s in salt]
    return np.random.default_rng(tags + [seed])


def _torus_field(fx, shape, slots, amp: float = 1.0) -> Field:
    """One trig field whose entries are seeded torus scalars.

    ``slots`` lists (seed, indices): the scalar drawn from
    ``_rng(seed, "scalar")`` (4 modes, then its constant) fills every index
    in ``indices`` of the tensor ``shape``.
    """
    band = 2 if fx.dim == 2 else 1
    modes, amps, const = [], [], np.zeros(shape)
    for seed, indices in slots:
        unit = np.zeros(shape)
        for ix in indices:
            unit[ix] = 1.0
        rng = _rng(seed, "scalar")
        ms, a = bk.trig_modes(rng, fx.dim, band, 4, amp)
        modes += ms
        amps += [am * unit for am in a]
        const += rng.normal() * amp / 3.0 * unit
    return bk.trig_field(modes, amps, const)


def ambient_poly_scalar(geom: GeometryState, rng, degree=2, amp=1.0) -> Field:
    """Seeded polynomial in the ambient coordinates; globally smooth.

    Each monomial is one jet product of an earlier monomial (its first
    exponent lowered by one) and a coordinate, and enters the sum scaled by
    its coefficient.  Those of degree at most two come from ``geom.ambient``,
    built once per batch and order."""
    monos = [
        (i, j, k)
        for i in range(degree + 1)
        for j in range(degree + 1)
        for k in range(degree + 1)
        if 0 < i + j + k <= degree
    ]
    coeffs = rng.normal(size=len(monos)) * amp / len(monos)

    def fn(batch, order):
        table = geom.ambient(batch, order)
        coords = table[:3]
        built = dict(zip(bk.AMBIENT_MONOMIALS, table))
        acc = Jet.const(0.0, 2, order, (batch.size,))
        for mono, c in zip(monos, coeffs):
            if mono not in built:
                parent, a = bk.ambient_parent(mono)
                built[mono] = built[parent] * coords[a]
            acc = acc + built[mono] * c
        return acc

    return Field(fn)


def seeded_scalar(geom: GeometryState, seed: int, mean_zero: bool = False,
                  amp: float = 1.0) -> Field:
    fx = geom.fixture
    if fx.caps.periodic:
        raw = _torus_field(fx, (), [(seed, [()])], amp)
    else:
        raw = ambient_poly_scalar(geom, _rng(seed, "scalar"), degree=2, amp=amp)
    if not mean_zero:
        return raw
    mean = fx.integrate([raw(b, 0).value for b in fx.quad_nodes()])

    def fn(batch, order):
        return raw(batch, order) - mean

    return Field(fn)


def seeded_complex_scalar(geom, seed) -> Field:
    """Mean-zero complex scalar field."""
    u1 = seeded_scalar(geom, seed, mean_zero=True)
    u2 = seeded_scalar(geom, seed + 1009, mean_zero=True)

    def fn(batch, order):
        return u1(batch, order) + u2(batch, order) * 1j

    return Field(fn)


def seeded_vector(geom, seed) -> Field:
    fx = geom.fixture
    if not fx.caps.periodic:
        u1 = seeded_scalar(geom, seed)
        u2 = seeded_scalar(geom, seed + 77)

        def fn(batch, order):
            g1 = tc.grad_scalar(geom, batch, u1(batch, order + 1)).truncate(order)
            g2 = tc.grad_scalar(geom, batch, u2(batch, order + 1)).truncate(order)
            J = geom.J(batch, order)
            return g1 + jet_einsum("pij,pj->pi", J, g2)

        return Field(fn)
    return _torus_field(fx, (fx.dim,), [(seed + 13 * i, [i]) for i in range(fx.dim)])


def seeded_oneform(geom, seed) -> Field:
    vec = seeded_vector(geom, seed + 555)

    def fn(batch, order):
        return tc.flat_vector(geom, batch, vec(batch, order))

    return Field(fn)


def seeded_sym2(geom, seed, trace_part: float = 1.0) -> Field:
    fx = geom.fixture
    if not fx.caps.periodic:
        s = seeded_scalar(geom, seed)
        u = seeded_scalar(geom, seed + 31)

        def fn(batch, order):
            hz = tc.cd(geom, batch, u(batch, order + 2).gradient(), "l").truncate(order)
            if trace_part == 0.0:
                return hz
            g = geom.g(batch, order)
            return jet_einsum("p,pij->pij", s(batch, order), g) * trace_part + hz

        return Field(fn)
    n = fx.dim
    return _torus_field(fx, (n, n), [(seed + 101 * i + 7 * j, [(i, j), (j, i)])
                                     for i in range(n) for j in range(i, n)])


def seeded_sym_endo(geom, seed) -> Field:
    v = seeded_sym2(geom, seed)

    def fn(batch, order):
        return tc.sharp_sym2(geom, batch, v(batch, order))

    return Field(fn)


def seeded_antilinear(geom, seed) -> Field:
    """J-anti-linear, g-symmetric endomorphism field."""
    v = seeded_sym2(geom, seed, trace_part=0.0)

    def fn(batch, order):
        S = tc.sharp_sym2(geom, batch, v(batch, order))
        J = geom.J(batch, order)
        return (S + jet_einsum("pik,pkj->pij", J, jet_einsum("pik,pkj->pij", S, J))) * 0.5

    return Field(fn)
