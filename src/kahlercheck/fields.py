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
from .jets import jet_einsum, jet_stack


def _rng(seed, *salt) -> np.random.Generator:
    # stable across processes (the builtin hash is randomized per run)
    tags = [zlib.crc32(str(s).encode()) for s in salt]
    return np.random.default_rng(tags + [seed])


def seeded_scalar(geom: GeometryState, seed: int, mean_zero: bool = False,
                  amp: float = 1.0) -> Field:
    fx = geom.fixture
    if fx.backend.kind == "CP1":
        raw = bk.ambient_poly_scalar(fx.backend, _rng(seed, "scalar"), degree=2, amp=amp)
    else:
        band = 2 if fx.backend.dim == 2 else 1
        raw = bk.trig_scalar(fx.backend, _rng(seed, "scalar"), band=band, nmodes=4,
                             amp=amp, mean_zero=False)
    if not mean_zero:
        return raw
    mean = fx.integrate_field(raw)

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
    if fx.backend.kind == "CP1":
        u1 = seeded_scalar(geom, seed)
        u2 = seeded_scalar(geom, seed + 77)

        def fn(batch, order):
            g1 = tc.grad_scalar(geom, batch, u1(batch, order + 1)).truncate(order)
            g2 = tc.grad_scalar(geom, batch, u2(batch, order + 1)).truncate(order)
            J = geom.J(batch, order)
            return g1 + jet_einsum("pij,pj->pi", J, g2)

        return Field(fn)
    comps = [seeded_scalar(geom, seed + 13 * i) for i in range(fx.dim)]

    def fn(batch, order):
        return jet_stack([c(batch, order) for c in comps], axis=2)

    return Field(fn)


def seeded_oneform(geom, seed) -> Field:
    vec = seeded_vector(geom, seed + 555)

    def fn(batch, order):
        return tc.flat_vector(geom, batch, vec(batch, order))

    return Field(fn)


def seeded_sym2(geom, seed, trace_part: float = 1.0) -> Field:
    fx = geom.fixture
    if fx.backend.kind == "CP1":
        s = seeded_scalar(geom, seed)
        u = seeded_scalar(geom, seed + 31)

        def fn(batch, order):
            g = geom.g(batch, order)
            hz = tc.hessian_scalar(geom, batch, u(batch, order + 2)).truncate(order)
            return jet_einsum("p,pij->pij", s(batch, order), g) * trace_part + hz

        return Field(fn)
    n = fx.dim
    comps = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            f = seeded_scalar(geom, seed + 101 * i + 7 * j)
            comps[i][j] = f
            comps[j][i] = f

    def fn(batch, order):
        rows = [jet_stack([comps[i][j](batch, order) for j in range(n)], axis=2)
                for i in range(n)]
        return jet_stack(rows, axis=2)

    return Field(fn)


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
