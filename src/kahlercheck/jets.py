"""Dense truncated-Taylor (jet) arithmetic in 1 to 4 variables, order <= 6.

A :class:`Jet` stores the Taylor coefficients c_alpha = (d^alpha f)(p) / alpha!
of a function at a point, for every multi-index |alpha| <= order.  Arithmetic
on jets reproduces the exact partial derivatives of the composite expression,
so spatial differentiation downstream carries no discretization error.

A jet may also be a series in one more variable t, of degree q <= 6: the
product table holds every (alpha, j) with |alpha| <= order and j <= q,
spatial-major, so each spatial coefficient is followed by its q + 1
t-coefficients.  Arithmetic is the same truncated convolution, so the
t-coefficients are the exact t-derivatives (over j!) of the composite.  The
t-degree is read off the length of the coefficient axis; a jet of t-degree
0 is constant in t and meets a series as one.

Coefficients are ndarrays of shape ``(ncoeff, *batch)`` where the batch axes
typically hold evaluation points and tensor component indices.  All
operations broadcast over the batch, which is what makes whole-grid
evaluation cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import (
    BadAxisError,
    DomainError,
    SingularJetError,
    UnsupportedOrderError,
)

MAX_ORDER = 6


def _multi_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    # sorted by total degree then lexicographically, so a lower-order table
    # is a prefix of every higher-order one
    out = []
    for total in range(order + 1):
        level = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                level.append(prefix + (remaining,))
                return
            for k in range(remaining + 1):
                rec(prefix + (k,), remaining - k, slots - 1)

        rec((), total, dim)
        level.sort()
        out.extend(level)
    return out


def _product_indices(dim: int, order: int, q: int) -> list[tuple[int, ...]]:
    """Spatial multi-indices, each followed by its t-degrees 0..q (for q > 0
    the t-degree is a last entry), so truncating the spatial order keeps a
    prefix of the table."""
    spatial = _multi_indices(dim, order)
    return spatial if q == 0 else [a + (j,) for a in spatial for j in range(q + 1)]


@dataclass(frozen=True)
class JetTable:
    dim: int
    order: int
    q: int                        # degree in t; 0 for a jet constant in t
    alphas: np.ndarray            # (ncoeff, dim), (ncoeff, dim + 1) for q > 0
    index: dict
    mul_i: np.ndarray             # triples with alpha_i + alpha_j = alpha_k
    mul_j: np.ndarray
    mul_k: np.ndarray
    deriv_src: np.ndarray         # (dim, ncoeff_lower) gather indices
    deriv_fac: np.ndarray         # (dim, ncoeff_lower) factors beta_a + 1
    factorials: np.ndarray        # alpha! per coefficient

    @property
    def ncoeff(self) -> int:
        return len(self.alphas)


@lru_cache(maxsize=None)
def table(dim: int, order: int, q: int = 0) -> JetTable:
    """The jet table of spatial order ``order`` times t-degree ``q``."""
    if order > MAX_ORDER or order < 0:
        raise UnsupportedOrderError(f"jet order {order} outside 0..{MAX_ORDER}")
    if q > MAX_ORDER or q < 0:
        raise UnsupportedOrderError(f"t-degree {q} outside 0..{MAX_ORDER}")
    if dim not in (1, 2, 3, 4):
        raise BadAxisError(f"unsupported chart dimension {dim}")
    alphas = _product_indices(dim, order, q)
    index = {a: i for i, a in enumerate(alphas)}
    tri = []
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas):
            c = tuple(x + y for x, y in zip(a, b))
            k = index.get(c)
            if k is not None:
                tri.append((i, j, k))
    tri_arr = np.array(tri, dtype=np.intp)
    low = _product_indices(dim, order - 1, q) if order > 0 else []
    dsrc = np.zeros((dim, len(low)), dtype=np.intp)
    dfac = np.zeros((dim, len(low)))
    for a in range(dim):
        for p, beta in enumerate(low):
            up = list(beta)
            up[a] += 1
            dsrc[a, p] = index[tuple(up)]
            dfac[a, p] = beta[a] + 1
    facts = np.array(
        [math.prod(math.factorial(x) for x in al) for al in alphas], dtype=float
    )
    return JetTable(
        dim=dim,
        order=order,
        q=q,
        alphas=np.array(alphas, dtype=np.intp),
        index=index,
        mul_i=tri_arr[:, 0].copy() if len(tri) else np.zeros(0, dtype=np.intp),
        mul_j=tri_arr[:, 1].copy() if len(tri) else np.zeros(0, dtype=np.intp),
        mul_k=tri_arr[:, 2].copy() if len(tri) else np.zeros(0, dtype=np.intp),
        deriv_src=dsrc,
        deriv_fac=dfac,
        factorials=facts,
    )


class Jet:
    """Taylor coefficients of a field at a batch of points."""

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs: np.ndarray):
        self.dim = dim
        self.order = order
        self.coeffs = coeffs

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(value, dim: int, order: int, batch_shape: tuple = ()) -> "Jet":
        tb = table(dim, order)
        arr = np.asarray(value)
        dtype = np.result_type(arr.dtype, np.float64)
        c = np.zeros((tb.ncoeff,) + batch_shape, dtype=dtype)
        c[0] = arr
        return Jet(dim, order, c)

    @staticmethod
    def coordinate(axis: int, points: np.ndarray, dim: int, order: int) -> "Jet":
        """Jet of the coordinate function x_axis at ``points`` (npts, dim)."""
        if not (0 <= axis < dim):
            raise BadAxisError(f"axis {axis} out of range for dim {dim}")
        tb = table(dim, order)
        pts = np.asarray(points, dtype=float)
        c = np.zeros((tb.ncoeff, pts.shape[0]))
        c[0] = pts[:, axis]
        if order >= 1:
            unit = tuple(1 if a == axis else 0 for a in range(dim))
            c[tb.index[unit]] = 1.0
        return Jet(dim, order, c)

    @staticmethod
    def coordinates(points: np.ndarray, dim: int, order: int) -> list["Jet"]:
        return [Jet.coordinate(a, points, dim, order) for a in range(dim)]

    # -- basic accessors ---------------------------------------------------

    @property
    def value(self) -> np.ndarray:
        return self.coeffs[0]

    @property
    def batch_shape(self) -> tuple:
        return self.coeffs.shape[1:]

    @property
    def q(self) -> int:
        """Degree in t: the t-coefficients per spatial coefficient, less one."""
        return len(self.coeffs) // math.comb(self.dim + self.order, self.dim) - 1

    def partial(self, alpha: tuple) -> np.ndarray:
        """True partial derivative d^alpha at the base point (a series takes
        the t-degree as a last entry of ``alpha``)."""
        tb = table(self.dim, self.order, self.q)
        i = tb.index.get(tuple(alpha))
        if i is None:
            raise UnsupportedOrderError(f"multi-index {alpha} beyond order {self.order}")
        return self.coeffs[i] * tb.factorials[i]

    def truncate(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        tb = table(self.dim, order, self.q)
        return Jet(self.dim, order, self.coeffs[: tb.ncoeff])

    def copy(self) -> "Jet":
        return Jet(self.dim, self.order, self.coeffs.copy())

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = _pair(self, other)
            return Jet(self.dim, a.order, a.coeffs + b.coeffs)
        arr = np.asarray(other)
        out = self.coeffs.astype(np.result_type(self.coeffs.dtype, arr.dtype), copy=True)
        out[0] = out[0] + arr
        return Jet(self.dim, self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.dim, self.order, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, other)
        return Jet(self.dim, self.order, self.coeffs * np.asarray(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, reciprocal(other))
        return Jet(self.dim, self.order, self.coeffs / np.asarray(other))

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def __pow__(self, p):
        return power(self, p)

    # -- differentiation ----------------------------------------------------

    def derivative(self, axis: int) -> "Jet":
        """Jet of d/dx_axis, one order lower (spatial axes only)."""
        if self.order == 0:
            raise UnsupportedOrderError("cannot differentiate an order-0 jet")
        tb = table(self.dim, self.order, self.q)
        src = tb.deriv_src[axis]
        fac = tb.deriv_fac[axis].reshape((-1,) + (1,) * len(self.batch_shape))
        return Jet(self.dim, self.order - 1, self.coeffs[src] * fac)

    def gradient(self) -> "Jet":
        """Stack of coordinate derivatives; adds a trailing axis of size dim.

        Output batch shape is ``batch + (dim,)`` so the derivative slot sits
        after the point axis, matching the tensor-component layout used by
        the geometry layer (the slot is moved up front by callers as needed).
        """
        if self.order == 0:
            raise UnsupportedOrderError("cannot differentiate an order-0 jet")
        tb = table(self.dim, self.order, self.q)
        parts = []
        for a in range(self.dim):
            src = tb.deriv_src[a]
            fac = tb.deriv_fac[a].reshape((-1,) + (1,) * len(self.batch_shape))
            parts.append(self.coeffs[src] * fac)
        return Jet(self.dim, self.order - 1, np.stack(parts, axis=-1))


@lru_cache(maxsize=None)
def _antigradient_plan(dim: int, order: int, q: int) -> tuple:
    """For every coefficient of spatial degree >= 1 of the order-``order``
    table: the first axis a with alpha_a > 0, the index of alpha - e_a in the
    table one order lower, and alpha_a."""
    tb, low = table(dim, order, q), table(dim, order - 1, q)
    axes, src, fac = [], [], []
    for alpha in tb.alphas[q + 1:].tolist():
        a = next(i for i in range(dim) if alpha[i])
        beta = list(alpha)
        beta[a] -= 1
        axes.append(a)
        src.append(low.index[tuple(beta)])
        fac.append(float(alpha[a]))
    return np.array(axes, dtype=np.intp), np.array(src, dtype=np.intp), np.array(fac)


def antigradient(base: Jet, grad: Jet) -> Jet:
    """The jet one order above ``grad`` whose spatial-degree-0 coefficients
    (all t-coefficients of a series of ``grad``'s t-degree) are those of
    ``base`` and whose gradient is ``grad``: the inverse of
    :meth:`Jet.gradient` for a ``grad`` that is one.  A coefficient alpha is
    read off the derivative along the first axis a with alpha_a > 0, as
    grad_a[alpha - e_a] / alpha_a, so each coefficient depends only on lower
    ones and the result truncates to the one built from ``grad`` truncated."""
    order = grad.order + 1
    axes, src, fac = _antigradient_plan(grad.dim, order, grad.q)
    body = np.moveaxis(grad.coeffs, -1, 0)[axes, src]
    body = body / fac.reshape((-1,) + (1,) * (body.ndim - 1))
    return Jet(grad.dim, order, np.concatenate([base.truncate(0).coeffs, body]))


def _common(*js: Jet) -> list[Jet]:
    """The jets at their lowest spatial order and a common t-degree: a jet
    constant in t takes the series' degree, series meet at the lowest."""
    k = min(j.order for j in js)
    js = [j.truncate(k) for j in js]
    if any(len(j.coeffs) != len(js[0].coeffs) for j in js):
        q = min(j.q for j in js if j.q)
        js = [with_tdegree(j, q) for j in js]
    return js


def _pair(a: Jet, b: Jet) -> tuple[Jet, Jet]:
    """``_common`` of two jets."""
    if a.order != b.order:
        k = min(a.order, b.order)
        a, b = a.truncate(k), b.truncate(k)
    if len(a.coeffs) != len(b.coeffs):
        a, b = _common(a, b)
    return a, b


def _by_tdegree(a: Jet) -> np.ndarray:
    """The coefficients as (spatial, t-degree, *batch)."""
    return a.coeffs.reshape((-1, a.q + 1) + a.batch_shape)


def with_tdegree(a: Jet, q: int) -> Jet:
    """``a`` as a series of t-degree ``q``: higher t-coefficients dropped,
    missing ones zero."""
    qa = a.q
    if qa == q:
        return a
    c = _by_tdegree(a)
    if q < qa:
        c = c[:, :q + 1]
    else:
        c = np.concatenate([c, np.zeros((len(c), q - qa) + a.batch_shape, c.dtype)], axis=1)
    return Jet(a.dim, a.order, c.reshape((-1,) + a.batch_shape))


def series(parts: list[Jet]) -> Jet:
    """sum_j parts[j] t^j, a series of t-degree len(parts) - 1 from jets
    constant in t."""
    if len(parts) == 1:
        return parts[0]
    parts = _common(*parts)
    c = np.stack([p.coeffs for p in parts], axis=1)
    return Jet(parts[0].dim, parts[0].order, c.reshape((-1,) + c.shape[2:]))


def tcoeff(a: Jet, j: int) -> Jet:
    """The coefficient of t^j of a series, a jet constant in t."""
    if j > a.q:
        return Jet(a.dim, a.order, np.zeros((len(a.coeffs) // (a.q + 1),) + a.batch_shape,
                                            a.coeffs.dtype))
    return Jet(a.dim, a.order, np.ascontiguousarray(_by_tdegree(a)[:, j]))


def tintegral(a: Jet) -> Jet:
    """The integral of ``a`` from t = 0, a series of one t-degree more."""
    c = _by_tdegree(a)
    out = np.zeros((len(c), a.q + 2) + a.batch_shape, c.dtype)
    out[:, 1:] = c / np.arange(1.0, a.q + 2).reshape((1, -1) + (1,) * len(a.batch_shape))
    return Jet(a.dim, a.order, out.reshape((-1,) + a.batch_shape))


# -- truncated-Taylor convolution ------------------------------------------
#
# out[k] = sum over the table's triples (i, j, k) of contract(a[i], b[j]).
# The triples of one output coefficient are added in table order (i-major,
# then j), starting from 0.0; a product of operands known to vanish below
# some total degree leaves out the pairs below it, which add exact zeros
# (see _rank_plan).  "Rank" r of the convolution holds the r-th
# pair of every coefficient that has more than r of them; the coefficients
# are kept in descending order of their pair count, so the coefficients of
# rank r are a prefix of those of rank r - 1 and accumulating rank by rank
# only ever adds into a leading slice.  One gather at the end restores the
# table's coefficient order.


class _RankPlan(NamedTuple):
    src_i: np.ndarray       # rank-major gather indices into the first factor
    src_j: np.ndarray       # ... and into the second factor
    widths: tuple           # coefficients covered by each rank, non-increasing
    restore: np.ndarray     # rank order -> table order of the coefficients


@lru_cache(maxsize=None)
def _rank_plan(dim: int, order: int, q: int, low_a: int = 0, low_b: int = 0) -> _RankPlan:
    """The rank plan of the table's triples, less the pairs whose first factor
    has total degree (spatial plus t) below ``low_a`` or whose second has one
    below ``low_b``: operands that vanish there contribute exact zeros.  A
    coefficient left without a pair takes the pair (0, 0), an exact zero
    once either bound is positive, so rank 0 still covers every coefficient
    and the result needs no buffer of its own."""
    tb = table(dim, order, q)
    deg = tb.alphas.sum(axis=1).tolist()
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(tb.ncoeff)]
    for i, j, k in zip(tb.mul_i.tolist(), tb.mul_j.tolist(), tb.mul_k.tolist()):
        if deg[i] >= low_a and deg[j] >= low_b:
            pairs[k].append((i, j))
    for p in pairs:
        if not p:
            p.append((0, 0))
    by_count = sorted(range(tb.ncoeff), key=lambda k: -len(pairs[k]))
    widths = tuple(sum(len(p) > r for p in pairs)
                   for r in range(len(pairs[by_count[0]])))
    src = [pairs[k][r] for r, w in enumerate(widths) for k in by_count[:w]]
    return _RankPlan(
        src_i=np.array([i for i, _ in src], dtype=np.intp),
        src_j=np.array([j for _, j in src], dtype=np.intp),
        widths=widths,
        restore=np.argsort(np.array(by_count, dtype=np.intp)),
    )


def _convolve(dim: int, order: int, q: int, a: np.ndarray, b: np.ndarray, contract,
              lows: tuple = (0, 0)) -> np.ndarray:
    """Rank-ordered convolution of coefficient arrays ``a`` and ``b``.

    ``contract(x, y)`` maps stacks of coefficients to stacks of products and
    may overwrite ``x``, which is always a fresh copy.  ``lows`` are the
    lowest total degrees at which ``a`` and ``b`` can be non-zero (see
    :func:`_rank_plan`).  The result is in rank order; see
    :func:`_table_order`.
    """
    plan = _rank_plan(dim, order, q, *lows)
    prods = contract(a.take(plan.src_i, 0), b.take(plan.src_j, 0))
    acc = prods[:plan.widths[0]]
    acc += 0.0                              # 0.0 + p: the sum starts at 0.0
    at = plan.widths[0]
    for w in plan.widths[1:]:
        lead = acc[:w]                      # a view: += writes in place
        lead += prods[at:at + w]
        at += w
    return acc


def _table_order(dim: int, order: int, q: int, acc: np.ndarray,
                 lows: tuple = (0, 0)) -> np.ndarray:
    """A C-contiguous copy of rank-ordered coefficients in table order."""
    return acc.take(_rank_plan(dim, order, q, *lows).restore, 0)


def _multiply(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.shape == y.shape and x.dtype == y.dtype:
        return np.multiply(x, y, out=x)
    return x * y


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Product of two jets with identical batch shapes (Leibniz-exact)."""
    return _mul(a, b)


def _mul(a: Jet, b: Jet, lows: tuple = (0, 0)) -> Jet:
    """``jet_mul``, skipping the pairs below the lowest total degrees
    ``lows`` at which ``a`` and ``b`` can be non-zero: bit-identical for
    finite input, since every skipped term is an exact zero and the kept
    ones are added in the same order.  Products of increments (jets with no
    constant term) pass their degrees here."""
    a, b = _pair(a, b)
    k, q = a.order, a.q
    acc = _convolve(a.dim, k, q, a.coeffs, b.coeffs, _multiply, lows)
    return Jet(a.dim, k, _table_order(a.dim, k, q, acc, lows))


class _Contraction(NamedTuple):
    """One ``jet_einsum`` spec at given operand shapes, as a batched
    contraction: each operand transposed to groups of labels, batch labels
    first, with one axis per group; the result comes out as (batch, free-a,
    free-b)."""
    perm_a: tuple | None    # coefficient-axis-first transposes; None: identity
    perm_b: tuple | None
    shape_a: tuple          # size of each label group
    shape_b: tuple
    kernel: object
    natural: tuple          # result sizes per label, (batch, free-a, free-b)
    to_out: tuple | None    # transpose of the natural result into the spec's


def _perm_or_none(perm: tuple) -> tuple | None:
    return None if perm == tuple(range(len(perm))) else perm


@lru_cache(maxsize=4096)
def _contraction(spec: str, batch_a: tuple, batch_b: tuple) -> _Contraction | None:
    lhs, rhs = spec.split("->")
    s1, s2 = lhs.split(",")
    if any(len(set(s)) != len(s) for s in (s1, s2, rhs)) or set(rhs) - set(s1 + s2) \
            or (set(s1) ^ set(s2)) - set(rhs) or len(batch_a) != len(s1) \
            or len(batch_b) != len(s2):
        return None           # traces, one-sided sums: left to einsum
    sizes = dict(zip(s1, batch_a))
    if any(sizes.setdefault(c, n) != n for c, n in zip(s2, batch_b)):
        return None           # broadcasting: left to einsum
    batch = [c for c in s1 if c in s2 and c in rhs]
    contracted = [c for c in s1 if c in s2 and c not in rhs]
    free_a = [c for c in s1 if c not in s2]
    free_b = [c for c in s2 if c not in s1]

    def size(group):
        return math.prod(sizes[c] for c in group)

    m, k, n = size(free_a), size(contracted), size(free_b)
    if k == 1 or (m > 1 and n > 1):
        # with nothing contracted, (m, 1) times (1, n) is a plain product
        kernel = _multiply if k == 1 else np.matmul
        groups_a, groups_b = (batch, free_a, contracted), (batch, contracted, free_b)
    else:
        # a matrix-vector product, where einsum is faster than np.matmul;
        # the matrix keeps its own order of free and contracted labels
        mat, free = (s2, free_b) if m == 1 else (s1, free_a)
        contracted = [c for c in mat if c in contracted]
        rows_first = next(c for c in mat if c not in batch) in free
        mat_groups = (batch, free, contracted) if rows_first else (batch, contracted, free)
        mat_sub = "...fk" if rows_first else "...kf"
        if m == 1:
            groups_a, groups_b = (batch, contracted), mat_groups
            kernel = partial(np.einsum, f"...k,{mat_sub}->...f")
        else:
            groups_a, groups_b = mat_groups, (batch, contracted)
            kernel = partial(np.einsum, f"{mat_sub},...k->...f")

    def perm(labels, groups):
        return _perm_or_none((0,) + tuple(1 + labels.index(c) for g in groups for c in g))

    natural = batch + free_a + free_b
    return _Contraction(
        perm(s1, groups_a), perm(s2, groups_b), tuple(size(g) for g in groups_a),
        tuple(size(g) for g in groups_b), kernel, tuple(sizes[c] for c in natural),
        _perm_or_none((0,) + tuple(1 + natural.index(c) for c in rhs)))


def _arrange(x: np.ndarray, perm, shape) -> np.ndarray:
    if perm is not None:
        x = x.transpose(perm)
    return x.reshape(x.shape[:1] + shape)


def jet_einsum(spec: str, a: Jet, b: Jet) -> Jet:
    """einsum over tensor axes combined with jet-convolution.

    ``spec`` addresses only the batch/tensor axes, e.g. ``'pij,pjk->pik'``;
    the coefficient axis is handled internally.
    """
    return _einsum(spec, a, b)


def _einsum(spec: str, a: Jet, b: Jet, lows: tuple = (0, 0)) -> Jet:
    """``jet_einsum`` with the lowest total degrees ``lows`` of ``a`` and
    ``b``, as in :func:`_mul`."""
    a, b = _pair(a, b)
    k, q = a.order, a.q
    c = _contraction(spec, a.coeffs.shape[1:], b.coeffs.shape[1:])
    if c is None:
        lhs, rhs = spec.split("->")
        s1, s2 = lhs.split(",")
        stacked = f"Y{s1},Y{s2}->Y{rhs}"
        acc = _convolve(a.dim, k, q, a.coeffs, b.coeffs,
                        lambda x, y: np.einsum(stacked, x, y), lows)
        return Jet(a.dim, k, _table_order(a.dim, k, q, acc, lows))
    x = _arrange(a.coeffs, c.perm_a, c.shape_a)
    y = _arrange(b.coeffs, c.perm_b, c.shape_b)
    acc = _convolve(a.dim, k, q, x, y, c.kernel, lows)
    acc = acc.reshape(acc.shape[:1] + c.natural)
    if c.to_out is not None:
        acc = acc.transpose(c.to_out)
    return Jet(a.dim, k, _table_order(a.dim, k, q, acc, lows))


@lru_cache(maxsize=None)
def _linear_matmul(spec: str) -> tuple | None:
    """``(jet_on_left, transpose_mat)`` when ``jet_linear``'s spec is a
    matrix product over the last two labels, with the constant's leading
    labels (if any) those of the jet; None otherwise."""
    lhs, rhs = spec.split("->")
    s1, s2 = lhs.split(",")
    if any(len(set(s)) != len(s) for s in (s1, s2, rhs)) or len(s1) < 2 \
            or len(s2) < 2 or len(rhs) != len(s2) or rhs[:-2] != s2[:-2] \
            or s1[:-2] not in ("", s2[:-2]):
        return None
    (i, j), (x, y), mat = rhs[-2:], s2[-2:], s1[-2:]
    if y == j and x not in rhs:         # mat[i, x] a[x, j]
        jet_on_left, wanted = False, (i, x)
    elif x == i and y not in rhs:       # a[i, y] mat[y, j]
        jet_on_left, wanted = True, (y, j)
    else:
        return None
    if mat not in ("".join(wanted), "".join(wanted[::-1])):
        return None
    return jet_on_left, mat != "".join(wanted)


def jet_linear(spec: str, mat: np.ndarray, a: Jet) -> Jet:
    """Contract a constant array against a jet, coefficient-wise."""
    plan = _linear_matmul(spec)
    if plan is not None:
        jet_on_left, transpose = plan
        m = np.swapaxes(mat, -1, -2) if transpose else mat
        out = np.matmul(a.coeffs, m) if jet_on_left else np.matmul(m, a.coeffs)
        return Jet(a.dim, a.order, out)
    lhs, rhs = spec.split("->")
    s1, s2 = lhs.split(",")
    out = np.einsum(f"{s1},Z{s2}->Z{rhs}", mat, a.coeffs)
    return Jet(a.dim, a.order, out)


def jet_map(spec: str, a: Jet) -> Jet:
    """Pure index reshuffle/trace of the tensor axes (linear, exact)."""
    lhs, rhs = spec.split("->")
    out = np.einsum(f"Z{lhs}->Z{rhs}", a.coeffs)
    return Jet(a.dim, a.order, out)


def jet_stack(jets: list[Jet], axis: int = 1) -> Jet:
    """Stack jets along a new batch axis (axis counted with the coeff axis)."""
    jets = _common(*jets)
    return Jet(jets[0].dim, jets[0].order, np.stack([j.coeffs for j in jets], axis=axis))


# -- univariate composition ----------------------------------------------


def _depth(a: Jet) -> int:
    """The power at which the increment a - a.value vanishes, less one."""
    return a.order + a.q


def _compose(a: Jet, outer: np.ndarray) -> Jet:
    """Evaluate sum_k outer[k] * (a - a.value)^k in jet arithmetic.

    ``outer`` has shape (depth+1, *batch) holding g^(k)(a0)/k!.  Exact to the
    truncation order because the inner increment has no constant term.
    """
    k = len(outer) - 1
    if k == 0:
        return Jet.const(0.0, a.dim, a.order, a.batch_shape) + outer[0]
    w = a.copy()
    w.coeffs = w.coeffs.astype(np.result_type(w.coeffs.dtype, outer.dtype), copy=True)
    w.coeffs[0] = 0.0
    # the first Horner step, the constant outer[k] times w, as a scaling;
    # + 0.0 makes its zeros those of a product's sums, which start at 0.0
    acc = Jet(a.dim, a.order, w.coeffs * outer[k] + 0.0)
    acc.coeffs[0] = acc.coeffs[0] + outer[k - 1]
    for j in range(k - 2, -1, -1):
        acc = _mul(acc, w, (0, 1))
        acc.coeffs[0] = acc.coeffs[0] + outer[j]
    return acc


def _outer_table(a: Jet, derivs) -> np.ndarray:
    """Stack g^(k)(a0)/k! for k = 0..depth."""
    rows = [np.asarray(derivs[k]) / math.factorial(k) for k in range(_depth(a) + 1)]
    return np.stack([np.broadcast_to(r, a.batch_shape).copy() for r in rows])


def exp(a: Jet) -> Jet:
    e = np.exp(a.value)
    return _compose(a, _outer_table(a, [e] * (_depth(a) + 1)))


def log(a: Jet) -> Jet:
    v = a.value
    if np.any(np.real(v) <= 0):
        raise DomainError("log of non-positive jet value")
    derivs = [np.log(v)]
    for k in range(1, _depth(a) + 1):
        derivs.append(((-1.0) ** (k + 1)) * math.factorial(k - 1) / v**k)
    return _compose(a, _outer_table(a, derivs))


def sqrt(a: Jet) -> Jet:
    v = a.value
    if np.any(np.real(v) <= 0):
        raise DomainError("sqrt of non-positive jet value")
    derivs, c = [np.sqrt(v)], 0.5
    for k in range(1, _depth(a) + 1):
        derivs.append(c * v ** (0.5 - k))
        c *= 0.5 - k
    return _compose(a, _outer_table(a, derivs))


def sin(a: Jet) -> Jet:
    s, c = np.sin(a.value), np.cos(a.value)
    cycle = [s, c, -s, -c]
    return _compose(a, _outer_table(a, [cycle[k % 4] for k in range(_depth(a) + 1)]))


def cos(a: Jet) -> Jet:
    s, c = np.sin(a.value), np.cos(a.value)
    cycle = [c, -s, -c, s]
    return _compose(a, _outer_table(a, [cycle[k % 4] for k in range(_depth(a) + 1)]))


def reciprocal(a: Jet) -> Jet:
    v = a.value
    if np.any(np.abs(v) < 1e-300):
        raise SingularJetError("division by a jet with vanishing value")
    derivs = [1.0 / v]
    for k in range(1, _depth(a) + 1):
        derivs.append(((-1.0) ** k) * math.factorial(k) / v ** (k + 1))
    return _compose(a, _outer_table(a, derivs))


def power(a: Jet, p) -> Jet:
    if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
        p = int(p)
        if p == 0:
            return Jet.const(1.0, a.dim, a.order, a.batch_shape)
        base = a if p > 0 else reciprocal(a)
        out = base
        for _ in range(abs(p) - 1):
            out = jet_mul(out, base)
        return out
    v = a.value
    if np.any(np.real(v) <= 0):
        raise DomainError("fractional power of non-positive jet value")
    derivs, c = [v**p], float(p)
    for k in range(1, _depth(a) + 1):
        derivs.append(c * v ** (p - k))
        c *= p - k
    return _compose(a, _outer_table(a, derivs))
