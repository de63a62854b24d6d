import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kahlercheck import jets
from kahlercheck.errors import (
    BadAxisError,
    DomainError,
    SingularJetError,
    UnsupportedOrderError,
)
from kahlercheck.jets import Jet


def test_const_jet():
    j = Jet.const(1.0, 2, 2)
    assert j.value == 1.0
    assert j.partial((1, 0)) == 0.0
    assert j.partial((0, 2)) == 0.0
    z = Jet.const(0.0, 4, 4)
    assert np.all(z.coeffs == 0.0)
    p = Jet.const(math.pi, 2, 0)
    assert p.coeffs.shape == (1,)
    assert p.value == math.pi


def test_const_order_guard():
    with pytest.raises(UnsupportedOrderError):
        Jet.const(1.0, 2, jets.MAX_ORDER + 1)


def test_coordinate_jet():
    pts = np.array([[0.3, 0.7]])
    j = Jet.coordinate(0, pts, 2, 2)
    assert j.value[0] == 0.3
    assert j.partial((1, 0))[0] == 1.0
    assert j.partial((0, 1))[0] == 0.0
    k = Jet.coordinate(1, pts, 2, 1)
    assert k.value[0] == 0.7
    assert k.partial((0, 1))[0] == 1.0
    j0 = Jet.coordinate(0, pts, 2, 0)
    assert j0.coeffs.shape == (1, 1)
    with pytest.raises(BadAxisError):
        Jet.coordinate(2, pts, 2, 2)


def test_polynomial_derivative():
    pts = np.array([[3.0, 0.0]])
    x, _ = Jet.coordinates(pts, 2, 2)
    f = x * x
    assert abs(f.partial((1, 0))[0] - 6.0) < 1e-14
    assert abs(f.partial((2, 0))[0] - 2.0) < 1e-14


def test_sin_cos_product_matches_closed_form():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(7, 2))
    x, y = Jet.coordinates(pts, 2, 4)
    f = jets.sin(2 * math.pi * x) * jets.cos(2 * math.pi * y)
    w = 2 * math.pi
    sx, cx = np.sin(w * pts[:, 0]), np.cos(w * pts[:, 0])
    sy, cy = np.sin(w * pts[:, 1]), np.cos(w * pts[:, 1])
    assert np.allclose(f.value, sx * cy, atol=1e-14)
    assert np.allclose(f.partial((1, 0)), w * cx * cy, atol=1e-12)
    assert np.allclose(f.partial((0, 1)), -w * sx * sy, atol=1e-12)
    assert np.allclose(f.partial((1, 1)), -w * w * cx * sy, atol=1e-11)
    assert np.allclose(f.partial((2, 2)), w**4 * sx * cy, atol=1e-9)
    assert np.allclose(f.partial((3, 1)), w**4 * cx * sy, atol=1e-9)


def test_exp_of_zero_jet():
    j = jets.exp(Jet.const(0.0, 2, 3))
    expected = Jet.const(1.0, 2, 3)
    assert np.allclose(j.coeffs, expected.coeffs, atol=1e-16)


def test_division_and_log_guards():
    pts = np.array([[0.25, 0.5]])
    x, _ = Jet.coordinates(pts, 2, 3)
    with pytest.raises(DomainError):
        jets.log(x - 1.0)
    with pytest.raises(DomainError):
        jets.sqrt(-1.0 * x)
    with pytest.raises(SingularJetError):
        _ = x / (x - 0.25)


def test_central_difference_convergence_order():
    # jet partials must match central differences of each primitive at O(h^2)
    rng = np.random.default_rng(1)
    p = rng.uniform(0.3, 0.8, size=(1, 2))

    def field(px, py):
        x = Jet.coordinate(0, np.array([[px, py]]), 2, 1)
        y = Jet.coordinate(1, np.array([[px, py]]), 2, 1)
        return jets.exp(jets.sin(2 * x) * jets.cos(y)) + jets.sqrt(x + 2.0) / (y + 1.5)

    base = field(p[0, 0], p[0, 1])
    exact = base.partial((1, 0))[0]
    errs = []
    hs = [1e-2, 5e-3, 2.5e-3]
    for h in hs:
        fd = (field(p[0, 0] + h, p[0, 1]).value[0] - field(p[0, 0] - h, p[0, 1]).value[0]) / (2 * h)
        errs.append(abs(fd - exact))
    order = np.log(errs[0] / errs[2]) / np.log(hs[0] / hs[2])
    assert order > 1.9


def _poly_mul(pa: dict, pb: dict) -> dict:
    out = {}
    for ka, va in pa.items():
        for kb, vb in pb.items():
            key = (ka[0] + kb[0], ka[1] + kb[1])
            out[key] = out.get(key, 0.0) + va * vb
    return out


def _poly_partial(p: dict, alpha: tuple) -> dict:
    out = p
    for axis, n in enumerate(alpha):
        for _ in range(n):
            nxt = {}
            for (i, j), c in out.items():
                e = (i, j)[axis]
                if e > 0:
                    key = (i - 1, j) if axis == 0 else (i, j - 1)
                    nxt[key] = nxt.get(key, 0.0) + c * e
            out = nxt
    return out


def _poly_eval(p: dict, x: float, y: float) -> float:
    return sum(c * x**i * y**j for (i, j), c in p.items())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-2, 2), min_size=6, max_size=6),
    st.lists(st.floats(-2, 2), min_size=6, max_size=6),
)
def test_product_exact_on_polynomials(ca, cb):
    # degree-2 polys in 2 vars; order-4 jet of their product must be exact
    px, py = 0.37, -0.22
    pts = np.array([[px, py]])
    x, y = Jet.coordinates(pts, 2, 4)

    def poly(c):
        return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

    prod = poly(ca) * poly(cb)
    key = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (2, 0): 3, (1, 1): 4, (0, 2): 5}
    pa = {k: ca[i] for k, i in key.items()}
    pb = {k: cb[i] for k, i in key.items()}
    truth = _poly_mul(pa, pb)
    scale = max(1.0, max(abs(v) for v in truth.values()))
    for alpha in [(0, 0), (1, 0), (0, 1), (2, 1), (2, 2), (4, 0), (1, 3)]:
        exact = _poly_eval(_poly_partial(truth, alpha), px, py)
        assert abs(prod.partial(alpha)[0] - exact) < 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 1.2), st.floats(0.1, 1.2))
def test_chain_rule_associativity(a, b):
    pts = np.array([[a, b]])
    x, y = Jet.coordinates(pts, 2, 4)
    inner = x * y + 0.5
    # f(g(h)) grouped two ways
    left = jets.log(jets.exp(jets.sqrt(inner)))
    right = jets.sqrt(inner)
    assert np.allclose(left.coeffs, right.coeffs, atol=1e-13)


def test_gradient_stacking():
    pts = np.array([[0.2, 0.4], [0.6, 0.1]])
    x, y = Jet.coordinates(pts, 2, 3)
    f = x * x * y
    g = f.gradient()
    assert g.batch_shape == (2, 2)
    assert np.allclose(g.value[:, 0], 2 * pts[:, 0] * pts[:, 1])
    assert np.allclose(g.value[:, 1], pts[:, 0] ** 2)


def test_jet_einsum_matmul():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(5, 2))
    x, y = Jet.coordinates(pts, 2, 2)
    a11 = jets.sin(x)
    a12 = jets.cos(y)
    A = jets.jet_stack([jets.jet_stack([a11, a12], axis=2),
                        jets.jet_stack([a12, a11], axis=2)], axis=2)
    B = jets.jet_einsum("pij,pjk->pik", A, A)
    manual = a11 * a11 + a12 * a12
    assert np.allclose(B.coeffs[:, :, 0, 0], manual.coeffs, atol=1e-14)


def test_complex_coefficients():
    pts = np.array([[0.3, 0.9]])
    x, y = Jet.coordinates(pts, 2, 2)
    u = x * 1.0 + y * 1j
    sq = u * u
    assert np.allclose(sq.value, (0.3 + 0.9j) ** 2)
    assert np.allclose(sq.partial((1, 0)), 2 * (0.3 + 0.9j))


def test_integer_power_negative_base():
    pts = np.array([[-1.5, 0.0]])
    x, _ = Jet.coordinates(pts, 2, 3)
    f = x**3
    assert np.allclose(f.value, -3.375)
    assert np.allclose(f.partial((1, 0)), 3 * 2.25)
    g = x ** (-2)
    assert np.allclose(g.value, 1 / 2.25)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 3.0), st.floats(-1.0, 1.0))
def test_exp_log_inverse_property(a, b):
    pts = np.array([[a, b]])
    x, y = Jet.coordinates(pts, 2, 4)
    f = x * x + jets.cos(y) + 1.5
    back = jets.exp(jets.log(f))
    assert np.allclose(back.coeffs, f.coeffs, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_leibniz_property(a, b):
    pts = np.array([[a, b]])
    x, y = Jet.coordinates(pts, 2, 3)
    f = jets.sin(x) + y * y
    g = jets.cos(y) * x
    prod = f * g
    lhs = prod.derivative(0)
    rhs = f.derivative(0) * g.truncate(2) + f.truncate(2) * g.derivative(0)
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)


def test_sin_exp_product_composition():
    # d/dx of sin(x) exp(y) is cos(x) exp(y), and d/dy leaves it unchanged
    pts = np.array([[0.4, 0.2]])
    x, y = Jet.coordinates(pts, 2, 2)
    out = jets.jet_mul(jets.sin(x), jets.exp(y))
    assert np.allclose(out.value, np.sin(0.4) * np.exp(0.2))
    assert np.allclose(out.derivative(0).value, np.cos(0.4) * np.exp(0.2))
    assert np.allclose(out.derivative(1).value, out.value)
    assert np.allclose(out.coeffs, (jets.sin(x) * jets.exp(y)).coeffs)


# -- the convolution kernel against the scatter formulation -----------------


def _scatter_mul(a, b):
    """Reference product: every triple of the table scattered with np.add.at."""
    k = min(a.order, b.order)
    a, b = a.truncate(k), b.truncate(k)
    tb = jets.table(a.dim, k)
    prods = a.coeffs[tb.mul_i] * b.coeffs[tb.mul_j]
    out = np.zeros_like(a.coeffs, dtype=np.result_type(a.coeffs, b.coeffs))
    np.add.at(out, tb.mul_k, prods)
    return out


def _scatter_einsum(spec, a, b):
    k = min(a.order, b.order)
    a, b = a.truncate(k), b.truncate(k)
    tb = jets.table(a.dim, k)
    lhs, rhs = spec.split("->")
    s1, s2 = lhs.split(",")
    prods = np.einsum(f"Y{s1},Y{s2}->Y{rhs}", a.coeffs[tb.mul_i], b.coeffs[tb.mul_j])
    out = np.zeros((tb.ncoeff,) + prods.shape[1:], dtype=prods.dtype)
    np.add.at(out, tb.mul_k, prods)
    return out


def _random_jet(rng, dim, order, shape, dtype=float):
    c = rng.standard_normal((jets.table(dim, order).ncoeff,) + shape)
    if dtype is complex:
        c = c + 1j * rng.standard_normal(c.shape)
    return Jet(dim, order, c)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("dtype", [float, complex])
def test_jet_mul_bit_identical_to_scatter(dim, order, dtype):
    rng = np.random.default_rng(10 * dim + order)
    for shape in [(7,), (5, 3), (0,)]:
        a = _random_jet(rng, dim, order, shape, dtype)
        for b in (_random_jet(rng, dim, order, shape, dtype),
                  _random_jet(rng, dim, order, shape, float)):
            got = jets.jet_mul(a, b).coeffs
            ref = _scatter_mul(a, b)
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()
    # signed zeros: the sum starts at +0.0 in both
    z = Jet(dim, order, -np.zeros((jets.table(dim, order).ncoeff, 3)))
    assert jets.jet_mul(z, z).coeffs.tobytes() == _scatter_mul(z, z).tobytes()


ENGINE_SPECS = [
    ("pik,pkj->pij", (6, 4, 4), (6, 4, 4)),           # matrix product
    ("pki,pkj->pij", (6, 4, 4), (6, 4, 4)),           # transposed operand
    ("pia,pij->paj", (6, 4, 3), (6, 4, 2)),
    ("pij,pj->pi", (6, 4, 4), (6, 4)),                # matvec
    ("pi,pij->pj", (6, 4), (6, 4, 4)),
    ("pcab,pc->pab", (6, 4, 3, 2), (6, 4)),
    ("pij,pij->p", (6, 4, 4), (6, 4, 4)),             # full contraction
    ("pi,pi->p", (6, 4), (6, 4)),
    ("p,pij->pij", (6,), (6, 4, 4)),                  # pure broadcast
    ("p,p->p", (6,), (6,)),
    ("pikq,pqlj->pijkl", (6, 4, 3, 2), (6, 2, 4, 3)),  # 4-index contraction
    ("pkda,pkbc->pdabc", (6, 2, 3, 2), (6, 2, 3, 2)),
]


@pytest.mark.parametrize("spec,sa,sb", ENGINE_SPECS)
@pytest.mark.parametrize("dim,order", [(2, 4), (4, 2), (4, 3), (4, 0)])
def test_jet_einsum_matches_scatter(spec, sa, sb, dim, order):
    rng = np.random.default_rng(len(spec) + order)
    for dtype in (float, complex):
        a = _random_jet(rng, dim, order, sa, dtype)
        b = _random_jet(rng, dim, min(order + 1, jets.MAX_ORDER), sb)
        got = jets.jet_einsum(spec, a, b)
        ref = _scatter_einsum(spec, a, b)
        assert got.order == order and got.coeffs.shape == ref.shape
        assert got.coeffs.dtype == ref.dtype and got.coeffs.flags.c_contiguous
        assert np.max(np.abs(got.coeffs - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_jet_einsum_broadcast_and_fallback_specs():
    rng = np.random.default_rng(8)
    a, b = _random_jet(rng, 4, 3, (1, 4, 4)), _random_jet(rng, 4, 3, (5, 4, 4))
    assert np.allclose(jets.jet_einsum("pik,pkj->pij", a, b).coeffs,
                       _scatter_einsum("pik,pkj->pij", a, b), rtol=0, atol=1e-13)
    # a trace inside one operand has no batched-matmul form
    c = _random_jet(rng, 2, 3, (5, 3, 3))
    d = _random_jet(rng, 2, 3, (5,))
    assert np.allclose(jets.jet_einsum("pii,p->p", c, d).coeffs,
                       _scatter_einsum("pii,p->p", c, d), rtol=0, atol=1e-13)
    e = jets.jet_einsum("pij,pj->pi", _random_jet(rng, 2, 2, (0, 2, 2)),
                        _random_jet(rng, 2, 2, (0, 2)))
    assert e.coeffs.shape == (6, 0, 2)


@pytest.mark.parametrize("spec,sm,sa,matmul", [
    ("pik,pkj->pij", (6, 4, 4), (6, 4, 4), True),     # inverse_and_logdet
    ("pkj,pik->pij", (6, 4, 4), (6, 4, 4), True),
    ("kj,pik->pij", (2, 2), (6, 2, 2), True),         # backends
    ("ki,pkj->pij", (2, 2), (6, 2, 2), True),
    ("ij,p->pij", (4, 4), (6,), False),               # outer product
    ("pii,pij->pij", (6, 4, 4), (6, 4, 4), False),    # trace of the constant
])
def test_jet_linear_matches_einsum(spec, sm, sa, matmul):
    rng = np.random.default_rng(len(spec))
    assert (jets._linear_matmul(spec) is not None) == matmul
    lhs, rhs = spec.split("->")
    s1, s2 = lhs.split(",")
    mat = rng.standard_normal(sm)
    for dtype in (float, complex):
        a = _random_jet(rng, 2, 3, sa, dtype)
        got = jets.jet_linear(spec, mat, a)
        ref = np.einsum(f"{s1},Z{s2}->Z{rhs}", mat, a.coeffs)
        assert got.order == 3 and got.coeffs.shape == ref.shape
        assert got.coeffs.dtype == ref.dtype
        assert np.max(np.abs(got.coeffs - ref)) <= 1e-14 * np.max(np.abs(ref))


# -- sin/cos past order four, and series in t -------------------------------


@pytest.mark.parametrize("order", [5, 6])
def test_sin_cos_past_order_four_match_exp_ix(order):
    rng = np.random.default_rng(order)
    x, y = Jet.coordinates(rng.uniform(-1, 1, size=(6, 2)), 2, order)
    arg = x * 1.3 + y * y * 0.7
    e = jets.exp(arg * 1j)
    assert np.max(np.abs(jets.cos(arg).coeffs - e.coeffs.real)) < 1e-12
    assert np.max(np.abs(jets.sin(arg).coeffs - e.coeffs.imag)) < 1e-12


def _poly_series(rng, order, q, npts):
    """Random coefficients c[i, j] of sum c x^i t^j, i <= order, j <= q, and
    the same polynomial as a one-variable jet of t-degree q."""
    c = rng.standard_normal((order + 1, q + 1, npts))
    return c, Jet(1, order, c.reshape(-1, npts).copy())


def _poly_product(a, b, order, q):
    out = np.zeros_like(a)
    for i in range(order + 1):
        for j in range(q + 1):
            for k in range(order + 1 - i):
                for m in range(q + 1 - j):
                    out[i + k, j + m] += a[i, j] * b[k, m]
    return out


@pytest.mark.parametrize("order,q", [(0, 2), (3, 1), (4, 2)])
def test_product_table_matches_two_variable_polynomials(order, q):
    rng = np.random.default_rng(10 * order + q)
    (ca, a), (cb, b) = _poly_series(rng, order, q, 5), _poly_series(rng, order, q, 5)
    assert a.q == q and jets.table(1, order, q).ncoeff == (order + 1) * (q + 1)
    ref = _poly_product(ca, cb, order, q)
    got = jets.jet_mul(a, b).coeffs.reshape(ref.shape)
    assert np.max(np.abs(got - ref)) < 1e-13
    # the same product through jet_einsum, with tensor axes on both factors
    A = Jet(1, order, np.einsum("cp,ij->cpij", a.coeffs, np.arange(4.0).reshape(2, 2) + 1))
    B = Jet(1, order, np.einsum("cp,j->cpj", b.coeffs, np.array([0.5, -2.0])))
    prod = jets.jet_einsum("pij,pj->pi", A, B).coeffs
    mats = np.arange(4.0).reshape(2, 2) + 1
    assert np.max(np.abs(prod - np.einsum("cp,i->cpi", got.reshape(-1, 5),
                                          mats @ np.array([0.5, -2.0])))) < 1e-12
    # d/dx acts on x alone, and a jet constant in t takes the series' degree
    if order:
        d = a.derivative(0).coeffs.reshape(order, q + 1, 5)
        assert np.max(np.abs(d - ca[1:] * np.arange(1, order + 1)[:, None, None])) == 0
    const = Jet(1, order, ca[:, 0].copy())
    lifted = jets.jet_mul(const, b).coeffs.reshape(ref.shape)
    assert np.max(np.abs(lifted - _poly_product(
        np.concatenate([ca[:, :1], np.zeros_like(ca[:, 1:])], axis=1), cb, order, q))) < 1e-13


def test_series_helpers_split_and_integrate_in_t():
    rng = np.random.default_rng(3)
    c, a = _poly_series(rng, 2, 2, 4)
    parts = [jets.tcoeff(a, j) for j in range(3)]
    assert all(p.q == 0 and np.array_equal(p.coeffs, c[:, j]) for j, p in enumerate(parts))
    assert np.array_equal(jets.series(parts).coeffs, a.coeffs)
    assert np.all(jets.tcoeff(a, 3).coeffs == 0.0)
    integral = jets.tintegral(a).coeffs.reshape(3, 4, 4)
    assert np.all(integral[:, 0] == 0.0)
    assert np.allclose(integral[:, 1:], c / np.array([1.0, 2.0, 3.0])[None, :, None])
    assert jets.with_tdegree(a, 1).coeffs.reshape(3, 2, 4).tolist() == c[:, :2].tolist()
    # exp along a series: d/dt exp(u(t)) = u'(t) exp(u(t)) at every x
    e = jets.exp(a)
    lhs = jets.tcoeff(e, 1).coeffs
    rhs = jets.jet_mul(jets.tcoeff(a, 1), jets.tcoeff(e, 0)).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# -- products of increments skip their exact-zero blocks ----------------------


def _vanishing_below(rng, dim, order, q, shape, low):
    """A random jet of t-degree q whose coefficients of total degree (spatial
    plus t) below ``low`` are exact zeros."""
    tb = jets.table(dim, order, q)
    c = rng.standard_normal((tb.ncoeff,) + shape)
    c[tb.alphas.sum(axis=1) < low] = 0.0
    return Jet(dim, order, c)


@pytest.mark.parametrize("groups", [1], ids=["one-group"])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("q", [0, 2])
def test_zero_block_products_match_the_full_products(monkeypatch, dim, q, groups):
    # the degrees _compose (0, 1), _recompose (|beta|, 1) and the powers of
    # inverse_and_logdet (k - 1, 1) pass; the last pair leaves no pair at all.
    # Each product runs its ranks as one group: the kernel sees every pair of
    # the rank plan in a single call.
    gathered = []
    convolve = jets._convolve

    def counted(dim, order, q, a, b, contract, lows=(0, 0)):
        def kernel(x, y):
            gathered.append(len(x))
            return contract(x, y)
        return convolve(dim, order, q, a, b, kernel, lows)

    monkeypatch.setattr(jets, "_convolve", counted)
    order = 3
    rng = np.random.default_rng(10 * dim + q)
    for lows in [(0, 1), (1, 1), (2, 1), (3, 1), (2, 2), (order + q, 1)]:
        a = _vanishing_below(rng, dim, order, q, (5,), lows[0])
        b = _vanishing_below(rng, dim, order, q, (5,), lows[1])
        assert jets._mul(a, b, lows).coeffs.tobytes() == jets.jet_mul(a, b).coeffs.tobytes()
        A = _vanishing_below(rng, dim, order, q, (5, 3, 3), lows[0])
        B = _vanishing_below(rng, dim, order, q, (5, 3, 3), lows[1])
        v = _vanishing_below(rng, dim, order, q, (5, 3), lows[1])
        # a matrix product, a matrix-vector product, a full contraction and
        # a label summed on one side only (the np.einsum fallback)
        for spec, y in (("pij,pjk->pik", B), ("pij,pj->pi", v), ("pij,pji->p", B),
                        ("pij,pj->p", v)):
            gathered.clear()
            got = jets._einsum(spec, A, y, lows).coeffs
            assert got.tobytes() == jets.jet_einsum(spec, A, y).coeffs.tobytes(), (spec, lows)
            pairs = [len(jets._rank_plan(dim, order, q, *lo).src_i) for lo in (lows, (0, 0))]
            assert len(gathered) == groups * len(pairs) and sum(gathered) == sum(pairs), \
                (spec, lows)
    tb = jets.table(dim, order, q)
    assert len(jets._rank_plan(dim, order, q, 1, 1).src_i) < len(tb.mul_i)


def _horner_with_products(a, outer):
    """_compose as a Horner loop of full products from a constant jet."""
    w = a.copy()
    w.coeffs = w.coeffs.astype(np.result_type(w.coeffs.dtype, outer.dtype), copy=True)
    w.coeffs[0] = 0.0
    acc = Jet.const(0.0, a.dim, a.order, a.batch_shape) + outer[-1]
    for j in range(len(outer) - 2, -1, -1):
        acc = jets.jet_mul(acc, w)
        acc.coeffs[0] = acc.coeffs[0] + outer[j]
    return acc


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("dim,order,q", [(2, 0, 0), (2, 3, 0), (4, 2, 2), (1, 4, 1)])
def test_compose_scales_by_its_first_coefficient_bit_for_bit(dim, order, q, dtype):
    # the first Horner step is a scaling, with the zeros of a product's sums
    rng = np.random.default_rng(dim + 3 * order + q)
    tb = jets.table(dim, order, q)
    c = rng.standard_normal((tb.ncoeff, 6))
    if dtype is complex:
        c = c + 1j * rng.standard_normal(c.shape)
    c[1::3] = -0.0
    a = Jet(dim, order, c)
    outer = rng.standard_normal((order + q + 1, 6)).astype(dtype)
    outer[-1, 0] = -0.0
    got, ref = jets._compose(a, outer), _horner_with_products(a, outer)
    assert got.coeffs.dtype == ref.coeffs.dtype
    assert got.coeffs.tobytes() == ref.coeffs.tobytes()


@pytest.mark.parametrize("dim,order,q", [(1, 4, 0), (2, 3, 0), (4, 4, 0), (2, 3, 2), (4, 2, 1)])
def test_antigradient_rebuilds_a_jet_from_its_value_and_gradient(dim, order, q):
    rng = np.random.default_rng(7 * dim + order + q)
    ncoeff = jets.table(dim, order, q).ncoeff
    a = Jet(dim, order, rng.normal(size=(ncoeff, 5, 3)))
    assert a.q == q
    back = jets.antigradient(a.truncate(0), a.gradient())
    assert back.order == order and back.q == q
    # the gradient scales a coefficient by alpha_a and this divides it back
    np.testing.assert_array_max_ulp(back.coeffs, a.coeffs, maxulp=1)
