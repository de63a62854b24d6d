"""Spans and counters around the public functions of kahlercheck's layers.

``installed`` wraps, for the duration of a ``with`` block, every call at a
layer boundary in a span of the given :class:`spans.Tracer` and updates a
:class:`Counters`.  Nothing under ``src/`` changes: module-level functions
are rebound in every ``kahlercheck`` module that imported them, and methods
are replaced on their classes; leaving the block restores the originals.

Layers (span names) and the calls they cover:

====================  ========================================================
``jets.conv``         ``jet_mul``, ``jet_einsum``
``jets.compose``      ``exp``, ``log``, ``sin``, ``cos``, ``sqrt``,
                      ``reciprocal``, ``power``
``jets.linear``       ``jet_linear``, ``jet_map``, ``jet_stack``
``geometry.inverse``  ``inverse_and_logdet``
``geometry.state``    ``GeometryState`` accessors taking ``(batch, order)``
``variation.flow``    ``HamiltonianFlowCurve.flow_jets``
``variation.compose`` ``compose_field``
``variation.fd``      ``fd_derivative``; ``variation.fd.map`` wraps the
                      ``map_fn`` passed to it
``backends.field``    ``Field.__call__``
``backends.integrate`` ``Backend.integrate_chart`` (all quadrature)
``backends.make_fixture``  ``make_fixture``
``tensorcalc``, ``kahler``, ``soliton``  their public functions and methods
``checks.run_check``  ``run_check``; sets the request id (check, fixture)
``report.write``      ``write_json``, ``write_csv``
====================  ========================================================
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import math
import sys
import weakref
from collections import Counter

import numpy as np

from spans import Tracer, layer_table

LARGE_BATCH = 1000          # points; a batch this large is a quadrature batch

COMPOSE = ("exp", "log", "sin", "cos", "sqrt", "reciprocal", "power")
LINEAR = ("jet_linear", "jet_map", "jet_stack")
# GeometryState accessors whose value changes when the weight is turned off;
# an unweighted twin shares every other entry of its parent's cache
WEIGHT_ACCESSORS = ("f", "df", "gradf", "hessf")


class Counters:
    """Counts taken at the layer boundaries, beside the spans."""

    def __init__(self):
        self.calls: Counter = Counter()      # per wrapped function
        self.conv_terms = 0
        self.conv_terms_large = 0
        self.conv_bytes = 0
        self.states = 0
        self.state_hits = 0
        self.state_keys: set = set()
        self.flow_hits = 0
        self.flow_keys: set = set()
        self.fd_map_evals = 0
        self.integrate_points = 0


def conv_work(a, b, spec: str | None = None) -> tuple[int, int, int]:
    """(terms, points, bytes) of one jet product.

    terms is len(mul_i) of the product's jet table times the number of
    scalar products per coefficient pair: the broadcast batch size for
    ``jet_mul``, the size of the einsum iteration space for ``jet_einsum``.
    points is the length of the leading (point) axis.  bytes is the computed
    size of the two gathered operands and of the gathered products.
    """
    from kahlercheck.jets import table

    n = len(table(a.dim, min(a.order, b.order)).mul_i)
    sa, sb = a.coeffs.shape[1:], b.coeffs.shape[1:]
    if spec is None:
        batch = np.broadcast_shapes(sa, sb)
        space = out = math.prod(batch)
        points = batch[0] if batch else 1
    else:
        lhs, rhs = spec.split("->")
        s1, s2 = lhs.split(",")
        dims: dict = {}
        for letters, shape in ((s1, sa), (s2, sb)):
            for ch, d in zip(letters, shape):
                dims[ch] = max(dims.get(ch, 1), d)
        space = math.prod(dims.values())
        out = math.prod(dims[ch] for ch in rhs)
        points = dims[s1[0]] if s1 else 1
    itemsize = np.result_type(a.coeffs.dtype, b.coeffs.dtype).itemsize
    nbytes = n * (math.prod(sa) + math.prod(sb) + out) * itemsize
    return n * space, points, nbytes


class _Patcher:
    def __init__(self):
        self.undo: list = []

    def set(self, owner, name, value):
        self.undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        for owner, name, old in reversed(self.undo):
            setattr(owner, name, old)
        self.undo.clear()


def _spanned(tr: Tracer, layer: str, fn, calls: Counter, key: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[key] += 1
        i = tr.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.close(i)

    return wrapper


def _public_functions(mod):
    return {name: obj for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == mod.__name__}


def _public_methods(mod):
    for cname, cls in vars(mod).items():
        if inspect.isclass(cls) and cls.__module__ == mod.__name__:
            for name, obj in vars(cls).items():
                if inspect.isfunction(obj) and not name.startswith("_"):
                    yield cls, cname, name, obj


@contextlib.contextmanager
def installed(tr: Tracer, c: Counters):
    """Wrap kahlercheck's layer boundaries in spans while the block runs."""
    import kahlercheck.catalog  # noqa: F401  (load every module that rebinds)
    import kahlercheck.cli  # noqa: F401
    from kahlercheck import (backends, checks, geometry, jets, kahler, report,
                             soliton, tensorcalc, variation)

    p = _Patcher()
    calls = c.calls
    funcs: dict[int, object] = {}     # id(original) -> wrapper

    def count_conv(a, b, spec=None):
        terms, points, nbytes = conv_work(a, b, spec)
        c.conv_terms += terms
        c.conv_bytes += nbytes
        if points >= LARGE_BATCH:
            c.conv_terms_large += terms

    jet_mul, jet_einsum = jets.jet_mul, jets.jet_einsum

    @functools.wraps(jet_mul)
    def mul_wrapper(a, b):
        calls["jet_mul"] += 1
        count_conv(a, b)
        i = tr.open("jets.conv")
        try:
            return jet_mul(a, b)
        finally:
            tr.close(i)

    @functools.wraps(jet_einsum)
    def einsum_wrapper(spec, a, b):
        calls["jet_einsum"] += 1
        count_conv(a, b, spec)
        i = tr.open("jets.conv")
        try:
            return jet_einsum(spec, a, b)
        finally:
            tr.close(i)

    funcs[id(jet_mul)] = mul_wrapper
    funcs[id(jet_einsum)] = einsum_wrapper
    for layer, names in (("jets.compose", COMPOSE), ("jets.linear", LINEAR)):
        for name in names:
            fn = getattr(jets, name)
            funcs[id(fn)] = _spanned(tr, layer, fn, calls, name)
    for layer, fn in (("geometry.inverse", geometry.inverse_and_logdet),
                      ("variation.compose", variation.compose_field),
                      ("backends.make_fixture", backends.make_fixture)):
        funcs[id(fn)] = _spanned(tr, layer, fn, calls, fn.__name__)
    for fn in (report.write_json, report.write_csv):
        funcs[id(fn)] = _spanned(tr, "report.write", fn, calls, fn.__name__)
    for mod in (tensorcalc, kahler, soliton):
        short = mod.__name__.rsplit(".", 1)[1]
        for name, fn in _public_functions(mod).items():
            funcs[id(fn)] = _spanned(tr, short, fn, calls, f"{short}.{name}")

    fd = variation.fd_derivative

    @functools.wraps(fd)
    def fd_wrapper(map_fn, *args, **kwargs):
        calls["fd_derivative"] += 1

        def timed_map(t):
            c.fd_map_evals += 1
            j = tr.open("variation.fd.map")
            try:
                return map_fn(t)
            finally:
                tr.close(j)

        i = tr.open("variation.fd")
        try:
            return fd(timed_map, *args, **kwargs)
        finally:
            tr.close(i)

    funcs[id(fd)] = fd_wrapper

    run_check = checks.run_check

    @functools.wraps(run_check)
    def run_check_wrapper(check_id, fixture_name, *args, **kwargs):
        calls["run_check"] += 1
        outer, tr.request = tr.request, (check_id, fixture_name)
        i = tr.open("checks.run_check")
        try:
            return run_check(check_id, fixture_name, *args, **kwargs)
        finally:
            tr.close(i)
            tr.request = outer

    funcs[id(run_check)] = run_check_wrapper

    # rebind every module-level name that refers to a wrapped function
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "kahlercheck" or name.startswith("kahlercheck.")):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in funcs:
                p.set(mod, attr, funcs[id(val)])

    # methods of the operator modules' classes
    for mod in (tensorcalc, kahler, soliton):
        short = mod.__name__.rsplit(".", 1)[1]
        for cls, cname, name, fn in list(_public_methods(mod)):
            p.set(cls, name, _spanned(tr, short, fn, calls, f"{short}.{cname}.{name}"))

    # GeometryState: objects created, accessor hits judged by key seen before
    serial = itertools.count()
    serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    GS = geometry.GeometryState
    gs_init, gs_unweighted = GS.__init__, GS.unweighted

    def serial_of(obj):
        s = serials.get(obj)
        if s is None:
            s = serials[obj] = next(serial)
        return s

    @functools.wraps(gs_init)
    def init_wrapper(self, *args, **kwargs):
        c.states += 1
        gs_init(self, *args, **kwargs)

    @functools.wraps(gs_unweighted)
    def unweighted_wrapper(self):
        twin = gs_unweighted(self)
        serials[twin] = serial_of(self)     # the twin shares its cache
        return twin

    p.set(GS, "__init__", init_wrapper)
    p.set(GS, "unweighted", unweighted_wrapper)

    def accessor(fn, method):
        @functools.wraps(fn)
        def wrapper(self, batch, order):
            calls[f"GeometryState.{method}"] += 1
            weightless = self.weightless and method in WEIGHT_ACCESSORS
            key = (serial_of(self), method, weightless, batch.token, order)
            if key in c.state_keys:
                c.state_hits += 1
            else:
                c.state_keys.add(key)
            i = tr.open("geometry.state")
            try:
                return fn(self, batch, order)
            finally:
                tr.close(i)

        return wrapper

    for name, fn in list(vars(GS).items()):
        if inspect.isfunction(fn) and not name.startswith("_") and \
                list(inspect.signature(fn).parameters) == ["self", "batch", "order"]:
            p.set(GS, name, accessor(fn, name))

    HF = variation.HamiltonianFlowCurve
    flow_jets = HF.flow_jets

    @functools.wraps(flow_jets)
    def flow_wrapper(self, batch, t, order):
        calls["flow_jets"] += 1
        key = (serial_of(self), batch.token, round(t, 12), order)
        if key in c.flow_keys:
            c.flow_hits += 1
        else:
            c.flow_keys.add(key)
        i = tr.open("variation.flow")
        try:
            return flow_jets(self, batch, t, order)
        finally:
            tr.close(i)

    p.set(HF, "flow_jets", flow_wrapper)

    p.set(backends.Field, "__call__",
          _spanned(tr, "backends.field", backends.Field.__call__, calls, "Field.__call__"))

    integrate_chart = backends.Backend.integrate_chart

    @functools.wraps(integrate_chart)
    def integrate_wrapper(self, values_per_batch, nodes):
        calls["integrate_chart"] += 1
        c.integrate_points += sum(b.size for b in nodes)
        i = tr.open("backends.integrate")
        try:
            return integrate_chart(self, values_per_batch, nodes)
        finally:
            tr.close(i)

    p.set(backends.Backend, "integrate_chart", integrate_wrapper)

    try:
        yield
    finally:
        p.restore()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, c: Counters) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit)."""
    t = layer_table(tr)

    def col(layer, field):
        return t.get(layer, {}).get(field, 0)

    calls = c.calls
    conv_self = col("jets.conv", "self_s")
    state_calls = col("geometry.state", "calls")
    flow_calls = col("variation.flow", "calls")
    return {
        "jets.conv.calls": (col("jets.conv", "calls"), "count"),
        "jets.conv.self_s": (conv_self, "s"),
        "jets.conv.terms": (c.conv_terms, "count"),
        "jets.conv.terms_per_s": (_ratio(c.conv_terms, conv_self), "1/s"),
        "jets.conv.large_batch_share": (_ratio(c.conv_terms_large, c.conv_terms), "ratio"),
        "jets.conv.mb_computed": (c.conv_bytes / 1e6, "MB"),
        "jets.compose.calls": (col("jets.compose", "calls"), "count"),
        "jets.compose.self_s": (col("jets.compose", "self_s"), "s"),
        "jets.linear.calls": (col("jets.linear", "calls"), "count"),
        "jets.linear.self_s": (col("jets.linear", "self_s"), "s"),
        "geometry.inverse.calls": (col("geometry.inverse", "calls"), "count"),
        "geometry.inverse.self_s": (col("geometry.inverse", "self_s"), "s"),
        "geometry.state.calls": (state_calls, "count"),
        "geometry.state.self_s": (col("geometry.state", "self_s"), "s"),
        "geometry.state.hit_ratio": (_ratio(c.state_hits, state_calls), "ratio"),
        "geometry.state.keys": (len(c.state_keys), "count"),
        "geometry.states": (c.states, "count"),
        "variation.flow.calls": (flow_calls, "count"),
        "variation.flow.total_s": (col("variation.flow", "total_s"), "s"),
        "variation.flow.hit_ratio": (_ratio(c.flow_hits, flow_calls), "ratio"),
        "variation.compose.calls": (col("variation.compose", "calls"), "count"),
        "variation.compose.self_s": (col("variation.compose", "self_s"), "s"),
        "variation.fd.calls": (col("variation.fd", "calls"), "count"),
        "variation.fd.map_evals": (c.fd_map_evals, "count"),
        "variation.fd.map_s": (col("variation.fd.map", "total_s"), "s"),
        "backends.field.calls": (col("backends.field", "calls"), "count"),
        "backends.field.self_s": (col("backends.field", "self_s"), "s"),
        "backends.integrate.calls": (col("backends.integrate", "calls"), "count"),
        "backends.integrate.points": (c.integrate_points, "count"),
        "backends.make_fixture_s": (col("backends.make_fixture", "total_s"), "s"),
        "tensorcalc.self_s": (col("tensorcalc", "self_s"), "s"),
        "kahler.self_s": (col("kahler", "self_s"), "s"),
        "soliton.self_s": (col("soliton", "self_s"), "s"),
        "soliton.lambda_basis.calls": (calls["soliton.lambda_basis"], "count"),
        "checks.run_check.calls": (col("checks.run_check", "calls"), "count"),
        "checks.self_s": (col("checks.run_check", "self_s"), "s"),
        "report.write_s": (col("report.write", "total_s"), "s"),
        "trace.spans": (len(tr), "count"),
    }
