"""Outside-in tracer for the diracspec layers.

The tracer never edits the package: `Tracer.install` replaces module-level
function bindings and a few methods with wrappers that record spans, and
`Tracer.uninstall` puts the originals back.  A span is one call into a
layer: its layer, function name, parent span, start and end times, and the
number of scalar right-hand-side evaluations seen so far at both ends.

Scalar coefficient calls (`scalar_qml`, one per RHS evaluation) are far too
many for spans; they only bump a counter.  Vector coefficient evaluations
(`value`, `derivative`, `coeffs` on arrays) are spans that also record the
number of points.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "diracspec"
LAYERS = ("coefficients", "bvcalc", "hypotheses", "solver", "boundedness",
          "subordinacy", "asymptotics", "cli")

# private helpers that another layer calls directly, so they are entry points
EXTRA_ENTRY_POINTS = {
    "subordinacy": ("_eigen_side_cell",),
    "cli": ("_write_json", "_write_rows"),
}
SOLVES = frozenset({"integrate_cartesian", "integrate_pruefer",
                    "integrate_fundamental", "propagate"})
WRITES = frozenset({"_write_json", "_write_rows", "to_csv"})

# span record fields
LAYER, NAME, PARENT, T0, T1, RHS0, RHS1, INFO = range(8)


def _span_info(layer, name, result):
    """The one number a span keeps from its result, if any."""
    if layer == "solver" and name in SOLVES:
        trajs = result if isinstance(result, tuple) else (result,)
        return int(any(getattr(t, "status", 0) != 0 for t in trajs))
    if name == "sample_window":
        return len(result[0])
    if name == "eigen_shoot" or layer == "hypotheses":
        return len(result) if isinstance(result, list) else None
    return None


class Tracer:
    """Span recorder; one instance per traced pass set."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._rhs = [0]
        self._undo = []

    # -- recording ---------------------------------------------------------

    def open(self, layer, name):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([layer, name, parent, time.perf_counter(), None,
                           self._rhs[0], None, None])
        self._stack.append(sid)
        return sid

    def close(self, sid, info=None):
        span = self.spans[sid]
        span[T1] = time.perf_counter()
        span[RHS1] = self._rhs[0]
        span[INFO] = info
        self._stack.pop()

    def reset(self):
        self.spans = []
        self._stack = []
        self._rhs[0] = 0

    @property
    def scalar_calls(self):
        return self._rhs[0]

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(layer, name)
            info = None
            try:
                result = fn(*args, **kwargs)
                info = _span_info(layer, name, result)
                return result
            except BaseException:
                # a raising solve counts as a failed one
                info = 1 if name in SOLVES else None
                raise
            finally:
                tracer.close(sid, info)

        return wrapper

    def _vector_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, r, *args, **kwargs):
            if not isinstance(r, np.ndarray) or r.ndim == 0:
                return fn(obj, r, *args, **kwargs)
            sid = tracer.open("coefficients", name)
            try:
                return fn(obj, r, *args, **kwargs)
            finally:
                tracer.close(sid, r.size)

        return wrapper

    def _counting_wrapper(self, fn):
        counter = self._rhs

        @functools.wraps(fn)
        def wrapper(obj, r):
            counter[0] += 1
            return fn(obj, r)

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer's public functions at every module-level name
        binding, plus the coefficient methods."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            names = list(getattr(mod, "__all__", ())) + list(
                EXTRA_ENTRY_POINTS.get(layer, ()))
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped = self._span_wrapper(layer, name, fn)
                    wrappers[id(fn)] = (fn, wrapped)
        # `from .solver import propagate` makes subordinacy.propagate a second
        # binding of the same object: replace every binding, in every module
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or
                                   mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

        coeff, sub = mods["coefficients"], mods["subordinacy"]
        solver, bound = mods["solver"], mods["boundedness"]
        for cls in (coeff.ChannelSystem, coeff.ConstantChannel,
                    sub.TransformedChannel):
            self._set(cls, "scalar_qml",
                      self._counting_wrapper(cls.__dict__["scalar_qml"]))
            self._set(cls, "coeffs",
                      self._vector_wrapper("coeffs", cls.__dict__["coeffs"]))
        for meth in ("value", "derivative"):
            self._set(coeff.CoefficientFunction, meth, self._vector_wrapper(
                meth, coeff.CoefficientFunction.__dict__[meth]))
        for cls in (solver.Trajectory, bound.RTrace):
            self._set(cls, "to_csv", self._span_wrapper(
                "cli", "to_csv", cls.__dict__["to_csv"]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# aggregation

# unit of every per-layer metric; the order is the report order
PER_LAYER_UNITS = {
    "coefficients.scalar_calls": "count",
    "coefficients.vector_points": "count",
    "coefficients.vector_s": "s",
    "solver.solves": "count",
    "solver.busy_s": "s",
    "solver.self_s": "s",
    "solver.rhs_per_solve": "calls/solve",
    "solver.us_per_rhs": "us",
    "solver.failed": "count",
    "boundedness.busy_s": "s",
    "boundedness.self_s": "s",
    "boundedness.certs": "count",
    "boundedness.solves_per_cell": "solves/cell",
    "subordinacy.busy_s": "s",
    "subordinacy.self_s": "s",
    "subordinacy.ratio_calls": "count",
    "subordinacy.mismatch_evals": "count",
    "subordinacy.roots": "count",
    "subordinacy.mismatch_per_root": "evals/root",
    "asymptotics.busy_s": "s",
    "asymptotics.self_s": "s",
    "asymptotics.solves": "count",
    "hypotheses.busy_s": "s",
    "hypotheses.self_s": "s",
    "hypotheses.checks": "count",
    "bvcalc.busy_s": "s",
    "bvcalc.windows": "count",
    "bvcalc.window_points": "count",
    "cli.boundedness_s": "s",
    "cli.scan_s": "s",
    "cli.eigen_s": "s",
    "cli.subordinacy_s": "s",
    "cli.asymptotics_s": "s",
    "cli.hypotheses_s": "s",
    "cli.bv_verify_s": "s",
    "cli.write_s": "s",
    "cli.bytes_out": "B",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _ancestors(spans, sid):
    parent = spans[sid][PARENT]
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent][PARENT]


def layer_totals(spans):
    """Busy time, self time and scalar RHS calls per layer.

    Busy time is the union of a layer's spans (outermost ones only, so a
    layer calling itself is not counted twice); self time is a span's
    duration minus the time its direct children cover.
    """
    child_time = [0.0] * len(spans)
    child_rhs = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[T1] - span[T0]
            child_rhs[span[PARENT]] += span[RHS1] - span[RHS0]
    busy = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    rhs = dict.fromkeys(LAYERS, 0)
    for sid, span in enumerate(spans):
        layer = span[LAYER]
        dur = span[T1] - span[T0]
        self_s[layer] += dur - child_time[sid]
        rhs[layer] += span[RHS1] - span[RHS0] - child_rhs[sid]
        if all(a[LAYER] != layer for a in _ancestors(spans, sid)):
            busy[layer] += dur
    return busy, self_s, rhs


def pass_metrics(spans, scalar_calls):
    """Per-layer metrics of one traced pass, keyed by metric name.

    The root spans are the CLI invocations, named after the subcommand."""
    busy, self_s, rhs = layer_totals(spans)

    def count(pred):
        return sum(1 for sid, s in enumerate(spans) if pred(sid, s))

    def under(sid, layer, name=None):
        return any(a[LAYER] == layer and (name is None or a[NAME] == name)
                   for a in _ancestors(spans, sid))

    def root(sid):
        span = spans[sid]
        while span[PARENT] >= 0:
            span = spans[span[PARENT]]
        return span

    def is_solve(s):
        return s[LAYER] == "solver" and s[NAME] in SOLVES

    def outermost(sid, s):
        return not under(sid, s[LAYER])

    vector = [(sid, s) for sid, s in enumerate(spans)
              if s[LAYER] == "coefficients" and s[NAME] in
              ("coeffs", "value", "derivative") and outermost(sid, s)]
    solves = count(lambda sid, s: is_solve(s) and not under(sid, "solver"))
    solver_rhs = rhs["solver"]
    bnd_solves = count(lambda sid, s: is_solve(s) and not under(sid, "solver")
                       and root(sid)[NAME] == "boundedness")
    bnd_certs = count(lambda sid, s: s[NAME] == "comparability_constant"
                      and root(sid)[NAME] == "boundedness")
    mismatch = count(lambda sid, s: s[NAME] == "frobenius_radius"
                     and under(sid, "subordinacy", "eigen_shoot"))
    roots = sum(s[INFO] or 0 for s in spans if s[NAME] == "eigen_shoot")
    solver_self = self_s["solver"]

    out = {
        "coefficients.scalar_calls": scalar_calls,
        "coefficients.vector_points": sum(s[INFO] for _, s in vector),
        "coefficients.vector_s": sum(s[T1] - s[T0] for _, s in vector),
        "solver.solves": solves,
        "solver.busy_s": busy["solver"],
        "solver.self_s": solver_self,
        "solver.rhs_per_solve": solver_rhs / solves if solves else 0.0,
        "solver.us_per_rhs": 1e6 * solver_self / solver_rhs
        if solver_rhs else 0.0,
        "solver.failed": sum(s[INFO] or 0 for s in spans if is_solve(s)),
        "boundedness.busy_s": busy["boundedness"],
        "boundedness.self_s": self_s["boundedness"],
        "boundedness.certs": count(
            lambda sid, s: s[NAME] == "comparability_constant"),
        "boundedness.solves_per_cell": bnd_solves / bnd_certs
        if bnd_certs else 0.0,
        "subordinacy.busy_s": busy["subordinacy"],
        "subordinacy.self_s": self_s["subordinacy"],
        "subordinacy.ratio_calls": count(
            lambda sid, s: s[NAME] == "subordinacy_ratio"),
        "subordinacy.mismatch_evals": mismatch,
        "subordinacy.roots": roots,
        "subordinacy.mismatch_per_root": mismatch / roots if roots else 0.0,
        "asymptotics.busy_s": busy["asymptotics"],
        "asymptotics.self_s": self_s["asymptotics"],
        "asymptotics.solves": count(
            lambda sid, s: is_solve(s) and not under(sid, "solver")
            and under(sid, "asymptotics")),
        "hypotheses.busy_s": busy["hypotheses"],
        "hypotheses.self_s": self_s["hypotheses"],
        "hypotheses.checks": sum(
            s[INFO] or 0 for sid, s in enumerate(spans)
            if s[LAYER] == "hypotheses" and outermost(sid, s)),
        "bvcalc.busy_s": busy["bvcalc"],
        "bvcalc.windows": count(lambda sid, s: s[NAME] == "sample_window"),
        "bvcalc.window_points": sum(
            s[INFO] for s in spans if s[NAME] == "sample_window"),
        "cli.write_s": sum(s[T1] - s[T0] for s in spans
                           if s[LAYER] == "cli" and s[NAME] in WRITES),
    }
    for s in spans:
        if s[PARENT] < 0:
            key = f"cli.{s[NAME].replace('-', '_')}_s"
            out[key] = out.get(key, 0.0) + s[T1] - s[T0]
    return out
