"""Coefficient functions and per-channel coefficient bundles.

The evaluable function vocabulary is deliberately small and parametric so
that every evaluation is auditable: powers, logarithms, sinusoidally
modulated powers, exponentials, affine sums of those, and tabulated samples
with monotone-cubic interpolation.  All functions live on the open half-line
r > 0; the origin is a singular endpoint and is always rejected.

Each family has one implementation, for a float radius and an array of
radii alike, so the solver's one-radius-at-a-time `scalar_qml` and the
window checks read the same values.  Tabulated data declared non-smooth, and
any sum holding it, has no derivative (`has_derivative`).  Powers, logs and
exponentials, and sums of them only, are scale-free (`scale_free`): one
fixed geometric grid resolves their windows.
"""

from __future__ import annotations

import inspect
import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "DomainError",
    "MissingDerivativeError",
    "CoefficientFunction",
    "CoefficientModel",
    "ChannelSystem",
    "ChannelBatch",
    "ConstantChannel",
    "coefficient",
    "constant",
    "power",
    "assemble_channel",
    "function_from_dict",
    "model_from_dict",
    "models_equal",
    "require_equal",
    "scale_free",
]


class DomainError(ValueError):
    """Coefficient evaluated outside the open half-line r > 0."""


class MissingDerivativeError(ValueError):
    """Derivative requested from tabulated data marked non-smooth."""


def _check_radius(r):
    if isinstance(r, (float, int)):
        r = float(r)
        if not (0.0 < r < math.inf):
            raise DomainError(f"radius must satisfy 0 < r < inf, got {r}")
        return r
    arr = np.asarray(r, dtype=float)
    if not ((arr > 0.0) & (arr < math.inf)).all():  # nan fails both
        raise DomainError("radius grid must satisfy 0 < r < inf everywhere")
    return arr


def _zero_like(r):
    return r * 0.0


# ---------------------------------------------------------------------------
# family builders: each takes its family's parameters (its signature is the
# schema of `function_from_dict`) and returns (value, d1, d2), one
# implementation for a float radius and for an array of radii; d1 and d2
# are None when the function has no derivative


def _build_power(c, p):
    c, p = float(c), float(p)

    def value(r):
        return c * r ** p

    if p == 0.0:
        d1 = _zero_like
    else:
        def d1(r):
            return (c * p) * r ** (p - 1.0)

    if p in (0.0, 1.0):
        d2 = _zero_like
    else:
        def d2(r):
            return (c * p * (p - 1.0)) * r ** (p - 2.0)

    return value, d1, d2


def _build_log(c):
    c = float(c)
    return (
        lambda r: c * np.log1p(r),
        lambda r: c / (1.0 + r),
        lambda r: -c / (1.0 + r) ** 2,
    )


def _build_modulated(a, b, omega, c, p):
    a, b, omega, c, p = map(float, (a, b, omega, c, p))

    def value(r):
        return (a + b * np.sin(omega * r)) * c * r ** p

    def d1(r):
        out = (b * omega * c) * np.cos(omega * r) * r ** p
        if p != 0.0:
            out = out + (a + b * np.sin(omega * r)) * (c * p) * r ** (p - 1.0)
        return out

    def d2(r):
        s, cs = np.sin(omega * r), np.cos(omega * r)
        out = -(b * omega * omega * c) * s * r ** p
        if p != 0.0:
            out = out + 2.0 * (b * omega * c * p) * cs * r ** (p - 1.0)
        if p not in (0.0, 1.0):
            out = out + (a + b * s) * (c * p * (p - 1.0)) * r ** (p - 2.0)
        return out

    return value, d1, d2


def _build_exp(c, a):
    c, a = float(c), float(a)
    return (
        lambda r: c * np.exp(a * r),
        lambda r: (c * a) * np.exp(a * r),
        lambda r: (c * a * a) * np.exp(a * r),
    )


def _build_sum(terms):
    terms = tuple(terms)
    if not terms:
        raise ValueError("sum family needs at least one term")

    def total(read):
        # the terms' values added left to right
        return lambda r: reduce(operator.add, (read(t, r) for t in terms))

    value = total(lambda t, r: t.value(r))
    if not all(t.has_derivative for t in terms):
        return value, None, None
    return (value, total(lambda t, r: t.derivative(r)),
            total(lambda t, r: t.derivative(r, order=2)))


def _build_tabulated(grid, values, derivative="interpolant"):
    from scipy.interpolate import PchipInterpolator

    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if derivative not in ("interpolant", "none"):
        raise ValueError(f"tabulated derivative mode must be "
                         f"'interpolant' or 'none', got {derivative!r}")
    if grid.ndim != 1 or grid.size < 2 or values.shape != grid.shape:
        raise ValueError("tabulated data needs matching 1-d grid/values, length >= 2")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("tabulated grid must be strictly increasing")
    if grid[0] <= 0.0:
        raise DomainError("tabulated grid must lie in r > 0")

    pp = PchipInterpolator(grid, values, extrapolate=True)

    def _shape(out, r):
        return float(out) if isinstance(r, float) else out

    def value(r):
        return _shape(pp(r), r)

    if derivative == "none":
        return value, None, None
    dpp, d2pp = pp.derivative(), pp.derivative(2)

    def d1(r):
        return _shape(dpp(r), r)

    def d2(r):
        return _shape(d2pp(r), r)

    return value, d1, d2


_BUILDERS = {
    "power": _build_power,
    "log": _build_log,
    "modulated": _build_modulated,
    "exp": _build_exp,
    "sum": _build_sum,
    "tabulated": _build_tabulated,
}


@dataclass(frozen=True, eq=False)
class CoefficientFunction:
    """One member of the closed function-family vocabulary.

    Instances are immutable and evaluation is pure; they pickle as their
    family and parameters, and rebuild their closures when unpickled.
    """

    family: str
    params: dict

    def __post_init__(self):
        if self.family not in _BUILDERS:
            raise ValueError(f"unknown function family {self.family!r}")
        value, d1, d2 = _BUILDERS[self.family](**self.params)
        object.__setattr__(self, "_value", value)
        object.__setattr__(self, "_d1", d1)
        object.__setattr__(self, "_d2", d2)

    def __reduce__(self):
        return CoefficientFunction, (self.family, self.params)

    def value(self, r):
        return self._value(_check_radius(r))

    def derivative(self, r, order: int = 1):
        r = _check_radius(r)
        if order not in (1, 2):
            raise ValueError("only first and second derivatives are available")
        if self._d1 is None:
            raise MissingDerivativeError("tabulated data declared non-smooth")
        return self._d1(r) if order == 1 else self._d2(r)

    @property
    def has_derivative(self) -> bool:
        return self._d1 is not None

    def to_dict(self) -> dict:
        if self.family == "sum":
            return {"family": "sum",
                    "params": {"terms": [t.to_dict() for t in self.params["terms"]]}}
        if self.family == "tabulated":
            out = {"grid": list(map(float, self.params["grid"])),
                   "values": list(map(float, self.params["values"]))}
            if not self.has_derivative:
                out["derivative"] = "none"
            return {"family": "tabulated", "params": out}
        return {"family": self.family,
                "params": {k: float(v) for k, v in self.params.items()}}


def coefficient(family: str, **params) -> CoefficientFunction:
    return CoefficientFunction(family, params)


def power(c: float, p: float) -> CoefficientFunction:
    return coefficient("power", c=c, p=p)


def constant(c: float) -> CoefficientFunction:
    return power(c, 0.0)


def function_from_dict(d: dict, where: str = "function") -> CoefficientFunction:
    if not isinstance(d, dict):
        raise ValueError(f"{where}: expected an object with 'family'/'params'")
    extra = set(d) - {"family", "params"}
    if extra:
        raise ValueError(f"{where}: unknown keys {sorted(extra)}")
    if "family" not in d:
        raise ValueError(f"{where}: missing 'family'")
    family = d["family"]
    params = d.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"{where}.params: expected an object")
    if family not in _BUILDERS:
        raise ValueError(f"{where}: unknown family {family!r}")
    allowed = inspect.signature(_BUILDERS[family]).parameters
    bad = set(params) - set(allowed)
    if bad:
        raise ValueError(f"{where}.params: unknown keys {sorted(bad)} for "
                         f"family {family!r}")
    if family == "sum":
        terms = params.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ValueError(f"{where}.params.terms: expected a nonempty list")
        built = [function_from_dict(t, f"{where}.terms[{i}]")
                 for i, t in enumerate(terms)]
        return coefficient("sum", terms=built)
    missing = {name for name, p in allowed.items()
               if p.default is p.empty} - set(params)
    if missing:
        raise ValueError(f"{where}.params: missing keys {sorted(missing)}")
    return CoefficientFunction(family, dict(params))


# ---------------------------------------------------------------------------
# model = the (q, m) pair


@dataclass(frozen=True)
class CoefficientModel:
    """The potential q and the scalar-potential (mass) coefficient m."""

    q: CoefficientFunction
    m: CoefficientFunction

    def to_dict(self) -> dict:
        return {"q": self.q.to_dict(), "m": self.m.to_dict()}


def model_from_dict(d: dict, where: str = "model") -> CoefficientModel:
    if not isinstance(d, dict):
        raise ValueError(f"{where}: expected an object with 'q' and 'm'")
    extra = set(d) - {"q", "m"}
    if extra:
        raise ValueError(f"{where}: unknown keys {sorted(extra)}")
    for key in ("q", "m"):
        if key not in d:
            raise ValueError(f"{where}: missing required field '{key}'")
    return CoefficientModel(q=function_from_dict(d["q"], f"{where}.q"),
                            m=function_from_dict(d["m"], f"{where}.m"))


def models_equal(model: CoefficientModel, rs=None):
    """Decide whether q and m coincide; returns (equal, first_mismatch_r).

    Parametric descriptors are compared by `to_dict`; tabulated, mixed or
    differing descriptors fall back to a pointwise probe at `rs`, tolerance
    1e-12.
    """
    if (model.q.family != "tabulated" and model.m.family != "tabulated"
            and model.q.to_dict() == model.m.to_dict()):
        return True, None
    if rs is None:
        rs = np.geomspace(0.1, 1000.0, 64)
    with np.errstate(all="ignore"):
        qv = np.asarray(model.q.value(rs), dtype=float)
        mv = np.asarray(model.m.value(rs), dtype=float)
        scale = 1.0 + np.maximum(np.abs(qv), np.abs(mv))
        bad = ~(np.abs(qv - mv) <= 1e-12 * scale)
    if np.any(bad):
        return False, float(np.asarray(rs)[bad][0])
    return True, None


def require_equal(model: CoefficientModel, what: str):
    """Refuse, with a ValueError naming `what`, a model whose m and q differ
    (`models_equal`), at the first mismatch radius."""
    equal, where = models_equal(model)
    if not equal:
        raise ValueError(f"{what} needs m == q (first mismatch near "
                         f"r = {where:g})")


# ---------------------------------------------------------------------------
# channels


def angular_number(k) -> int:
    """The angular quantum number k of a channel as an int; refused unless
    a nonzero integer."""
    if int(k) != k or k == 0:
        raise ValueError("angular quantum number k must be a nonzero integer")
    return int(k)


@dataclass(frozen=True)
class ChannelSystem:
    """Coefficient bundle (Q, M, L, W) for one angular channel at one
    spectral parameter: Q = q - lambda, M = m, L = k/r, W = sqrt(M^2 + L^2).
    """

    model: CoefficientModel
    k: int
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "k", angular_number(self.k))
        object.__setattr__(self, "lam", float(self.lam))

    def coeffs(self, r):
        r = _check_radius(r)
        q = self.model.q.value(r)
        m = self.model.m.value(r)
        Q = q - self.lam
        L = self.k / r
        W = np.hypot(m, L)
        return Q, m, L, W

    def scalar_qml(self, r):
        # (Q, M, L) at one float radius, for the one-radius-at-a-time RHS
        return (self.model.q.value(r) - self.lam, self.model.m.value(r),
                self.k / r)

    def label(self) -> str:
        return f"k={self.k},lambda={self.lam:g}"


@dataclass(frozen=True, eq=False)
class ChannelBatch:
    """The channels of one model at the angular numbers `ks` and spectral
    parameters `lams`, which the solver steps together; channel i is the
    `ChannelSystem` at (ks[i], lams[i]); an int k serves every channel."""

    model: CoefficientModel
    ks: np.ndarray
    lams: np.ndarray

    def __post_init__(self):
        lams = np.array(self.lams, dtype=float, ndmin=1)
        object.__setattr__(self, "lams", lams)
        object.__setattr__(self, "ks", np.array(list(map(
            angular_number, np.broadcast_to(self.ks, lams.shape).tolist()))))

    def __len__(self) -> int:
        return self.lams.size

    def qml(self, r, owner):
        """(Q, M, L) at the radii r, whose last axis runs over the channels
        `owner`: q and m once on all radii, then Q = q - lams[owner] and
        L = ks[owner]/r."""
        r = _check_radius(r)
        return (self.model.q.value(r) - self.lams[owner], self.model.m.value(r),
                self.ks[owner] / r)

    def label(self, i: int) -> str:
        return f"k={self.ks[i]},lambda={self.lams[i]:g}"


@dataclass(frozen=True)
class ConstantChannel:
    """Synthetic channel with constant coefficients, mainly for tests and
    the constant-coefficient fixture."""

    Q0: float
    M0: float
    L0: float

    def coeffs(self, r):
        r = _check_radius(r)
        shaped = r * 0.0
        W0 = math.hypot(self.M0, self.L0)
        return self.Q0 + shaped, self.M0 + shaped, self.L0 + shaped, W0 + shaped

    def scalar_qml(self, r):
        return self.Q0, self.M0, self.L0

    def label(self) -> str:
        return f"const(Q={self.Q0:g},M={self.M0:g},L={self.L0:g})"


def assemble_channel(model: CoefficientModel, k: int, lam: float) -> ChannelSystem:
    return ChannelSystem(model=model, k=k, lam=lam)


# the families a fixed geometric window grid resolves: eventually monotone
# (Hardy-field) functions, with no period and no knots
_SCALE_FREE = frozenset({"power", "log", "exp"})


def scale_free(source) -> bool:
    """Whether a fixed geometric grid resolves every window of `source`
    (`bvcalc.sample_window`): a power, log or exp function, or a sum of
    such terms only; a model, or a `ChannelSystem` of one, whose q and m
    both are; a `ConstantChannel`.  A modulated or tabulated function is
    not, nor is any other object, such as a duck-typed coefficient or
    channel."""
    if isinstance(source, ConstantChannel):
        return True
    if isinstance(source, ChannelSystem):
        source = source.model
    if isinstance(source, CoefficientModel):
        return scale_free(source.q) and scale_free(source.m)
    if not isinstance(source, CoefficientFunction):
        return False
    if source.family == "sum":
        return all(map(scale_free, source.params["terms"]))
    return source.family in _SCALE_FREE
