"""Slowly growing regularity functions and their companions.

Two parametric families drive every experiment in this package:

* a growth function ``f`` — one of the iterated-log-product families or a
  small power — that controls how much additive structure the block
  construction packs in, and
* a companion function ``theta`` used when turning approximation ranks into
  neighborhood radii.

Everything here is plain float arithmetic (numpy-vectorized); exact rational
work lives in :mod:`ppclab.intervals` only.

Each family is clamped below ``x_min``, the smallest power of two where the
raw formula exceeds a small margin above 2, so that evaluated values are
always > 2 and monotone on the whole positive axis.  The companion families
are clamped the same way with margin above 1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "GrowthFunction",
    "ThetaFunction",
    "parse_growth",
    "parse_theta",
    "psi",
    "series_partial_sum",
    "lower_order",
    "LowerOrderResult",
    "predicted_hausdorff_dim",
]

ArrayLike = Union[float, int, np.ndarray]

# growth values must stay strictly above 2; clamping at the first dyadic
# point 5% above that keeps a safety margin for float noise
_F_MARGIN = 2.05
_THETA_MARGIN = 1.05

_MAX_ILOG_DEPTH = 4  # log_5(x) > 0 needs x > e^e^e^e, which overflows doubles


def _evaluated(raw, x: ArrayLike, x_min: float) -> ArrayLike:
    """``raw`` at max(x, x_min): a float for a scalar or 0-d x, else an
    array.  A scalar goes through the same ufuncs as an np.float64, with no
    0-d array around it."""
    out = raw(np.maximum(np.float64(x), x_min))
    return out if isinstance(out, np.ndarray) else float(out)


def _smallest_dyadic_above(raw, margin: float) -> float:
    """Smallest power of two where ``raw`` is defined and exceeds ``margin``."""
    for k in range(0, 1024):
        x = 2.0**k
        with np.errstate(invalid="ignore", divide="ignore"):
            val = raw(x)
        if math.isfinite(val) and val > margin:
            return x
    raise ValueError("no dyadic clamp point below 2**1024; family unusable")


@dataclass(frozen=True)
class GrowthFunction:
    """A monotone function f: (0, inf) -> (2, inf) from one of three families.

    family "ilog":      f(x) = log(x) * log(log(x)) * ... (r factors)
    family "ilog_eps":  the above times (r-th iterated log)**eps, 0 < eps <= 1
    family "pow":       f(x) = x**a with 0 < a <= 1/3

    Evaluation clamps the argument below ``x_min`` (see module docstring).
    """

    family: str
    r: int = 0
    eps: float = 0.0
    a: float = 0.0
    x_min: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.family == "ilog":
            if not (1 <= self.r <= _MAX_ILOG_DEPTH):
                raise ValueError(f"ilog depth must be in 1..{_MAX_ILOG_DEPTH}")
        elif self.family == "ilog_eps":
            if not (1 <= self.r <= _MAX_ILOG_DEPTH):
                raise ValueError(f"ilog_eps depth must be in 1..{_MAX_ILOG_DEPTH}")
            if not (0.0 < self.eps <= 1.0):
                raise ValueError("ilog_eps exponent must lie in (0, 1]")
        elif self.family == "pow":
            if not (0.0 < self.a <= 1.0 / 3.0):
                raise ValueError("power exponent must lie in (0, 1/3]")
        else:
            raise ValueError(f"unknown growth family {self.family!r}")
        object.__setattr__(
            self, "x_min", _smallest_dyadic_above(self._raw, _F_MARGIN)
        )

    def _raw(self, x: ArrayLike) -> ArrayLike:
        if self.family == "pow":
            return np.power(x, self.a)
        prod, lx = 1.0, np.float64(x)
        for _ in range(self.r):
            lx = np.log(lx)
            prod = prod * lx
        if self.family == "ilog_eps":
            prod = prod * np.power(lx, self.eps)
        return prod

    def __call__(self, x: ArrayLike) -> ArrayLike:
        return _evaluated(self._raw, x, self.x_min)

    @property
    def spec_string(self) -> str:
        if self.family == "ilog":
            return f"ilog({self.r})"
        if self.family == "ilog_eps":
            return f"ilog_eps({self.r}, {self.eps!r})"
        return f"pow({self.a!r})"


@dataclass(frozen=True)
class ThetaFunction:
    """Companion function theta: (0, inf) -> (1, inf), increasing to infinity.

    family "one_plus_log": theta(x) = 1 + log(x)
    family "pow":          theta(x) = x**b with 0 < b <= 1/4

    Both satisfy theta(2x)/theta(x) -> 1 ("one_plus_log") or stay bounded by
    2**b (power), and are clamped below x_min like the growth families.
    """

    family: str
    b: float = 0.0
    x_min: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.family == "pow":
            if not (0.0 < self.b <= 0.25):
                raise ValueError("theta power exponent must lie in (0, 1/4]")
        elif self.family != "one_plus_log":
            raise ValueError(f"unknown theta family {self.family!r}")
        object.__setattr__(
            self, "x_min", _smallest_dyadic_above(self._raw, _THETA_MARGIN)
        )

    def _raw(self, x: ArrayLike) -> ArrayLike:
        if self.family == "pow":
            return np.power(x, self.b)
        return 1.0 + np.log(x)

    def __call__(self, x: ArrayLike) -> ArrayLike:
        return _evaluated(self._raw, x, self.x_min)

    @property
    def spec_string(self) -> str:
        if self.family == "one_plus_log":
            return "one_plus_log"
        return f"pow({self.b!r})"


# -- config-string parsing ----------------------------------------------------

_ILOG_RE = re.compile(r"^ilog\(\s*(\d+)\s*\)$")
_ILOG_EPS_RE = re.compile(r"^ilog_eps\(\s*(\d+)\s*,\s*([^)]+?)\s*\)$")
_POW_RE = re.compile(r"^pow\(\s*([^)]+?)\s*\)$")


def _parse_number(token: str) -> float:
    """Parse a float literal or a simple fraction like 1/3."""
    if "/" in token:
        num, _, den = token.partition("/")
        return float(num) / float(den)
    return float(token)


def parse_growth(text: str) -> GrowthFunction:
    """Parse a growth spec: ``ilog(r)``, ``ilog_eps(r, eps)`` or ``pow(a)``."""
    text = text.strip()
    if m := _ILOG_RE.match(text):
        return GrowthFunction("ilog", r=int(m.group(1)))
    if m := _ILOG_EPS_RE.match(text):
        return GrowthFunction("ilog_eps", r=int(m.group(1)), eps=_parse_number(m.group(2)))
    if m := _POW_RE.match(text):
        return GrowthFunction("pow", a=_parse_number(m.group(1)))
    raise ValueError(f"cannot parse growth spec {text!r}")


def parse_theta(text: str) -> ThetaFunction:
    """Parse a theta spec: ``one_plus_log`` or ``pow(b)``."""
    text = text.strip()
    if text == "one_plus_log":
        return ThetaFunction("one_plus_log")
    if m := _POW_RE.match(text):
        return ThetaFunction("pow", b=_parse_number(m.group(1)))
    raise ValueError(f"cannot parse theta spec {text!r}")


# -- derived quantities ----------------------------------------------------------


def psi(f: GrowthFunction, theta: ThetaFunction, n: ArrayLike) -> ArrayLike:
    """Approximation radius at rank n: 1 / (n * f(n) * theta(n))."""
    n = np.float64(n)
    if (n < 1).any():
        raise ValueError("rank must be >= 1")
    out = 1.0 / (n * f(n) * theta(n))
    return out if isinstance(out, np.ndarray) else float(out)


def series_partial_sum(f: GrowthFunction, n_max: int, chunk: int = 1 << 20) -> float:
    """Partial sum of 1 / (n * f(n)) for n = 1..n_max.

    Diverges like an iterated log for the ilog families and converges for the
    power family; chunked numpy evaluation keeps memory flat.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    total = 0.0
    start = 1
    while start <= n_max:
        stop = min(n_max, start + chunk - 1)
        n = np.arange(start, stop + 1, dtype=float)
        total += float(np.sum(1.0 / (n * f(n))))
        start = stop + 1
    return total


@dataclass(frozen=True)
class LowerOrderResult:
    analytic: float
    grid_estimate: float


# the grid must reach far beyond 2**40 for the iterated-log families: at
# x = 2**40 the ratio log f / log x is still ~0.12, and only around 2**200
# does it fall inside a 0.05 band around the true value 0
_ORDER_GRID_EXPONENTS = range(10, 401, 10)


def lower_order(f: GrowthFunction) -> LowerOrderResult:
    """liminf of log f(x) / log x: 0 for the ilog families, a for pow(a).

    Returns the analytic value together with a numerical estimate (the
    minimum of the ratio over a dyadic grid up to 2**400); the two are
    required to agree within 0.05 and a violation raises.
    """
    analytic = f.a if f.family == "pow" else 0.0
    ratios = [
        math.log(f(2.0**k)) / math.log(2.0**k) for k in _ORDER_GRID_EXPONENTS
    ]
    estimate = min(ratios)
    if abs(estimate - analytic) > 0.05:
        raise ArithmeticError(
            f"lower-order grid estimate {estimate:.4f} disagrees with "
            f"analytic value {analytic:.4f} for {f.spec_string}"
        )
    return LowerOrderResult(analytic=analytic, grid_estimate=estimate)


def predicted_hausdorff_dim(f: GrowthFunction) -> float:
    """Predicted dimension 1 / (1 + lower_order(f)) of the exceptional set."""
    return 1.0 / (1.0 + lower_order(f).analytic)
