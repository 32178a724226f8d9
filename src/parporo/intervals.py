"""Outward-rounded interval arithmetic for certified brackets.

Every inexact quantity in this package (integrals, essential suprema,
ratio bounds) travels as an ``Interval``.  Arithmetic widens the bracket
by one ulp in each direction, so an inequality checked against an
endpoint is certified with respect to the float computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_INF = math.inf


def _down(x: float) -> float:
    if math.isinf(x) or math.isnan(x):
        return x
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    if math.isinf(x) or math.isnan(x):
        return x
    return math.nextafter(x, _INF)


@dataclass(frozen=True)
class Interval:
    """Closed bracket ``[lo, hi]`` with lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(value: float) -> "Interval":
        v = float(value)
        return Interval(v, v)

    @staticmethod
    def around(value: float) -> "Interval":
        """One-ulp bracket around a float computed inexactly."""
        v = float(value)
        return Interval(_down(v), _up(v))

    @staticmethod
    def from_fraction(value: Fraction) -> "Interval":
        v = float(value)
        # float() rounds to nearest; widen unless the conversion was exact
        if Fraction(v) == value:
            return Interval(v, v)
        return Interval(_down(v), _up(v))

    # -- queries -----------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # -- arithmetic (outward rounded) ---------------------------------------

    def __add__(self, other: "Interval | float") -> "Interval":
        o = _coerce(other)
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __mul__(self, other: "Interval | float") -> "Interval":
        o = _coerce(other)
        products = (
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        )
        return Interval(_down(min(products)), _up(max(products)))

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | float") -> "Interval":
        o = _coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise ZeroDivisionError(f"division by interval containing zero: {o}")
        inverses = (1.0 / o.lo, 1.0 / o.hi)
        return self * Interval(_down(min(inverses)), _up(max(inverses)))

    def powf(self, exponent: float) -> "Interval":
        """``x**exponent`` for a bracket of nonnegative values.

        Monotone in the base, so endpoints map to endpoints; for a
        negative exponent a zero lower endpoint maps to +inf.
        """
        if self.lo < 0.0:
            raise ValueError("powf requires a nonnegative bracket")
        q = float(exponent)
        if q == 0.0:
            return Interval(1.0, 1.0)

        def _pw(x: float) -> float:
            if x == 0.0:
                return 0.0 if q > 0.0 else _INF
            return x ** q

        if q > 0.0:
            return Interval(_down(_pw(self.lo)), _up(_pw(self.hi)))
        lo = _pw(self.hi)
        hi = _pw(self.lo)
        return Interval(_down(lo) if math.isfinite(lo) else lo,
                        _up(hi) if math.isfinite(hi) else hi)

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __str__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


def _coerce(x: "Interval | float") -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(float(x))


def interval_sum(parts) -> Interval:
    """Certified sum of brackets given as ``(lo, hi)`` float pairs
    (endpoint sums, outward rounded).

    Float sums depend on their order, so callers that need bit-identical
    output must pass ``parts`` in a fixed order.
    """
    lo = hi = 0.0
    nextafter, down, up = math.nextafter, -_INF, _INF
    for part_lo, part_hi in parts:
        # _down and _up inlined: x - x == 0.0 exactly when x is finite
        lo += part_lo
        if lo - lo == 0.0:
            lo = nextafter(lo, down)
        hi += part_hi
        if hi - hi == 0.0:
            hi = nextafter(hi, up)
    return Interval(lo, hi)
