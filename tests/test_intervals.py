import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parporo.intervals import Interval, _down, _up, interval_sum

rationals = st.fractions(min_value=Fraction(-100), max_value=Fraction(100),
                         max_denominator=97)


def bracket(q: Fraction) -> Interval:
    return Interval.from_fraction(q)


@given(a=rationals, b=rationals)
@settings(max_examples=300, deadline=None)
def test_outward_sum_contains_exact(a, b):
    iv = bracket(a) + bracket(b)
    exact = a + b
    assert Fraction(iv.lo) <= exact <= Fraction(iv.hi)


@given(a=rationals, b=rationals)
@settings(max_examples=300, deadline=None)
def test_outward_product_contains_exact(a, b):
    iv = bracket(a) * bracket(b)
    exact = a * b
    assert Fraction(iv.lo) <= exact <= Fraction(iv.hi)


@given(a=rationals.filter(lambda q: q > Fraction(1, 50)),
       e=st.sampled_from([0.5, -0.5, 2.0, -1.3]))
@settings(max_examples=200, deadline=None)
def test_power_brackets_float_eval(a, e):
    iv = bracket(a).powf(e)
    v = float(a) ** e
    assert iv.lo <= v <= iv.hi


def test_division_by_zero_interval():
    with pytest.raises(ZeroDivisionError):
        Interval(1.0, 2.0) / Interval(-1.0, 1.0)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_zero_power_of_negative_exponent_is_infinite():
    iv = Interval(0.0, 2.0).powf(-0.5)
    assert math.isinf(iv.hi)
    assert iv.lo > 0.0


def test_interval_sum_contains_componentwise():
    parts = [(0.1, 0.2), (-0.05, 0.0), (1.0, 1.0)]
    total = interval_sum(parts)
    assert total.lo <= 0.1 - 0.05 + 1.0 <= 0.2 + 0.0 + 1.0 <= total.hi


def stepwise_sum(parts):
    """``interval_sum`` one ``_down`` / ``_up`` step per part, unpacked."""
    lo = hi = 0.0
    for part_lo, part_hi in parts:
        lo = _down(lo + part_lo)
        hi = _up(hi + part_hi)
    return lo, hi


BIG = 1.7976931348623157e308
SPECIAL = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           -2.2250738585072009e-308, 1.0, BIG, -BIG))
ENDPOINT = st.one_of(SPECIAL, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def leaf_parts(draw):
    """``(lo, hi)`` pairs with ``lo <= hi``: finite ones, and diverged or
    lower-only leaves with an infinite high."""
    parts = []
    for _ in range(draw(st.integers(0, 12))):
        a, b = draw(ENDPOINT), draw(ENDPOINT)
        lo, hi = min(a, b), max(a, b)
        parts.append((lo, math.inf if draw(st.booleans()) else hi))
    return parts


@given(parts=leaf_parts())
@example(parts=[(0.0, 0.0), (-0.0, -0.0)])
@example(parts=[(-0.0, -0.0), (-0.0, 5e-324)])
@example(parts=[(5e-324, 5e-324), (-5e-324, -5e-324), (0.0, math.inf)])
@example(parts=[(BIG, BIG), (BIG, BIG), (1.0, 2.0)])
@example(parts=[(-BIG, -BIG), (-BIG, 0.0), (0.5, math.inf)])
@settings(max_examples=300, deadline=None)
def test_interval_sum_matches_the_stepwise_sum_bit_for_bit(parts):
    lo, hi = stepwise_sum(parts)
    if math.isnan(lo) or math.isnan(hi) or lo > hi:
        with pytest.raises(ValueError):
            interval_sum(parts)
        return
    total = interval_sum(iter(parts))
    assert (total.lo.hex(), total.hi.hex()) == (lo.hex(), hi.hex())


def test_hull_and_overlap():
    a, b = Interval(0.0, 1.0), Interval(2.0, 3.0)
    assert not a.overlaps(b)
    h = a.hull(b)
    assert h.lo == 0.0 and h.hi == 3.0
    assert a.overlaps(Interval(0.5, 4.0))
