import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parporo.intervals import Interval, interval_sum

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


def test_hull_and_overlap():
    a, b = Interval(0.0, 1.0), Interval(2.0, 3.0)
    assert not a.overlaps(b)
    h = a.hull(b)
    assert h.lo == 0.0 and h.hi == 3.0
    assert a.overlaps(Interval(0.5, 4.0))
