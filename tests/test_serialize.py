import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parporo.cli import run
from parporo.serialize import number_str, parse_float, parse_number
from parporo.sets import set_from_json


def parse_by_int_first(s):
    """``parse_number`` as it was before decimal text skipped ``int()``,
    with a zero denominator a ``ValueError``."""
    if isinstance(s, (int, float, Fraction)):
        return s
    text = str(s).strip()
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(text) from None
    if text == "inf":
        return math.inf
    if text == "-inf":
        return -math.inf
    try:
        return int(text)
    except ValueError:
        return float(text)


def outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return type(exc)
    # nan equals no value, itself included
    return type(value), "nan" if value != value else value


SIGNS = st.sampled_from(("", "-", "+"))
SPACE = st.sampled_from(("", " ", "\t", "\n "))
DIGITS = st.text("0123456789_", min_size=0, max_size=6)
NUMERAL = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.floats().map(str),
    st.fractions().map(str),
    st.builds(lambda a, b: f"{a}.{b}", DIGITS, DIGITS),
    st.builds(lambda m, e, k: f"{m}{e}{k}", DIGITS, st.sampled_from("eE"),
              st.integers(-400, 400)),
    st.sampled_from(("inf", "-inf", "+inf", "Infinity", "nan", "NaN", "-nan", "1_000",
                     "1__0", "_1", "1.5e", "e5", ".", "", "0x10", "1/0", "١٢")),
    st.text("0123456789.eE+-_ /ianf", max_size=8),
)


@given(sign=SIGNS, body=NUMERAL, before=SPACE, after=SPACE)
@settings(max_examples=500, deadline=None)
def test_parse_number_answers_as_the_int_first_parse(sign, body, before, after):
    text = before + sign + body + after
    assert outcome(parse_number, text) == outcome(parse_by_int_first, text)


@given(st.one_of(st.integers(), st.floats(allow_nan=False), st.fractions()))
def test_parse_number_inverts_number_str(x):
    assert parse_number(number_str(x)) == x


@pytest.mark.parametrize("text", ["1/0", "3/0", " -2/0 ", "0/0"])
def test_parse_number_refuses_a_zero_denominator(text):
    with pytest.raises(ValueError, match=re.escape(repr(text.strip()))):
        parse_number(text)


def float_outcome(parse, text):
    """The value with the sign of a zero, or the type of the error."""
    try:
        value = parse(text)
    except ValueError as exc:
        return type(exc)
    return type(value), repr(value)


@given(sign=SIGNS, body=NUMERAL, before=SPACE, after=SPACE)
@settings(max_examples=500, deadline=None)
def test_parse_float_reads_as_parse_number(sign, body, before, after):
    text = before + sign + body + after
    assert float_outcome(parse_float, text) == \
        float_outcome(lambda c: float(parse_number(c)), text)


@pytest.mark.parametrize("coord", ["-0", "-0.0", "0", " 2.5 ", "1e-3", "1/3",
                                   "123456789012345678901", 7, 7.5])
def test_cloud_coordinates_parse_bit_for_bit(coord):
    # decimal text goes straight to float; "-0" is the integer 0, so +0.0
    want = float(parse_number(coord))
    model, _p = set_from_json({"type": "points", "coords": [[coord, coord]]})
    for got in (model.points[0][0], parse_float(coord)):
        assert type(got) is float
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("coord", ["1/0", "nan"])
def test_cloud_coordinates_refused(coord, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "points", "coords": [["0", "-1/2"], [coord, "0"]]}))
    assert run(["maxhole", "--set", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid set definition" in captured.err
