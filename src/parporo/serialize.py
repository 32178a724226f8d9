"""Report number formatting: exact fractions as "p/q", floats as repr strings.

All report JSON keeps numbers as strings so that reports diff cleanly
across platforms and re-parse to equal values.
"""

from __future__ import annotations

import math
from fractions import Fraction


def fraction_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def number_str(x) -> str:
    if isinstance(x, Fraction):
        return fraction_str(x)
    if isinstance(x, int):
        return str(x)
    v = float(x)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return repr(v)


def parse_number(s):
    """Inverse of ``number_str``: fraction strings to Fraction, else float.

    Raises ``ValueError`` on text that is no number, a zero denominator
    included.
    """
    if isinstance(s, (int, float, Fraction)):
        return s
    text = str(s).strip()
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    if text == "inf":
        return math.inf
    if text == "-inf":
        return -math.inf
    if "." in text or "e" in text or "E" in text:
        return float(text)  # int() accepts none of these
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_float(s) -> float:
    """``float(parse_number(s))``.  Decimal text, a ``.`` and no ``/``, goes
    straight to ``float``, which reads it as ``parse_number`` does; other
    text keeps its meaning there (``"-0"`` is the integer 0, so ``+0.0``).
    """
    if type(s) is str and "." in s and "/" not in s:
        return float(s)
    return float(parse_number(s))


def interval_json(iv) -> list[str]:
    return [number_str(iv.lo), number_str(iv.hi)]
