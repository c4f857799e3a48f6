"""Exact rational arithmetic with a distinguished +infinity value.

Invariant values (toughness, binding number, degree sums) are carried as
``fractions.Fraction`` and never as floats.  The single non-rational value
we need is +infinity (toughness of complete graphs, empty minima), for
which ``math.inf`` works transparently in comparisons and arithmetic
against Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

INF = math.inf

Exact = Union[Fraction, float]


def fmt_exact(x: Exact) -> str:
    """Render as "p/q" (or plain integer) with "inf" for +infinity."""
    if x == INF:
        return "inf"
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_exact(text: str) -> Exact:
    t = text.strip()
    if t == "inf":
        return INF
    return Fraction(t)
