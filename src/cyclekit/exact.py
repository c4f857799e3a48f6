"""Exact arithmetic with a distinguished +infinity value.

Integer-valued quantities (orders, degrees, degree sums, connectivity,
circumference and every bound built from them alone) stay plain ``int``;
a quotient (toughness, binding number, a bound like n/3) is a
``fractions.Fraction``.  Comparisons between the two are exact, and no
value is ever a float.  The single non-rational value we need is
+infinity (toughness of complete graphs, empty minima), for which
``math.inf`` works transparently in comparisons and arithmetic against
ints and Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

INF = math.inf

Exact = Union[int, Fraction, float]


def fmt_exact(x: Exact) -> str:
    """Render as "p/q" (or plain integer) with "inf" for +infinity."""
    return str(x)  # str(math.inf) is "inf"; a Fraction's str is "p/q", or "p" when q = 1


def parse_exact(text: str) -> Exact:
    t = text.strip()
    if t == "inf":
        return INF
    return Fraction(t)
