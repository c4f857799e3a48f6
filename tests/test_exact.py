from fractions import Fraction

from hypothesis import given, strategies as st

from cyclekit.exact import INF, fmt_exact, parse_exact


def test_format_integers_and_fractions():
    assert fmt_exact(Fraction(4)) == "4"
    assert fmt_exact(Fraction(4, 3)) == "4/3"
    assert fmt_exact(Fraction(-3, 2)) == "-3/2"
    assert fmt_exact(INF) == "inf"


def test_parse_round_trip():
    for text in ("0", "7", "4/3", "-5/2", "inf"):
        assert fmt_exact(parse_exact(text)) == text


def test_inf_interacts_with_fractions():
    assert INF > Fraction(10**12)
    assert min(Fraction(5), INF) == Fraction(5)
    # the (tau+1)(delta+1)-1 bound stays infinite for complete graphs
    assert (INF + 1) * (Fraction(4) + 1) - 1 == INF


@given(st.integers())
def test_an_int_formats_as_its_fraction(k):
    assert fmt_exact(k) == fmt_exact(Fraction(k)) == str(k)
