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


def old_fmt_exact(x) -> str:
    """fmt_exact as it was before Fractions were printed with str."""
    if type(x) is int:
        return str(x)
    if x == INF:
        return "inf"
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def test_format_matches_the_numerator_denominator_form():
    values = [Fraction(p, q) for p in range(-30, 31) for q in range(1, 13)]
    values += list(range(-30, 31)) + [INF]
    for x in values:
        assert fmt_exact(x) == old_fmt_exact(x), x


@given(st.integers())
def test_an_int_formats_as_its_fraction(k):
    assert fmt_exact(k) == fmt_exact(Fraction(k)) == str(k)
