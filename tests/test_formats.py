import pytest
from hypothesis import given, settings, strategies as st

from cyclekit.formats import (
    FormatError,
    encode_graph6,
    parse_any,
    parse_dimacs,
    parse_edge_list,
    parse_graph6,
)
from cyclekit.graph import (
    MAX_VERTICES,
    complete,
    cycle_graph,
    from_edge_list,
    petersen,
)
from cyclekit.structure import are_isomorphic
from conftest import mixed_corpus


def test_known_fixtures():
    # [DERIVED: cross-checked against a reference graph6 encoder]
    assert are_isomorphic(parse_graph6("Bw"), complete(3))
    assert are_isomorphic(parse_graph6("C~"), complete(4))
    assert encode_graph6(complete(3)) == "Bw"
    assert encode_graph6(complete(4)) == "C~"


def test_round_trip_small_corpus():
    for g in mixed_corpus(seed=3, per_cell=10):
        text = encode_graph6(g)
        h = parse_graph6(text)
        assert h.n == g.n and h.rows == g.rows
        assert encode_graph6(h) == text


def test_large_n_header():
    g = cycle_graph(60)
    h = parse_graph6(encode_graph6(g))
    assert h.rows == g.rows


@settings(max_examples=20, deadline=None, database=None)
@given(st.data())
def test_graph6_round_trip_every_order(data):
    # orders 63..70 take the 4-byte order field; above 64 vertices parsing
    # refuses the order instead of building the graph
    for n in range(71):
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        body = (len(pairs) + 5) // 6
        if n > MAX_VERTICES:
            order = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
            with pytest.raises(FormatError, match="exceeds"):
                parse_graph6(order + "?" * body)
            continue
        mask = data.draw(st.integers(0, (1 << len(pairs)) - 1))
        g = from_edge_list(n, [e for k, e in enumerate(pairs) if mask >> k & 1])
        text = encode_graph6(g)
        assert len(text) == (1 if n <= 62 else 4) + body
        h = parse_graph6(text)
        assert h == g and encode_graph6(h) == text


def test_malformed_graph6():
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError):
        parse_graph6("B\x19")  # non-printable payload
    with pytest.raises(FormatError):
        parse_graph6("Bwww")  # trailing garbage


def test_edge_list():
    g = parse_edge_list("3 2\n0 1\n1 2\n")
    assert g.q == 2 and g.has_edge(0, 1) and g.has_edge(1, 2)
    with pytest.raises(FormatError, match="capped at 64"):  # refused before allocating
        parse_edge_list("99999999999999999999 0")


def test_dimacs():
    text = "c petersen-free comment\np edge 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n"
    g = parse_dimacs(text)
    assert g.n == 5 and g.q == 4 and g.has_edge(0, 1)
    for bad in ("p edge ² 1", "p edge 3 1\ne 1", "p edge 3 1\ne 1 x", "p edge 99999999999999999999 0"):
        with pytest.raises(FormatError):
            parse_dimacs(bad)


def test_parse_any_dispatch():
    assert are_isomorphic(parse_any("Bw"), complete(3))
    assert parse_any("p edge 3 1\ne 1 3\n").has_edge(0, 2)
    assert parse_any("2 1\n0 1\n").q == 1
    assert are_isomorphic(parse_any(encode_graph6(petersen())), petersen())
    # the first token picks the format, whatever follows it
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    for text in ("p\tedge 3 2\ne 1 2\ne 2 3", "c\tcomment\np edge 3 2\ne 1 2\ne 2 3",
                 "3 2 0 1 1 2", "3 2\n0 1\n1 2"):
        assert parse_any(text) == p3, text
    assert parse_any("2\n1 0 1") == from_edge_list(2, [(0, 1)])
    with pytest.raises(FormatError, match="bad integer in edge list"):
        parse_any("3 2\n0 1\n1 x")
