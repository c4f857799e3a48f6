import pickle
import random
import tracemalloc

import pytest

from cyclekit import cli
from cyclekit.graph import (
    Graph,
    GraphError,
    complement,
    complete,
    complete_bipartite,
    cycle_graph,
    disjoint_union,
    edgeless,
    from_edge_list,
    induced_subgraph,
    join,
    path_graph,
    petersen,
    power,
)
from cyclekit.structure import are_isomorphic
from conftest import mixed_corpus


def test_construction_validation():
    with pytest.raises(GraphError):
        Graph(2, (0b10,))  # row count mismatch
    with pytest.raises(GraphError):
        Graph(2, (0b01, 0b10))  # self loop
    with pytest.raises(GraphError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(GraphError):
        Graph(2, (0b110, 0b001))  # row 0 names vertex 2
    with pytest.raises(GraphError):
        Graph(-1, ())


def test_graphs_compare_and_hash_by_value_and_stay_immutable():
    """Pattern caches and ``Profile``'s free-pattern table key on graphs."""
    a, b = cycle_graph(5), from_edge_list(5, [(0, 4), (3, 4), (2, 3), (1, 2), (0, 1)])
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, complete(5), edgeless(5), Graph(5, (0,) * 5)}) == 3
    assert a != complement(a) and a != (5, a.rows)
    for attr in ("n", "rows"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert pickle.loads(pickle.dumps(a)) == a


def test_basic_counts():
    g = complete(5)
    assert (g.n, g.q) == (5, 10)
    assert g.degrees() == [4] * 5
    assert cycle_graph(6).q == 6
    assert path_graph(6).q == 5
    assert complete_bipartite(3, 4).q == 12
    assert edgeless(7).q == 0


def test_petersen_profile():
    g = petersen()
    assert (g.n, g.q) == (10, 15)
    assert set(g.degrees()) == {3}


def test_join_and_union():
    g = join(complete(3), complete(2))  # K_5
    assert are_isomorphic(g, complete(5))
    h = disjoint_union([complete(3), complete(3)])
    assert (h.n, h.q) == (6, 6)
    assert h.count_components() == 2


def test_complement_and_induced():
    g = complement(cycle_graph(5))
    assert are_isomorphic(g, cycle_graph(5))  # C5 is self-complementary
    sub = induced_subgraph(complete(6), 0b10101)
    assert are_isomorphic(sub, complete(3))


def test_power_square_of_path():
    # P_5 squared: each vertex also sees distance-2 vertices
    g = power(path_graph(5), 2)
    assert g.q == 4 + 3


def test_isomorphism_negative():
    assert not are_isomorphic(cycle_graph(6), disjoint_union([cycle_graph(3)] * 2))
    assert not are_isomorphic(path_graph(4), cycle_graph(4))


def test_is_independent_vs_pairwise_edges():
    rng = random.Random(3)
    verdicts = set()
    for g in mixed_corpus(seed=43, per_cell=3, ns=range(0, 13)):
        for _ in range(8):
            mask = rng.getrandbits(g.n) & rng.getrandbits(g.n)
            pairwise = not any(g.has_edge(u, v) for u in range(g.n) for v in range(u)
                               if mask >> u & mask >> v & 1)
            assert g.is_independent(mask) == pairwise, (g.edges(), mask)
            verdicts.add(pairwise)
    assert verdicts == {False, True}


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(GraphError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(GraphError):
        from_edge_list(2, [(1, 1)])


def test_orders_above_the_cap_fail_before_allocating(capsys):
    # complete(8000) would build 8000 rows of 8000 bits before Graph refused it
    for build in (lambda: edgeless(65), lambda: complete(65), lambda: complete_bipartite(40, 40)):
        with pytest.raises(GraphError, match="capped"):
            build()
    with pytest.raises(GraphError, match="nonnegative"):
        complete(-1)
    tracemalloc.start()
    try:
        code = cli.run(["construct", "complete", "--n", "8000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "capped" in capsys.readouterr().err
    assert peak < 1 << 20
