"""Pattern detection and class predicates against networkx references."""

import networkx as nx
import pytest

from cyclekit.graph import (
    GraphError,
    complete,
    complete_bipartite,
    cycle_graph,
    path_graph,
    petersen,
    power,
)
from cyclekit.registry import class_predicates
from cyclekit.structure import (
    bipartition,
    chordal_peo,
    claw,
    contains_induced,
    is_balanced_bipartite,
    is_free,
    is_planar,
    is_split,
    net,
    pattern,
)
from conftest import mixed_corpus, to_networkx


def test_pattern_tokens():
    assert pattern("claw").q == 3
    assert pattern("P6").n == 6 and pattern("P6").q == 5
    assert pattern("C5").q == 5
    assert pattern("K5").q == 10
    assert pattern("K33").q == 9
    assert pattern("N_0_1_2").n == 3 + 0 + 1 + 2
    assert pattern("petersen").n == 10
    with pytest.raises(GraphError):
        pattern("X9")


def test_net_shapes():
    assert net(0, 0, 0).q == 3  # bare triangle
    n111 = net(1, 1, 1)
    assert (n111.n, n111.q) == (6, 6)
    assert sorted(n111.degrees()) == [1, 1, 1, 3, 3, 3]


def test_petersen_pattern_facts():
    g = petersen()
    assert contains_induced(g, claw()) is not None
    assert contains_induced(g, complete(3)) is None  # triangle-free
    assert contains_induced(g, cycle_graph(5)) is not None
    assert is_free(g, [complete(3), complete_bipartite(2, 2)])


def test_embedding_is_induced():
    g = petersen()
    h = cycle_graph(5)
    emb = contains_induced(g, h)
    for u in range(h.n):
        for v in range(u + 1, h.n):
            assert h.has_edge(u, v) == g.has_edge(emb[u], emb[v])


def test_contains_induced_vs_networkx():
    patterns = [claw(), path_graph(4), cycle_graph(4), complete(3), net(0, 0, 1)]
    for g in mixed_corpus(seed=23, per_cell=4, ns=range(3, 8)):
        nxg = to_networkx(g)
        for h in patterns:
            found = contains_induced(g, h)
            assert (found is not None) == _nx_induced(nxg, to_networkx(h)), (g, h)


def _nx_induced(big, small):
    from itertools import combinations

    k = small.number_of_nodes()
    for sub in combinations(big.nodes, k):
        if nx.is_isomorphic(big.subgraph(sub), small):
            return True
    return False


def test_chordal_vs_networkx():
    for g in mixed_corpus(seed=29, per_cell=5, ns=range(2, 9)):
        peo = chordal_peo(g)
        assert (peo is not None) == nx.is_chordal(to_networkx(g)), g


def test_split_frozen():
    assert is_split(complete(4))
    assert is_split(pattern("K14"))  # star = split
    assert not is_split(cycle_graph(5))
    assert not is_split(complete_bipartite(2, 2))


def test_bipartite_predicates():
    assert bipartition(complete_bipartite(3, 3)) is not None
    assert bipartition(cycle_graph(5)) is None
    assert is_balanced_bipartite(complete_bipartite(3, 3))
    assert not is_balanced_bipartite(complete_bipartite(2, 4))
    # components can flip sides: K_{1,3} + K_{1,1} balances as 3+1 vs 1+1? no;
    # P2 + P2 balances trivially
    from cyclekit.graph import disjoint_union

    assert is_balanced_bipartite(disjoint_union([path_graph(2), path_graph(2)]))
    assert is_balanced_bipartite(
        disjoint_union([complete_bipartite(1, 3), complete_bipartite(3, 1)])
    )


def test_planarity_vs_networkx():
    for g in mixed_corpus(seed=31, per_cell=5, ns=range(1, 9)):
        ours = is_planar(g)
        ref, _ = nx.check_planarity(to_networkx(g))
        assert ours == ref, g
    assert is_planar(petersen()) is False
    assert is_planar(complete(5)) is False
    assert is_planar(complete_bipartite(3, 3)) is False
    assert is_planar(power(cycle_graph(8), 2)) is not None


def test_planarity_ceiling():
    assert is_planar(cycle_graph(17)) is None


def test_class_predicates_bundle():
    flags = class_predicates(petersen())
    assert flags == {
        "bipartite": False,
        "balanced_bipartite": False,
        "regular": True,
        "chordal": False,
        "split": False,
        "planar": False,
        "connected": True,
    }
