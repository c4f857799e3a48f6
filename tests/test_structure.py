"""Pattern detection and class predicates against networkx references."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings

from cyclekit.catalog import catalog
from cyclekit.cycles import CertificateError
from cyclekit.graph import (
    GraphError,
    complete,
    complete_bipartite,
    cycle_graph,
    from_edge_list,
    path_graph,
    petersen,
    power,
)
from cyclekit.registry import class_predicates
from cyclekit.structure import (
    KuratowskiCert,
    RotationCert,
    are_isomorphic,
    bipartition,
    chordal_peo,
    claw,
    contains_induced,
    is_balanced_bipartite,
    is_chordal,
    is_free,
    is_planar,
    is_split,
    net,
    pattern,
    planarity_certificate,
)
from conftest import graphs_up_to, mixed_corpus, oracle_corpus, seeded_gnp, to_networkx
from oracles import chordal_peo as list_chordal_peo
from oracles import contains_induced as backtracking_contains_induced
from oracles import is_chordal as list_is_chordal
from oracles import is_split as list_is_split


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


# The forbidden induced subgraphs of the catalog's premises.
CATALOG_PATTERNS = list(dict.fromkeys(h for s in catalog() for p in s.premises for h in p.patterns))


def _same_embedding(g, h):
    """contains_induced(g, h) equals the vertex-by-vertex search's, key order included."""
    got, want = contains_induced(g, h), backtracking_contains_induced(g, h)
    return got == want and list(got or ()) == list(want or ())


def test_bitmask_candidates_match_the_backtracking_search():
    patterns = CATALOG_PATTERNS + [cycle_graph(5), petersen()]
    for g in oracle_corpus():
        for h in patterns:
            assert _same_embedding(g, h), (g, h)


@settings(max_examples=200, deadline=None, database=None)
@given(graphs_up_to(12))
def test_bitmask_candidates_match_the_backtracking_search_on_any_graph(g):
    for h in CATALOG_PATTERNS:
        assert _same_embedding(g, h), h


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


def assert_chordal_and_split_match(g):
    """The bitmask search's ordering is the list-based search's, and both
    predicates agree with the references and with networkx."""
    h = to_networkx(g)
    chordal = nx.is_chordal(h)
    assert chordal_peo(g) == list_chordal_peo(g), g.edges()
    assert is_chordal(g) is list_is_chordal(g) is chordal, g.edges()
    split = chordal and nx.is_chordal(nx.complement(h))
    assert is_split(g) is list_is_split(g) is split, g.edges()


def test_chordal_and_split_on_the_graph_atlas():
    for h in nx.graph_atlas_g():  # every graph on at most 7 vertices
        assert_chordal_and_split_match(from_edge_list(h.number_of_nodes(), h.edges()))


@settings(max_examples=300, deadline=None, database=None)
@given(graphs_up_to(12))
def test_chordal_and_split_on_any_graph(g):
    assert_chordal_and_split_match(g)


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


@settings(max_examples=300, deadline=None, database=None)
@given(graphs_up_to(12))
def test_bipartition_vs_networkx(g):
    sides = bipartition(g)
    assert (sides is not None) == nx.is_bipartite(to_networkx(g)), g.edges()
    if sides is None:
        return
    first, second = sides
    assert first & second == 0 and first | second == g.full_mask
    assert g.is_independent(first) and g.is_independent(second)
    for comp in g.component_masks():
        assert first & comp & -comp, (g.edges(), comp)


def assert_planarity_matches_networkx(g):
    """is_planar agrees with networkx, and the certificate validates."""
    ours = is_planar(g)
    assert ours is nx.check_planarity(to_networkx(g))[0], g.edges()
    cert = planarity_certificate(g)
    assert isinstance(cert, RotationCert if ours else KuratowskiCert)
    cert.validate(g)


def test_planarity_vs_networkx():
    for g in mixed_corpus(seed=31, per_cell=5, ns=range(1, 9)):
        assert_planarity_matches_networkx(g)
    assert is_planar(petersen()) is False
    assert is_planar(complete(5)) is False
    assert is_planar(complete_bipartite(3, 3)) is False
    assert is_planar(power(cycle_graph(8), 2)) is True


def test_planarity_ceiling():
    assert is_planar(cycle_graph(17)) is True
    assert is_planar(power(cycle_graph(20), 4)) is False


def test_planarity_on_the_graph_atlas():
    atlas = nx.graph_atlas_g()  # every graph on at most 7 vertices
    assert len(atlas) == 1253
    for h in atlas:
        assert_planarity_matches_networkx(from_edge_list(h.number_of_nodes(), h.edges()))


def test_planarity_near_the_threshold():
    # mean degree 2..4: the giant component appears and K_5 / K_{3,3}
    # subdivisions start to form, so both answers occur at every size
    verdicts = set()
    for n in range(8, 41):
        for d in (2.0, 2.5, 3.0, 3.5, 4.0):
            for g in seeded_gnp(n, d / n, 2, 7000 + 10 * n + int(2 * d)):
                assert_planarity_matches_networkx(g)
                verdicts.add((n > 20, is_planar(g)))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def test_planarity_on_maximal_planar_graphs():
    # grow a triangulation edge by edge in a seeded order, networkx deciding;
    # a rejected edge gives a non-planar graph at the Euler bound or below
    for seed, n in ((1, 9), (2, 16), (3, 25), (4, 40)):
        rng = random.Random(seed)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        edges, certified = [], 0
        for e in pairs:
            g = from_edge_list(n, edges + [e])
            if nx.check_planarity(to_networkx(g))[0]:
                assert is_planar(g)
                edges.append(e)
            else:
                assert not is_planar(g)
                if certified < 3 and g.q <= 3 * n - 6:
                    certified += 1
                    planarity_certificate(g).validate(g)
        assert len(edges) == 3 * n - 6 and certified == 3
        assert_planarity_matches_networkx(from_edge_list(n, edges))


def subdivide(g, k):
    """Each edge of g replaced by a path with k inner vertices."""
    edges, nxt = [], g.n
    for u, v in g.edges():
        path = [u, *range(nxt, nxt + k), v]
        nxt += k
        edges += zip(path, path[1:])
    return from_edge_list(nxt, edges)


def relabel(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_isomorphism_vs_networkx():
    corpus = list(dict.fromkeys(mixed_corpus()))
    for k, g in enumerate(corpus):
        h = relabel(g, k)
        assert are_isomorphic(g, h) and nx.is_isomorphic(to_networkx(g), to_networkx(h)), g.edges()
    classes = {}
    for g in corpus:
        classes.setdefault((g.n, g.q, tuple(sorted(g.degrees()))), []).append(g)
    verdicts = set()
    for same in classes.values():
        for i, g in enumerate(same):
            for h in same[i + 1:]:
                ours = are_isomorphic(g, h)
                assert ours == nx.is_isomorphic(to_networkx(g), to_networkx(h)), (g.edges(), h.edges())
                verdicts.add(ours)
    assert verdicts == {False, True}


def grid(r, c):
    return from_edge_list(
        r * c,
        [(i * c + j, i * c + j + 1) for i in range(r) for j in range(c - 1)]
        + [(i * c + j, (i + 1) * c + j) for i in range(r - 1) for j in range(c)],
    )


def test_planarity_on_families_up_to_64_vertices():
    family = [petersen(), relabel(petersen(), 5)]
    family += [power(cycle_graph(n), k) for k in (2, 3) for n in range(2 * k + 2, 65, 5)]
    family += [grid(r, c) for r, c in ((2, 2), (3, 5), (5, 5), (4, 12), (8, 8))]
    family += [subdivide(complete(5), k) for k in range(6)]
    family += [subdivide(complete_bipartite(3, 3), k) for k in range(7)]
    family += [relabel(subdivide(complete(5), 4), 1), relabel(subdivide(complete_bipartite(3, 3), 4), 2)]
    # a planar graph and a Kuratowski subdivision hung off one cut vertex
    hung = [(u + 36, v + 36) for u, v in subdivide(complete(5), 2).edges()]
    family.append(from_edge_list(64, grid(6, 6).edges() + [(35, 36), *hung]))
    for g in family:
        assert_planarity_matches_networkx(g)
    assert is_planar(grid(8, 8)) and not is_planar(subdivide(complete_bipartite(3, 3), 6))


def test_planarity_certificates_reject_mutants():
    g = power(cycle_graph(12), 2)  # 4-connected planar: one embedding up to mirroring
    rot = planarity_certificate(g)
    swapped = list(rot.rotation)
    a, b, *rest = swapped[0]
    swapped[0] = (b, a, *rest)
    with pytest.raises(CertificateError, match="V - E \\+ F"):
        RotationCert(tuple(swapped)).validate(g)
    with pytest.raises(CertificateError, match="cyclic order"):
        RotationCert((swapped[0][1:], *swapped[1:])).validate(g)

    h = subdivide(complete_bipartite(3, 3), 1)
    wit = planarity_certificate(h)
    assert sorted(wit.edges) == sorted(h.edges())
    with pytest.raises(CertificateError, match="neither K_5 nor K_\\{3,3\\}"):
        KuratowskiCert(wit.edges[1:]).validate(h)
    with pytest.raises(CertificateError, match="not an edge"):
        KuratowskiCert(wit.edges + ((0, 1),)).validate(h)
    # K_5 with edge 0-1 kept and also subdivided by vertex 5
    k5 = from_edge_list(6, complete(5).edges() + [(0, 5), (5, 1)])
    with pytest.raises(CertificateError, match="parallel edge 0-1"):
        KuratowskiCert(tuple(k5.edges())).validate(k5)


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
