"""Cycle solvers: certificates, degenerate conventions, oracles."""

import random
from itertools import permutations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from cyclekit import cycles
from cyclekit.cycles import (
    CeilingError,
    CertificateError,
    CycleCert,
    LongestCycles,
    PathCert,
    UpperCert,
    _closing_sets,
    _cone,
    _cycle_bound,
    _cycle_search,
    _first_in,
    _longest_cycle,
    _path_levels,
    all_longest_cycles,
    circumference,
    cycles_of_length,
    every_longest_cycle_satisfies,
    exists_cycle_satisfying,
    hamiltonian,
    is_CD_cycle,
    is_PD_cycle,
    is_dominating_cycle,
    longest_path,
    residual_params,
)
from cyclekit.families import build
from cyclekit.graph import (
    Graph,
    bits,
    complete,
    complete_bipartite,
    cycle_graph,
    disjoint_union,
    edgeless,
    from_edge_list,
    path_graph,
    petersen,
    star,
)
from conftest import graphs_up_to, listable_corpus, mixed_corpus, oracle_corpus, seeded_gnp, to_networkx
from oracles import cycle_sets_dp_oracle, hamiltonian_dp_oracle, has_path, is_forest


def naive_circumference(g) -> int:
    """All simple cycles via networkx, plus the degenerate conventions."""
    best = 1 if g.n else 0
    if g.q:
        best = 2
    for cyc in nx.simple_cycles(to_networkx(g)):
        if len(cyc) >= 3:
            best = max(best, len(cyc))
    return best


def test_degenerate_conventions():
    assert circumference(edgeless(1))[0] == 1  # a vertex is a cycle of length 1
    assert circumference(path_graph(2))[0] == 2  # an edge is a cycle of length 2
    assert hamiltonian(edgeless(1)) is not None
    assert hamiltonian(path_graph(2)) is not None
    assert hamiltonian(path_graph(3)) is None
    assert longest_path(edgeless(1))[0] == 0  # path length counts edges


def test_frozen_circumferences():
    assert circumference(petersen())[0] == 9  # [DERIVED]
    assert circumference(complete(6))[0] == 6
    assert circumference(complete_bipartite(3, 4))[0] == 6
    assert circumference(build("join2Kd-K1", delta=4))[0] == 5
    assert circumference(build("theta", i=3, j=3, k=3))[0] == 6


def test_certificates_validate():
    for g in mixed_corpus(seed=37, per_cell=4, ns=range(1, 9)):
        c, cert = circumference(g)
        cert.validate(g)
        assert cert.length == c
        length, pcert = longest_path(g)
        pcert.validate(g)
        assert pcert.edge_length == length


def test_certificate_rejection():
    g = path_graph(4)
    with pytest.raises(CertificateError):
        CycleCert((0, 1, 2, 3)).validate(g)  # 3-0 edge missing
    with pytest.raises(CertificateError):
        CycleCert((0, 0)).validate(g)
    with pytest.raises(CertificateError):
        CycleCert((0, 2)).validate(g)  # not an edge


def test_certificates_compare_and_hash_by_value():
    """``CycleCert`` is a plain class that keeps a frozen record's equality,
    hash and immutability; ``PathCert`` and ``UpperCert`` are NamedTuples."""
    for make, args, other in ((CycleCert, ((0, 1, 2),), (0, 2, 1)),
                              (PathCert, ((0, 1, 2),), (0, 2, 1)),
                              (UpperCert, (0b11, 4), 0b101)):
        a, b = make(*args), make(*args)
        assert a == b and hash(a) == hash(b) and not a != b, make
        assert len({a, b, make(other, *args[1:])}) == 2, make
    assert CycleCert((0, 1)) != PathCert((0, 1)) and PathCert((0, 1)) != CycleCert((0, 1))
    cert = CycleCert((3, 1, 2))
    assert str(cert) == "3 1 2" and repr(cert) == "CycleCert(vertices=(3, 1, 2))"
    with pytest.raises(AttributeError):
        cert.vertices = (1, 2, 3)
    with pytest.raises(AttributeError):
        del cert.vertices


def test_vs_naive_all_cycles():
    for g in mixed_corpus(seed=41, per_cell=5, ns=range(1, 9)):
        assert circumference(g)[0] == naive_circumference(g), g


def test_vs_dp_oracle():
    for g in mixed_corpus(seed=43, per_cell=6, ns=range(1, 11)):
        assert (hamiltonian(g) is not None) == hamiltonian_dp_oracle(g), g


def test_longest_path_vs_networkx_small():
    for g in mixed_corpus(seed=47, per_cell=3, ns=range(2, 8)):
        nxg = to_networkx(g)
        best = 0
        for u in nxg:
            for path in nx.all_simple_paths(nxg, u, set(nxg) - {u}):
                best = max(best, len(path) - 1)
        assert longest_path(g)[0] == best, g


def test_domination_predicates():
    g = build("join2Kd-K1", delta=3)  # 2K_3+K_1
    cyc = CycleCert((6, 0, 1, 2))  # hub + one triangle
    assert not is_dominating_cycle(g, cyc)  # the other K_3 has its own edges
    assert is_PD_cycle(g, cyc, 3)  # residual K_3 has longest path of 2 edges
    assert not is_PD_cycle(g, cyc, 2)
    assert is_CD_cycle(g, cyc, 4)  # residual K_3 cycle has 3 vertices
    assert not is_CD_cycle(g, cyc, 3)
    assert residual_params(g, cyc) == (2, 3)  # p counts edges, cbar vertices
    full = hamiltonian(complete(4))
    assert residual_params(complete(4), full) == (None, None)
    assert is_dominating_cycle(complete(4), full)


def test_all_longest_cycles_canonical():
    certs = list(all_longest_cycles(cycle_graph(5)))
    assert len(certs) == 1  # up to rotation and reflection
    assert certs[0].vertices[0] == 0
    certs6 = list(all_longest_cycles(complete(4)))
    assert len(certs6) == 3  # the three hamilton cycles of K_4
    assert len(set(certs6)) == 3


def test_enumeration_ceiling():
    g = disjoint_union([cycle_graph(11), cycle_graph(10)])  # n=21, non-spanning
    with pytest.raises(CeilingError):
        list(all_longest_cycles(g))
    with pytest.raises(CeilingError):
        every_longest_cycle_satisfies(g, "dominating")
    with pytest.raises(CeilingError):
        exists_cycle_satisfying(g, "dominating")
    # spanning shortcut avoids enumeration even above the ceiling
    ok, _ = every_longest_cycle_satisfies(cycle_graph(24), "dominating")
    assert ok


def test_every_longest_and_exists():
    g = petersen()
    ok, counter = every_longest_cycle_satisfies(g, "dominating")
    assert ok and counter is None  # [DERIVED]
    g2 = build("join2Kd-K1", delta=3)
    ok2, counter2 = every_longest_cycle_satisfies(g2, "dominating")
    assert not ok2 and counter2 is not None
    cert = exists_cycle_satisfying(g2, "CD", 4)
    assert cert is not None and is_CD_cycle(g2, cert, 4)
    # P_3's middle edge is a degenerate dominating 2-cycle; P_5 has none
    assert exists_cycle_satisfying(path_graph(3), "dominating") is not None
    assert exists_cycle_satisfying(path_graph(5), "dominating") is None


def test_pd1_and_cd2_answers_match_the_residual_predicates():
    # PD(1) and CD(2) are answered by the dominating test; the predicates
    # compute p-bar and c-bar of each listed cycle's residual graph.
    for g in mixed_corpus(seed=71, per_cell=6, ns=range(1, 9)):
        c = circumference(g)[0]
        for prop, lam, oracle in (("PD", 1, is_PD_cycle), ("CD", 2, is_CD_cycle)):
            counter = next((cert for cert in cycles_of_length(g, c) if not oracle(g, cert, lam)), None)
            assert every_longest_cycle_satisfies(g, prop, lam) == (counter is None, counter), (g, prop)
            first = next((cert for k in range(c, 0, -1) for cert in cycles_of_length(g, k)
                          if oracle(g, cert, lam)), None)
            assert exists_cycle_satisfying(g, prop, lam) == first, (g, prop)


def test_property_checked_before_hamiltonian_shortcut():
    k4 = complete(4)  # hamiltonian, so both checks would return at once
    for bad in (("bogus", None), ("PD", None), ("CD", 0)):
        with pytest.raises(ValueError):
            every_longest_cycle_satisfies(k4, *bad)
        with pytest.raises(ValueError):
            exists_cycle_satisfying(k4, *bad)
    with pytest.raises(ValueError):
        exists_cycle_satisfying(path_graph(5), "PD")  # enumerates: lambda missing


def canonical(cycle: list[int]) -> tuple[int, ...]:
    i = cycle.index(min(cycle))
    rot = cycle[i:] + cycle[:i]
    return tuple(rot) if rot[1] < rot[-1] else (rot[0], *reversed(rot[1:]))


def test_cycles_of_length_vs_networkx():
    for g in mixed_corpus(ns=range(1, 9)):
        want: dict[int, set] = {}
        for cyc in nx.simple_cycles(to_networkx(g)):
            if len(cyc) >= 3:
                want.setdefault(len(cyc), set()).add(canonical(cyc))
        for k in range(3, circumference(g)[0] + 1):
            got = [cert.vertices for cert in cycles_of_length(g, k)]
            assert len(got) == len(set(got)), (g, k)
            assert set(got) == want.get(k, set()), (g, k)


def test_cycle_bound_is_an_upper_bound():
    for g in mixed_corpus(ns=range(1, 10)):
        c = circumference(g)[0]
        assert c == naive_circumference(g), g
        assert _cycle_bound(g) >= c, g


def random_forest(n: int, rng: random.Random) -> Graph:
    """Each vertex after the first joins an earlier one or starts a new tree."""
    edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
    return from_edge_list(n, edges)


def test_cycle_bound_is_exact_on_block_and_bipartite_extremals():
    cases = []
    for a in range(1, 7):
        for b in range(a, 8):
            cases.append((complete_bipartite(a, b), 2 * a if a >= 2 else 2))
    cases += [(build("moon-moser-cut", quarter=q), 2 * q) for q in range(2, 7)]
    cases += [(build("join2Kd-K1", delta=d), d + 1) for d in range(2, 7)]
    cases += [
        (build("star-of-cliques", t=t, lam=lam, r=r), max(lam, r + 1))
        for t, lam, r in ((1, 3, 0), (2, 4, 2), (3, 3, 5), (2, 5, 1))
    ]
    rng = random.Random(53)
    for n in range(1, 13):
        for _ in range(4):
            g = random_forest(n, rng)
            cases.append((g, 2 if g.q else 1))
    for g, c in cases:
        assert _cycle_bound(g) == c, g
        assert circumference(g)[0] == c, g
        if g.n <= 9:
            assert naive_circumference(g) == c, g


def test_frozen_circumference_witnesses():
    # The bound stops the search at the first cycle an exhaustive search
    # would keep, so these witnesses are the exhaustive search's.
    cases = [
        (build("Kdd1", delta=6), (0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11)),
        (build("moon-moser-cut", quarter=6), (0, 12, 1, 13, 2, 14, 3, 15, 4, 16, 5, 17)),
        (petersen(), (0, 1, 2, 3, 4, 9, 6, 8, 5)),
    ]
    for g, witness in cases:
        c, cert = circumference(g)
        assert (c, cert.vertices) == (len(witness), witness)
        assert hamiltonian(g) is None


# -- the budgeted search and the subset DP ----------------------------------


def test_subset_dp_finishes_with_the_exhaustive_witness(monkeypatch):
    # A budget of one node sends every graph to the DP; a DP ceiling of zero
    # vertices gives the exhaustive search.
    corpus = mixed_corpus(ns=range(1, 11))
    for n in range(11, 15):
        corpus += seeded_gnp(n, 0.5, 3, 59 + n)

    def answers():
        return [
            (_longest_cycle(g), hamiltonian(g), longest_path(g))
            for g in corpus
        ]

    monkeypatch.setattr(cycles, "ENUMERATION_CEILING", 0)
    exhaustive = answers()
    monkeypatch.setattr(cycles, "ENUMERATION_CEILING", 20)
    monkeypatch.setattr(cycles, "SEARCH_BUDGET", 1)
    assert answers() == exhaustive


def test_budget_sized_by_order_keeps_the_exhaustive_witness(monkeypatch):
    # The budget doubles per vertex above 15; on these graphs the searches
    # still outrun it, and the DP still gives the exhaustive search's witness.
    assert [cycles._search_budget(n) for n in (15, 16, 18, 20, 21)] == [2000, 4000, 16000, 64000, None]
    corpus = [
        g for n in range(16, 19) for p in (0.2, 0.25, 0.3)
        for g in seeded_gnp(n, p, 6, 500 + n + int(100 * p))
    ]
    dp_calls = []
    dp = cycles._path_levels
    monkeypatch.setattr(cycles, "_path_levels", lambda *a: dp_calls.append(a[0]) or dp(*a))

    def answers():
        return [
            (_longest_cycle(g), hamiltonian(g), longest_path(g))
            for g in corpus
        ]

    budgeted = answers()
    assert len(set(dp_calls)) >= 10
    monkeypatch.setattr(cycles, "ENUMERATION_CEILING", 0)
    assert answers() == budgeted


def test_search_budget_is_never_below_one(monkeypatch):
    # A countdown that starts at 0 never reaches 0 again, so a budget of 0
    # would mean no budget at all.
    g = petersen()
    for budget in (0, -1):
        with pytest.raises(ValueError):
            next(_cycle_search(g, 2, g.n, budget))
    assert next(_cycle_search(g, 2, g.n, 1)) is None
    # test_subset_dp_finishes_with_the_exhaustive_witness sends every graph
    # of up to 14 vertices to the DP with SEARCH_BUDGET = 1, which every
    # order up to 15 keeps as 1; above 15 it doubles per vertex, as before.
    monkeypatch.setattr(cycles, "SEARCH_BUDGET", 1)
    assert [cycles._search_budget(n) for n in range(16)] == [1] * 16
    assert [cycles._search_budget(n) for n in range(16, 21)] == [2, 4, 8, 16, 32]


def test_budget_schedule_follows_the_dp_cost(monkeypatch):
    budgets = [cycles._search_budget(n) for n in range(21)]
    assert budgets == sorted(budgets)
    assert budgets[15:] == [2000, 4000, 8000, 16000, 32000, 64000]
    assert cycles._search_budget(21) is None
    assert budgets[:15] == [62] * 10 + [125, 250, 500, 1000, 2000]
    # A cycle search past its budget asks for its cuts, and then for the DP
    # unless a cut's bound meets the cycle it holds.
    dp_calls = []
    for name in ("_path_levels", "_default_cuts"):
        dp = getattr(cycles, name)
        monkeypatch.setattr(cycles, name, lambda *a, dp=dp: dp_calls.append(a[0]) or dp(*a))
    # The floor lets a search of a few dozen nodes end without the DP.
    for g in mixed_corpus(ns=[6]):
        _longest_cycle(g), longest_path(g)
    assert not dp_calls
    # Graphs of the sharpness audits whose searches run past the budget.
    corpus = [
        build("H", a=1, b=2, t=4, k=3),
        petersen(),
        build("H", a=2, b=2, t=3, k=3),
        build("aK2-join-Kbar", a=4),
        build("tKa-join-Kb", t=3, a=3, b=2),
        build("bridge-gadget"),
        build("H", a=1, b=2, t=5, k=4),
    ]
    assert sorted(g.n for g in corpus) == [10, 10, 11, 11, 11, 12, 12]

    def answers():
        return [
            (_longest_cycle(g), hamiltonian(g), longest_path(g))
            for g in corpus
        ]

    budgeted = answers()
    for g in corpus:
        assert g in dp_calls, g
    monkeypatch.setattr(cycles, "ENUMERATION_CEILING", 0)
    assert answers() == budgeted


def test_subset_dp_circumference_vs_oracles():
    # c is the highest level, over every minimum vertex, with a closing set
    # (an edge closes at level 2; a bare vertex keeps c = 1).  From 3 up, the
    # witness finder on a level's closing sets gives the first listed cycle
    # of that length and minimum vertex.
    for g in mixed_corpus(seed=61, per_cell=6, ns=range(1, 10)):
        c = 1
        for s in range(g.n):
            levels = _path_levels(g, s, g.n)
            for k in range(2, len(levels)):
                sets = _closing_sets(g, levels, k)
                if sets:
                    c = max(c, k)
                if k >= 3:
                    first = next((cert.vertices for cert in cycles_of_length(g, k)
                                  if cert.vertices[0] == s), None)
                    assert (_first_in(g, levels, k, sets, s) if sets else None) == first, (g, s, k)
        assert c == naive_circumference(g), g
        assert (c == g.n) == hamiltonian_dp_oracle(g), g


def dp_oracle_graphs() -> list[Graph]:
    """Graphs of 15 to 19 vertices, decided by the subset DP, for the flat
    DP oracle."""
    return [
        build("Gn", n=17, delta=6),
        build("Gstar", n=17),
        build("L", delta=6),
        complete_bipartite(7, 9),
        *(g for n in range(15, 19) for g in seeded_gnp(n, 0.25, 2, seed=1800 + n)),
    ]


def assert_matches_flat_dp(g: Graph) -> None:
    """c, every longest cycle's vertex set, and the every-longest and exists
    answers agree with the flat DP oracle.  Each property is read off the
    set a cycle leaves off by the oracles' own searches: PD(lam) holds when
    it has no path of lam edges, CD(2) when it has no edge (a 2-cycle) and
    CD(3) when it is a forest."""
    sets = cycle_sets_dp_oracle(g)
    c, full = max(sets), g.full_mask
    lc = LongestCycles(g)
    listed = list(lc.cycle_sets(c))
    assert lc.c == c and len(listed) == len(set(listed)) and set(listed) == sets[c], g
    tests = {
        ("dominating", None): lambda off: not any(g.rows[v] & off for v in bits(off)),
        ("PD", 1): lambda off: not has_path(g, off, 1),
        ("PD", 2): lambda off: not has_path(g, off, 2),
        ("PD", 3): lambda off: not has_path(g, off, 3),
        ("CD", 2): lambda off: not has_path(g, off, 1),
        ("CD", 3): lambda off: is_forest(g, off),
    }
    for (prop, lam), test in tests.items():
        ok, counter = every_longest_cycle_satisfies(lc, prop, lam)
        assert ok == (c == g.n or all(test(full ^ t) for t in sets[c])), (g, prop, lam)
        if not ok:
            assert counter.mask() in sets[c] and not test(full ^ counter.mask())
        cert = exists_cycle_satisfying(lc, prop, lam)
        length = g.n if c == g.n else next(
            (k for k in range(c, 0, -1) if any(test(full ^ t) for t in sets.get(k, ()))), None)
        assert (cert.length if cert else None) == length, (g, prop, lam)
        if cert and c < g.n:
            assert cert.mask() in sets[length] and test(full ^ cert.mask())


def test_longest_cycle_answers_match_the_flat_dp_oracle():
    # Past the naive loops' 14 vertices.  The 19- and 20-vertex graphs are
    # a manual run, about 11 s and 130 MB: from tests/, with src on PYTHONPATH,
    #   python -c "from test_cycles import *; [assert_matches_flat_dp(g) for g in
    #              [build('Gn', n=19, delta=7), *seeded_gnp(20, 0.3, 2, seed=2000)]]"
    for g in dp_oracle_graphs():
        assert_matches_flat_dp(g)


def networkx_longest_path_vertices(nxg) -> int:
    """Vertices of a longest simple path, from networkx's listing; a Hamilton
    path ends it early."""
    n = nxg.number_of_nodes()
    best = 1
    for u in nxg:
        for path in nx.all_simple_paths(nxg, u, set(nxg) - {u}):
            best = max(best, len(path))
            if best == n:
                return n
    return best


def least_path_through(nxg, t: int) -> tuple[int, ...]:
    """The lexicographically least ordering of the vertex set t that is a
    path, by trying every ordering in lexicographic order."""
    adj = {v: set(nxg[v]) for v in bits(t)}
    return next(p for p in permutations(bits(t)) if all(b in adj[a] for a, b in zip(p, p[1:])))


def test_subset_dp_longest_path_vs_oracles():
    # On the cone K_1 + G, the DP from the apex tops out one level above the
    # longest path of G, and at every level the witness finder, given about
    # half of the closing sets, grows the apex followed by the least path of
    # G, shifted by one, whose vertex set (the apex dropped) is one of them.
    rng = random.Random(20)
    for g in mixed_corpus(ns=range(1, 10)):
        nxg = to_networkx(g)
        cone = _cone(g)
        levels = _path_levels(cone, 0, cone.n)
        assert len(levels) - 2 == networkx_longest_path_vertices(nxg), g
        for k in range(2, len(levels)):
            sets = _closing_sets(cone, levels, k)
            assert sets == list(levels[k]), (g, k)
            live = [t for t in sets if rng.random() < 0.5] or sets
            want = min(least_path_through(nxg, t >> 1) for t in live)
            assert _first_in(cone, levels, k, live, 0) == (0, *(v + 1 for v in want)), (g, k)
        top = _first_in(cone, levels, len(levels) - 1, list(levels[-1]), 0)
        assert longest_path(g)[1].vertices == tuple(v - 1 for v in top[1:]), g


def test_frozen_witnesses_past_the_budget():
    # Each search below outruns the floor budget, so a cut certificate or the
    # DP gives the optimum; the witnesses are those of the exhaustive search.
    cases = [
        (build("Gn", n=15, delta=5), (0, 7, 1, 8, 3, 9, 4, 10, 5, 11, 2, 14, 13, 12)),
        (build("H", a=1, b=2, t=5, k=4), (0, 5, 1, 6, 2, 7, 10, 11, 8, 3, 9)),
        (build("tKa-join-Kb", t=3, a=4, b=2), (0, 1, 2, 3, 12, 4, 5, 6, 7, 13)),
        (build("Gn", n=17, delta=6), (0, 8, 1, 9, 3, 10, 4, 11, 5, 12, 6, 13, 2, 16, 15, 14)),
        (build("Gstar", n=17), (0, 8, 1, 9, 3, 10, 4, 11, 5, 12, 6, 13, 2, 16, 15, 14)),
    ]
    for g, witness in cases:
        c, cert = circumference(g)
        assert (c, cert.vertices) == (len(witness), witness)
        assert hamiltonian(g) is None
    length, path = longest_path(complete_bipartite(6, 7))
    assert (length, path.vertices) == (12, (6, 0, 7, 1, 8, 2, 9, 3, 10, 4, 11, 5, 12))
    # The searches of their cones outrun the budgets of 17 vertices too, so
    # the DP on each cone and the witness finder give these paths.
    for g in (build("Gn", n=17, delta=6), build("Gstar", n=17)):
        length, path = longest_path(g)
        assert (length, path.vertices) == (16, (0, 8, 1, 15, 14, 16, 2, 9, 3, 10, 4, 11, 5, 12, 6, 13, 7))


def seeded_tree(n: int, seed: int) -> Graph:
    """A random recursive tree on n vertices, its labels shuffled."""
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    return from_edge_list(n, [(label[v], label[rng.randrange(v)]) for v in range(1, n)])


def least_diameter_path(nxt) -> tuple[int, ...]:
    """The lexicographically least longest path of a tree: the least of the
    unique paths between two vertices at the diameter's distance."""
    dist = dict(nx.all_pairs_shortest_path_length(nxt))
    d = max(max(row.values()) for row in dist.values())
    return min(tuple(nx.shortest_path(nxt, u, v)) for u in nxt for v in nxt if dist[u][v] == d)


def test_longest_path_above_the_dp_cap_and_at_the_graph_cap():
    # The cone of a 64-vertex graph has 65 vertices, one more than a Graph
    # may have; above 20 vertices no DP backs the search, so it must end by
    # its pruning alone.
    trees = [path_graph(64), star(63), seeded_tree(40, 40), seeded_tree(64, 64)]
    assert [t.n for t in trees] == [64, 64, 40, 64]
    for t in trees:
        nxt = to_networkx(t)
        assert nx.is_tree(nxt)
        length, cert = longest_path(t)
        cert.validate(t)
        assert length == cert.edge_length == nx.diameter(nxt), t
        assert cert.vertices == least_diameter_path(nxt), t
    assert longest_path(star(63))[1].vertices == (1, 0, 2)


def test_cycle_search_prunes_inside_the_free_vertices():
    # Flooding through s would reach every free vertex of a cone through its
    # apex: the exhaustive search of this cone took 61,138 nodes that way
    # and takes 495 with the flood kept inside the free vertices.  The
    # plain cycle search visits 667 nodes here, against 1,340.
    g = seeded_gnp(22, 0.15, 2, 3022)[0]
    for h in (g, _cone(g)):
        assert None not in _cycle_search(h, 2, h.n, 1000), h
    assert None in _cycle_search(g, 2, g.n, 600)


def test_the_cone_is_budgeted_by_the_order_of_g(monkeypatch):
    # A graph at the DP cap reaches the DP through its cone, one vertex
    # above the cap, and gets the exhaustive search's witness from it.
    g = petersen()
    monkeypatch.setattr(cycles, "ENUMERATION_CEILING", 0)
    want = longest_path(g)
    dp_calls = []
    dp = cycles._path_levels
    monkeypatch.setattr(cycles, "_path_levels", lambda *a: dp_calls.append(a[0]) or dp(*a))
    monkeypatch.setattr(cycles, "ENUMERATION_CEILING", g.n)
    monkeypatch.setattr(cycles, "SEARCH_BUDGET", 1)
    assert longest_path(g) == want
    assert dp_calls and {h.n for h in dp_calls} == {g.n + 1}


# -- separator certificates -------------------------------------------------


def test_separator_bound_holds_for_every_cut():
    # c from the listing alone: the longest length that has a cycle.
    corpus = [g for g in oracle_corpus() if g.n <= 10] + [complete(1), complete(2), path_graph(3)]
    for g in corpus:
        c = next(k for k in range(g.n, 0, -1) if next(cycles_of_length(g, k), None))
        for cut in range(1 << g.n):
            assert UpperCert.of(g, cut).bound >= c, (g, cut)


def test_separator_bound_of_one_vertex():
    # On K_2 the counting formula alone gives 1; the edge is a 2-cycle.
    assert [UpperCert.of(complete(1), 1).bound] == [1]
    assert [UpperCert.of(complete(2), 1 << v).bound for v in range(2)] == [2, 2]
    assert [UpperCert.of(path_graph(3), 1 << v).bound for v in range(3)] == [2, 2, 2]
    # Two of the three K_4s of 3K_4+K_2 through its two hubs.
    assert UpperCert.of(build("tKa-join-Kb", t=3, a=4, b=2), 0b11 << 12).bound == 10


@settings(max_examples=300, deadline=None, database=None)
@given(graphs_up_to(9), st.data())
def test_mutated_upper_certificates_are_rejected(g, data):
    cut = data.draw(st.integers(0, (1 << g.n) - 1))
    cert = UpperCert.of(g, cut)
    cert.validate(g)
    UpperCert(cut, cert.bound + 1).validate(g)  # a weaker bound still holds
    with pytest.raises(CertificateError):
        UpperCert(cut, cert.bound - data.draw(st.integers(1, 3))).validate(g)
    with pytest.raises(CertificateError):
        UpperCert(cut | 1 << data.draw(st.integers(g.n, g.n + 64)), g.n).validate(g)


def test_a_certificate_that_meets_the_search_skips_the_dp(monkeypatch):
    # The hub cut of 3K_4+K_2 and the complement of a maximum independent
    # set of H(1,2,5,4) bound c by c itself, so the search ends at its first
    # c-cycle; either answer is test_frozen_witnesses_past_the_budget's.
    cases = [build("tKa-join-Kb", t=3, a=4, b=2), build("H", a=1, b=2, t=5, k=4)]
    want = [_longest_cycle(g) for g in cases]

    def no_dp(*args):
        raise AssertionError("the subset DP ran")

    # The search yields None every floor budget of nodes, and the cuts are
    # asked for at the first None, well before the budget of 14 vertices.
    steps, checkpoints, asked = [], [0], []
    search = cycles._cycle_search

    def counted(g, floor, cap, budget=None):
        steps.append(budget)
        for path in search(g, floor, cap, budget):
            checkpoints[0] += path is None
            yield path

    monkeypatch.setattr(cycles, "_path_levels", no_dp)
    monkeypatch.setattr(cycles, "_cycle_search", counted)
    for g, answer in zip(cases, want):
        checkpoints[0] = 0
        cuts = cycles._default_cuts(g)
        assert _longest_cycle(g, cuts=lambda: asked.append(checkpoints[0]) or cuts) == answer
    assert steps == [cycles._search_budget(0)] * 2 and asked == [1, 1]
    assert [cycles._search_budget(g.n) for g in cases] == [2000, 500]
    with pytest.raises(AssertionError):
        _longest_cycle(cases[0], cuts=lambda: ())


# -- cycle vertex sets from the subset DP ------------------------------------


def assert_sets_match_listing(g: Graph) -> LongestCycles:
    """Every length's DP vertex sets are the listed cycles' sets, each once."""
    lc = LongestCycles(g)
    for k in range(1, lc.c + 1):
        sets = list(lc.cycle_sets(k))
        assert len(sets) == len(set(sets)), (g, k)
        assert set(sets) == {cert.mask() for cert in cycles_of_length(g, k)}, (g, k)
    return lc


def test_cycle_sets_match_the_listed_cycles():
    for g in listable_corpus():
        if g.n:
            assert_sets_match_listing(g)


@settings(max_examples=200, deadline=None, database=None)
@given(graphs_up_to(9), st.integers(0, 2**32), st.integers(1, 5))
def test_first_cycle_is_the_first_listed_cycle_that_passes(g, salt, spread):
    # An arbitrary test on off-cycle sets: about one set in ``spread`` passes.
    if not g.n:
        return
    lc = assert_sets_match_listing(g)
    full = g.full_mask

    def test(lc, off):
        return hash((salt, off)) % spread == 0

    for k in range(1, lc.c + 1):
        want = next((cert for cert in cycles_of_length(g, k) if test(lc, full ^ cert.mask())), None)
        assert lc.first_cycle(k, test) == want, (g, k)


def test_dp_levels_are_built_once_per_minimum_vertex(monkeypatch):
    # The search's DP and the checks share one level list per graph: no
    # (graph, minimum vertex) pair is built twice, whichever asks first.
    from cyclekit.registry import Profile, check_all

    built = []
    build_levels = cycles._path_levels
    monkeypatch.setattr(cycles, "_path_levels", lambda g, s, cap: built.append((g, s)) or build_levels(g, s, cap))
    gstar, gn = build("Gstar", n=17), build("Gn", n=17, delta=6)
    check_all(Profile(gstar))
    every_longest_cycle_satisfies(gn, "dominating")
    assert {g for g, _ in built} == {gstar, gn}
    assert len(built) == len(set(built))


def test_cd1_without_a_hamilton_cycle_tests_no_cycle(monkeypatch):
    # CD(1) needs c-bar < 1, which only a spanning cycle meets: a vertex left
    # off is a cycle of length 1.
    calls = []
    first_cycle = LongestCycles.first_cycle
    monkeypatch.setattr(LongestCycles, "first_cycle", lambda *a: calls.append(a[1]) or first_cycle(*a))
    g = build("Gn", n=15, delta=5)
    lc = LongestCycles(g)
    assert lc.c < g.n
    assert exists_cycle_satisfying(lc, "CD", 1) is None
    assert not calls
    assert every_longest_cycle_satisfies(lc, "CD", 1)[0] is False
    assert exists_cycle_satisfying(cycle_graph(5), "CD", 1) == CycleCert((0, 1, 2, 3, 4))


# -- certificate rejection under mutation -------------------------------------


@st.composite
def certified(draw):
    """A graph with one valid cycle or path certificate of at least 2 vertices."""
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    g = from_edge_list(n, [e for e in pairs if draw(st.booleans())])
    if not g.q:
        g = from_edge_list(n, [(0, 1)])
    if draw(st.booleans()):
        return g, circumference(g)[1]
    return g, longest_path(g)[1]


@settings(max_examples=300, deadline=None, database=None)
@given(certified(), st.data())
def test_mutated_certificates_are_rejected(case, data):
    g, cert = case
    cert.validate(g)
    vs = list(cert.vertices)
    i = data.draw(st.integers(0, len(vs) - 1))
    kind = data.draw(st.sampled_from(["non-neighbour", "repeat", "out of range"]))
    if kind == "non-neighbour":
        # vs[i] gets a vertex its predecessor (or successor, at a path's start) does not see
        j = i - 1 if i or isinstance(cert, CycleCert) else 1
        anchor = vs[j]
        strangers = [w for w in range(g.n) if w != anchor and not g.has_edge(anchor, w)]
        if not strangers:
            kind = "repeat"
        else:
            vs[i] = data.draw(st.sampled_from(strangers))
    if kind == "repeat":
        vs.insert(data.draw(st.integers(0, len(vs))), vs[i])
    if kind == "out of range":
        vs[i] = data.draw(st.integers(g.n, g.n + 64) | st.integers(-64, -1))
    with pytest.raises(CertificateError):
        type(cert)(tuple(vs)).validate(g)
