"""Invariant solvers against naive re-implementations and networkx."""

import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from time import perf_counter

import networkx as nx
from hypothesis import given, settings

from cyclekit import invariants
from cyclekit.exact import INF
from cyclekit.families import build
from cyclekit.graph import (
    Graph,
    bits,
    complement,
    complete,
    complete_bipartite,
    cycle_graph,
    from_edge_list,
    path_graph,
    petersen,
    power,
)
from cyclekit.invariants import (
    _vertex_max_flow,
    binding_number,
    connectivity,
    cut_scan,
    delta_t,
    independence_number,
    min_separator,
    sigma_t,
    toughness,
)
from cyclekit.registry import Profile, check_all, invariant_report
from conftest import graphs_up_to, mixed_corpus, oracle_corpus, seeded_gnp, to_networkx
from oracles import binding_number as lexicographic_binding_number
from oracles import cut_scan as exhaustive_cut_scan
from oracles import delta_t as list_delta_t


# -- naive oracles --------------------------------------------------------


def naive_kappa(g: Graph) -> int:
    if g.n <= 1:
        return 0
    if g.q == g.n * (g.n - 1) // 2:
        return g.n - 1
    best = g.n
    for size in range(g.n):
        for cut in combinations(range(g.n), size):
            mask = g.full_mask
            for v in cut:
                mask &= ~(1 << v)
            if g.count_components(mask) > 1 or mask == 0:
                if mask:  # deleting everything is not a cut
                    best = min(best, size)
        if best == size:
            break
    return best


def naive_toughness(g: Graph):
    if not g.is_connected():
        return Fraction(0)
    best = INF
    for size in range(1, g.n):
        for cut in combinations(range(g.n), size):
            mask = g.full_mask
            for v in cut:
                mask &= ~(1 << v)
            comps = g.count_components(mask)
            if comps > 1:
                best = min(best, Fraction(size, comps))
    return best


def naive_alpha(g: Graph) -> int:
    best = 0
    for size in range(g.n, -1, -1):
        for sub in combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return size
    return best


def naive_binding(g: Graph):
    best = INF
    for size in range(1, g.n + 1):
        for xs in combinations(range(g.n), size):
            nbhd = 0
            for v in xs:
                nbhd |= g.rows[v]
            if nbhd != g.full_mask:
                best = min(best, Fraction(nbhd.bit_count(), size))
    return best


def naive_sigma(g: Graph, t: int):
    vals = [
        sum(g.degree(v) for v in sub)
        for sub in combinations(range(g.n), t)
        if all(not g.has_edge(u, v) for u, v in combinations(sub, 2))
    ]
    return Fraction(min(vals)) if vals else INF


def naive_delta2(g: Graph):
    nxg = to_networkx(g)
    vals = []
    for u in range(g.n):
        dists = nx.single_source_shortest_path_length(nxg, u)
        for v, d in dists.items():
            if d == 2:
                vals.append(max(g.degree(u), g.degree(v)))
    return Fraction(min(vals)) if vals else INF


# -- tests ----------------------------------------------------------------


def test_frozen_values():
    g = petersen()
    assert connectivity(g) == 3
    assert toughness(g)[0] == Fraction(4, 3)
    assert independence_number(g)[0] == 4
    assert binding_number(g)[0] == Fraction(9, 7)  # [DERIVED]
    assert sigma_t(g, 2) == 6 and sigma_t(g, 3) == 9
    assert toughness(complete(5))[0] == INF
    assert toughness(complete_bipartite(3, 4))[0] == Fraction(3, 4)
    assert binding_number(cycle_graph(5))[0] == Fraction(4, 3)
    assert sigma_t(complete(4), 2) == INF  # alpha < t: empty minimum
    assert delta_t(complete(4), 2) == INF
    assert delta_t(path_graph(3), 2) == 1


def test_independence_number_on_long_paths_and_trees():
    # Leaves are taken without branching; a plain branch and bound takes
    # exponential time on these.
    comb = from_edge_list(64, [(v, v + 1) for v in range(31)] + [(v, v + 32) for v in range(32)])
    for g in (path_graph(64), comb):
        alpha, wit = independence_number(g)
        assert alpha == len(wit) == 32
        assert all(not g.has_edge(u, v) for u, v in combinations(wit, 2))


def test_against_naive_oracles():
    corpus = mixed_corpus(seed=11, per_cell=8)
    for g in corpus:
        assert connectivity(g) == naive_kappa(g), g
        assert cut_scan(g)[0] == naive_toughness(g), g
        assert independence_number(g)[0] == naive_alpha(g), g
        if g.n >= 1:
            assert binding_number(g)[0] == naive_binding(g), g
        assert sigma_t(g, 2) == naive_sigma(g, 2), g
        assert sigma_t(g, 3) == naive_sigma(g, 3), g
        assert delta_t(g, 2) == naive_delta2(g), g


def test_against_networkx():
    for g in mixed_corpus(seed=13, per_cell=6, ns=range(2, 9)):
        nxg = to_networkx(g)
        assert connectivity(g) == nx.node_connectivity(nxg)
        alpha, wit = independence_number(g)
        assert alpha == len(nx.max_weight_clique(nx.complement(nxg), weight=None)[0])
        assert all(not g.has_edge(u, v) for u, v in combinations(wit, 2))


def networkx_delta_t(g: Graph, t: int):
    """delta_t from networkx's shortest-path lengths."""
    h = to_networkx(g)
    return min((max(h.degree(u), h.degree(v))
                for u, dists in nx.all_pairs_shortest_path_length(h)
                for v, d in dists.items() if d == t), default=INF)


def test_delta_t_matches_networkx_distances():
    atlas = [from_edge_list(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()]
    for g in atlas + oracle_corpus():
        for t in (2, 3):
            assert delta_t(g, t) == networkx_delta_t(g, t) == list_delta_t(g, t), (g, t)


@settings(max_examples=200, deadline=None, database=None)
@given(graphs_up_to(12))
def test_delta_t_matches_networkx_distances_on_any_graph(g):
    for t in (2, 3):
        assert delta_t(g, t) == networkx_delta_t(g, t) == list_delta_t(g, t), t


def test_threshold_tests_match_fraction_comparisons():
    # tau_ge, tau_gt and binding_ge cross-multiply their bounds with the
    # threshold's numerator and denominator; each answer must be the
    # Fraction comparison with the exact value, for int, Fraction and
    # infinite x, and the exact tau is computed only where the Fraction
    # bounds kappa/alpha and kappa/2 leave x open.
    xs = (Fraction(1, 2), 1, Fraction(1), Fraction(4, 3), Fraction(3, 2), 2, Fraction(2), INF)
    for g in oracle_corpus():
        exact = Profile(g)
        tau, b, (lo, hi) = exact.tau, exact.binding, exact.tau_bounds
        for x in xs:
            for name, want, decided in (("tau_ge", tau >= x, lo >= x or hi < x),
                                        ("tau_gt", tau > x, lo > x or hi <= x)):
                pf = Profile(g)  # fresh: the bounds are tried before the exact tau
                assert getattr(pf, name)(x) is want, (g, name, x)
                assert ("tau" in vars(pf)) is not decided, (g, name, x)
            assert Profile(g).binding_ge(x) is (b >= x), (g, x)
    assert Profile(from_edge_list(0, [])).binding_ge(INF) is True  # b = +inf on K_0 alone


def assert_separates(g: Graph, kappa: int, cut: int) -> None:
    """``cut`` has kappa vertices and disconnects g, unless g is complete."""
    assert cut.bit_count() == kappa, g
    if g.q < g.n * (g.n - 1) // 2:
        assert g.count_components(g.full_mask & ~cut) > 1, g


def test_flow_connectivity_matches_exhaustive_cuts():
    for g in mixed_corpus(seed=17, per_cell=6, ns=range(2, 9)):
        kappa, cut = min_separator(g)
        assert naive_kappa(g) == kappa == connectivity(g)
        assert_separates(g, kappa, cut)


def test_witnesses_validate():
    for g in mixed_corpus(seed=19, per_cell=4, ns=range(2, 8)):
        tau, cut_mask = cut_scan(g)
        if g.is_connected() and tau != INF:
            rest = g.full_mask & ~cut_mask
            comps = g.count_components(rest)
            assert comps > 1
            assert Fraction(cut_mask.bit_count(), comps) == tau
        b, xs = binding_number(g)
        if b != INF:
            nbhd = 0
            for v in xs:
                nbhd |= g.rows[v]
            assert nbhd != g.full_mask
            assert Fraction(nbhd.bit_count(), len(xs)) == b


def test_invariant_report_shape():
    rep = invariant_report(petersen())
    assert rep.kappa == 3 and rep.alpha == 4
    rec = rep.to_record()
    assert rec["tau"] == "4/3" and rec["binding"] == "9/7"
    assert rec["planar"] is False and rec["regular"] is True
    assert "sigma_2" in rec and "delta_2" in rec
    empty = invariant_report(complete(0)).to_record()
    assert empty["kappa"] == empty["alpha"] == 0 and empty["degrees"] == []
    assert empty["tau"] == empty["binding"] == empty["sigma_2"] == "inf"
    assert empty["connected"] is False and empty["planar"] is True


# Its third 0-4 path exists only if an augmenting path backs up through a
# vertex that already carries flow, which frees that vertex again.
BACKTRACKING_FLOW = from_edge_list(9, [
    (0, 3), (0, 5), (0, 8), (1, 4), (1, 6), (1, 8), (2, 3), (2, 6),
    (2, 7), (2, 8), (4, 6), (4, 7), (5, 6), (5, 7), (5, 8),
])

# Vertex 0 (degree 4, the minimum) sees two vertices of each of two K_5s and is
# the only cut vertex, so kappa = 1 shows up only in a flow between two of
# its neighbours.
MIN_DEGREE_CUT_VERTEX = from_edge_list(11, [
    (u, v) for block in (range(1, 6), range(6, 11)) for u, v in combinations(block, 2)
] + [(0, 1), (0, 2), (0, 6), (0, 7)])


def s_sides(g: Graph, s: int, t: int, size: int) -> dict[int, int]:
    """{S: the vertices reachable from s in G - S} over every s-t separator S
    of ``size`` vertices."""
    others = [1 << v for v in range(g.n) if v not in (s, t)]
    sides = {}
    for combo in combinations(others, size):
        cut = sum(combo)
        side = g.reach_mask(1 << s, g.full_mask & ~cut)
        if not side >> t & 1:
            sides[cut] = side
    return sides


def test_capped_flow_matches_networkx():
    local = nx.algorithms.connectivity.local_node_connectivity
    assert _vertex_max_flow(BACKTRACKING_FLOW, 0, 4, 9)[0] == 3
    for g in mixed_corpus(seed=23, per_cell=2, ns=range(2, 10)) + [BACKTRACKING_FLOW]:
        nxg = to_networkx(g)
        for s, t in combinations(range(g.n), 2):
            if g.has_edge(s, t):
                continue
            want = local(nxg, s, t)
            sides = s_sides(g, s, t, want)
            for limit in {0, max(want - 1, 0), want, want + 1, g.n}:
                flow, cut = _vertex_max_flow(g, s, t, limit)
                assert flow == min(want, limit), (g, s, t, limit)
                if flow < limit:
                    # The minimum s-t separator whose s-side lies inside
                    # every other one's: the same for every maximum flow,
                    # so seeding the flow cannot change it.
                    assert cut in sides, (g, s, t)
                    assert all(sides[cut] & ~side == 0 for side in sides.values()), (g, s, t)


def test_connectivity_matches_networkx_above_the_small_corpus():
    graphs = [g for n in range(10, 17) for g in seeded_gnp(n, 0.6, 3, 300 + n)] + [
        power(cycle_graph(20), 4),
        power(cycle_graph(15), 3),
        complete_bipartite(6, 9),
        petersen(),
        MIN_DEGREE_CUT_VERTEX,
    ]
    assert min_separator(MIN_DEGREE_CUT_VERTEX) == (1, 1)
    for g in graphs:
        kappa, cut = min_separator(g)
        assert kappa == connectivity(g) == nx.node_connectivity(to_networkx(g)), g
        assert_separates(g, kappa, cut)


def fraction_cut_scan(g: Graph):
    """cut_scan's (tau, witness) by Fraction comparisons in its subset order."""
    tau, witness = INF, 0
    for rem in range(g.full_mask, 0, -1):
        comps = g.count_components(rem)
        if comps > 1 and Fraction(g.n - rem.bit_count(), comps) < tau:
            tau, witness = Fraction(g.n - rem.bit_count(), comps), g.full_mask ^ rem
    return tau, witness


def fraction_binding_number(g: Graph):
    """binding_number by Fraction comparisons in its search order."""
    best, witness = INF, 0

    def extend(start, chosen, size, nbhd):
        nonlocal best, witness
        if size and Fraction(nbhd.bit_count(), size) < best:
            best, witness = Fraction(nbhd.bit_count(), size), chosen
        for v in range(start, g.n):
            if nbhd | g.rows[v] != g.full_mask:
                extend(v + 1, chosen | (1 << v), size + 1, nbhd | g.rows[v])

    extend(0, 0, 0, 0)
    return best, bits(witness)


def test_integer_comparisons_keep_the_first_minimum():
    for g in mixed_corpus(seed=29, per_cell=3, ns=range(2, 10)) + [petersen()]:
        if g.q < g.n * (g.n - 1) // 2:
            assert cut_scan(g) == fraction_cut_scan(g), g
        assert binding_number(g) == fraction_binding_number(g), g


def test_cut_search_matches_the_exhaustive_scan():
    # The search from kappa up, stopped by the kappa and alpha bounds, gives
    # the 2^n scan's tau and its first minimum as the witness.
    for g in oracle_corpus():
        assert cut_scan(g) == exhaustive_cut_scan(g), g


@settings(max_examples=200, deadline=None, database=None)
@given(graphs_up_to(12))
def test_cut_search_matches_the_exhaustive_scan_on_any_graph(g):
    assert cut_scan(g) == exhaustive_cut_scan(g)


def test_cut_search_matches_the_exhaustive_scan_up_to_16_vertices():
    # Past the hypothesis test's 12 vertices, at every density; p = 0.1
    # leaves some graphs disconnected (kappa = 0).
    graphs = [
        g for n in range(13, 17) for p in (0.1, 0.2, 0.3, 0.5, 0.7, 0.85)
        for g in seeded_gnp(n, p, 2, 800 + 7 * n + int(100 * p))
    ]
    assert any(not g.is_connected() for g in graphs)
    for g in graphs:
        assert cut_scan(g) == exhaustive_cut_scan(g), g


def chain_of_cliques(sizes: list[int]) -> Graph:
    """Cliques of the given sizes in a row, each sharing one vertex with the
    next: a tree of blocks with kappa = 1."""
    edges, start = [], 0
    for k in sizes:
        edges += list(combinations(range(start, start + k), 2))
        start += k - 1
    return from_edge_list(start + 1, edges)


def test_kappa_level_lists_either_set_and_keeps_the_scan(monkeypatch):
    # The kappa-separators are the N(C) of kappa vertices over the connected
    # sets C of at most (n - kappa) // 2 vertices, unless those outnumber the
    # C(n, kappa) kappa-sets.  Either list gives the 2^n scan's tau and
    # witness, ties included: every cycle, C_n^k, the Petersen graph and
    # every complement of a cycle has many separators of the least ratio.
    # Paths and chains of cliques (kappa = 1) have more connected sets than
    # vertices, so they take the kappa-sets.
    listed = []
    connected_sets = invariants._connected_sets

    def recorded(rows, m, reach, limit=None):
        found = connected_sets(rows, m, reach, limit)
        if limit is not None:
            listed.append(found is not None)
        return found

    monkeypatch.setattr(invariants, "_connected_sets", recorded)
    by_neighbourhoods = (
        [complete_bipartite(a, a + 1) for a in range(2, 7)]
        + [power(cycle_graph(n), k) for n, k in ((9, 2), (12, 2), (13, 3), (14, 4))]
        + [petersen()] + [complement(cycle_graph(n)) for n in (6, 7, 9, 12)]
        + [cycle_graph(n) for n in (4, 5, 8, 11, 14)]
        + [build("theta", i=i, j=j, k=k) for i, j, k in ((2, 2, 2), (2, 3, 4), (3, 4, 5), (2, 2, 6))]
        + [build("clique-plus-pendant", n=8)]
    )
    by_kappa_sets = [chain_of_cliques(sizes) for sizes in ([3, 4, 3], [3, 3, 3, 3], [2, 5, 3, 2])]
    by_kappa_sets.append(path_graph(9))
    for graphs, expected in ((by_neighbourhoods, True), (by_kappa_sets, False)):
        for g in graphs:
            listed.clear()
            assert cut_scan(g) == exhaustive_cut_scan(g), g
            assert listed == [expected], g


def test_cut_search_counts_components_alike_with_and_without_union_tables(monkeypatch):
    # cut_scan builds its union tables only from UNION_TABLE_ORDER vertices
    # up; either way of counting components gives the same tau and witness.
    graphs = [
        g for n in range(7, 17) for p in (0.2, 0.5, 0.8)
        for g in seeded_gnp(n, p, 2, 900 + 7 * n + int(100 * p))
    ] + [petersen(), power(cycle_graph(20), 4)]
    answers = []
    for order in (0, 65):
        monkeypatch.setattr(invariants, "UNION_TABLE_ORDER", order)
        answers.append([cut_scan(g) for g in graphs])
    assert answers[0] == answers[1]
    assert answers[0][-1] == (Fraction(4), 495)


def test_cut_search_of_c20_4():
    # kappa = 8, alpha = tau = 4: the s / min(alpha, n - s) stop alone would
    # let every size up to 16 through.  The exhaustive scan's answer.
    assert cut_scan(power(cycle_graph(20), 4)) == (Fraction(4), 495)


def test_cut_search_of_a_large_sparse_graph_is_immediate():
    # The 2^n scan would visit 2^64 sets; the search stops after one size.
    t0 = perf_counter()
    assert cut_scan(complete_bipartite(1, 63)) == (Fraction(1, 63), 1)
    assert cut_scan(from_edge_list(64, [(0, 1)])) == (0, 0)
    assert perf_counter() - t0 < 1.0


def test_cut_search_of_two_cliques_through_two_hubs_is_immediate():
    # K_14 minus an edge and K_14, with two hubs joined to all 28 vertices:
    # kappa = 2, alpha = 3 and the hubs are the witness.  At size 3 the
    # smallest component may have up to 9 vertices, but every vertex's
    # closed neighbourhood exceeds the 12 that component and a 3-set can
    # hold, so no connected set is listed; listing all of them would take
    # millions.  The value is the size-by-size scan's.
    k = 14
    edges = [(u, v) for lo in (0, k) for u in range(lo, lo + k) for v in range(u + 1, lo + k)]
    edges.remove((0, 1))
    edges += [(hub, v) for hub in (2 * k, 2 * k + 1) for v in range(2 * k)]
    t0 = perf_counter()
    assert cut_scan(from_edge_list(2 * k + 2, edges)) == (Fraction(1), 3 << 2 * k)
    assert perf_counter() - t0 < 1.0


def test_isolated_vertex_shortcut_matches_the_full_search():
    graphs = [g for g in mixed_corpus() if 0 in g.rows]
    assert graphs
    for g in graphs:
        assert binding_number(g) == fraction_binding_number(g), g


def test_binding_number_of_a_sparse_graph_is_immediate():
    g = from_edge_list(30, [(0, 1)])  # the full search visits all 2^30 sets
    t0 = perf_counter()
    assert binding_number(g) == (0, [2])
    assert perf_counter() - t0 < 1.0


def perfect_matching(n: int) -> Graph:
    return from_edge_list(n, [(v, v + 1) for v in range(0, n, 2)])


def test_bounded_binding_search_matches_the_lexicographic_search():
    # Cutting every subtree that cannot strictly beat the best ratio keeps
    # the value and the first minimum in search order, the witness.
    named = [
        power(cycle_graph(20), 4),
        power(cycle_graph(15), 3),
        complete_bipartite(6, 9),
        petersen(),
        perfect_matching(16),
        perfect_matching(20),
    ]
    isolated = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
    for g in oracle_corpus() + named + [isolated]:
        b = lexicographic_binding_number(g)
        assert binding_number(g) == b, g
        # Woodall's b <= (n - 1) / (n - delta) settles binding_ge below it.
        woodall = Fraction(g.n - 1, g.n - min(g.degrees()))
        assert b[0] <= woodall, g
        xs = (Fraction(3, 2), b[0], b[0] + Fraction(1, 99), woodall, woodall + Fraction(1, 99))
        # The flow from x answers some X below x with N(X) != V, or none.
        for x in xs:
            below, witness = binding_number(g, x)
            if 0 in g.rows:
                assert (below, witness) == b, (g, x)
            elif b[0] < x:
                nbhd = 0
                for v in witness:
                    nbhd |= g.rows[v]
                assert witness and nbhd != g.full_mask, (g, x)
                assert below == Fraction(nbhd.bit_count(), len(witness)) < x, (g, x)
            else:
                assert (below, witness) == (x, []), (g, x)
        # Decided from x, or compared with the exact b once it is held.
        held = Profile(g)
        held.binding
        for pf in (Profile(g), held):
            for x in xs:
                assert pf.binding_ge(x) == (b[0] >= x), (g, x)
    assert Profile(isolated).binding_ge(Fraction(1, 99)) is False


def test_check_all_on_c20_4_decides_the_binding_premise_from_three_halves():
    # b(C_20^4) = 19/12 is at least 3/2, and Woodall's bound 19/12 does not
    # rule 3/2 out; the flow test at 3/2 proves it without the exact b.
    g = power(cycle_graph(20), 4)
    pf = Profile(g)
    got = [v.to_record() for v in check_all(pf).verdicts]
    frozen = Path(__file__).parent / "data" / "check_all_C20_4.jsonl"
    assert got == [json.loads(line) for line in frozen.read_text().splitlines()]
    assert next(r for r in got if r["theorem"] == "Thm17")["verdict"] == "holds"
    assert "binding" not in pf.__dict__


@settings(max_examples=300, deadline=None, database=None)
@given(graphs_up_to(12))
def test_bounded_binding_search_matches_the_lexicographic_search_on_any_graph(g):
    if g.n:
        assert binding_number(g) == lexicographic_binding_number(g)


@settings(max_examples=300, deadline=None, database=None)
@given(graphs_up_to(12))
def test_binding_threshold_matches_the_exact_binding_number(g):
    # b < x from the counting bound and the flow, against the exact b,
    # at fixed thresholds and at b itself and just above it.
    if not g.n:
        return
    b = binding_number(g)[0]
    for x in (Fraction(1), Fraction(4, 3), Fraction(3, 2), Fraction(2), b, b + Fraction(1, 99)):
        assert (binding_number(g, x)[0] < x) == (b < x), (g, x)


def test_binding_threshold_of_c64_15_is_immediate():
    # Woodall's bound 63/34 and the counting bound 30/30 both leave 3/2
    # open, so a flow for each A_y decides it: milliseconds, where a subset
    # search that stops at the first set below 3/2 runs for seconds.
    g = power(cycle_graph(64), 15)
    t0 = perf_counter()
    assert Profile(g).binding_ge(Fraction(3, 2)) is True
    assert perf_counter() - t0 < 1.0


def test_binding_number_of_a_perfect_matching_is_immediate():
    # Every X has |N(X)| = |X|, so the lexicographic search visits all 2^30 sets.
    t0 = perf_counter()
    assert binding_number(perfect_matching(30)) == (1, [0])
    assert perf_counter() - t0 < 1.0
