"""Exact cycle and path solvers with checkable certificates.

One branch-and-bound DFS, ``_cycle_search``, answers every cycle question
and, through a cone, every path question: the longest-cycle solvers let
its length floor rise, and ``cycles_of_length`` pins the floor to list
every cycle of one length.  The DFS is one loop over an explicit stack of
candidate masks, so a cycle it yields passes through no generator frame
per path vertex.
An O(n + q) block/bipartite bound, ``_cycle_bound``, ends the longest-cycle
search as soon as it finds a cycle that long.  Once the longest-cycle
search has spent the floor budget, ``_search_budget(0)`` nodes, at any
order, separator certificates (``UpperCert``: a vertex set whose removal
leaves too few large components) end it if their least bound meets the
cycle found so far, and otherwise stop it at the first cycle that long.
The cuts are the complement of a greedy maximal independent set
(``_greedy_cut``, O(n log n + q)), a minimum separator and the complement
of a maximum independent set.  Once it has spent its whole node budget,
on a graph of at most ``ENUMERATION_CEILING`` vertices, a subset DP
(Bellman; Held and Karp, 1962) takes over: ``_path_levels`` keeps every
level of paths from one minimum vertex, inside the blocks that hold it
and capped at the certificate's bound, and ``_first_in`` grows the first
optimum in DFS order from them, the witness the exhaustive search
returns.  The budget follows the DP's cost, which doubles per vertex
(``_search_budget``): ``SEARCH_BUDGET`` nodes at 14 and 15 vertices,
doubled per vertex above 15 and halved per vertex below 14, down to the
floor at 9 vertices.  A longest path is a longest cycle too: the longest
cycles of the cone K_1 + G all pass through its apex, and dropping the
apex leaves the longest paths of G (``longest_path``); the cone's budget
is that of G's order, so the DP takes over wherever G has at most
``ENUMERATION_CEILING`` vertices.
``LongestCycles`` runs that search once per graph and keeps its answers,
the witness validated once, so that ``circumference``, ``hamiltonian``
and every universal, existence and residual question reuse them.  Those
questions depend only on the vertex set a cycle leaves off, so they are
answered from the closing sets of the same levels, and no cycle is listed:
``_first_in`` finds the witness among the sets that qualify.  Each set
is asked one way, by ``_cycle_test``, which the public predicates share:
dominating, PD(1) and CD(2) ask ``Graph.is_independent``, and any
other PD(λ) or CD(λ) whether it holds a path of λ edges or a cycle of λ
vertices, so the same search, given a cap, stops at the first one
(``_path_below`` and ``_cycle_below``).  The levels
are kept in one list per graph, indexed by minimum vertex and trimmed to
c; ``_levels_of`` builds an entry when the search's DP or a question
first reaches its vertex, and every later reader shares it.  One cap
holds for the DP and for them, ``ENUMERATION_CEILING`` = 20 vertices:
above it there is no DP to read, and ``CeilingError`` says so.

Length conventions: a single vertex counts as a cycle of length 1 and an
edge as a cycle of length 2, so the circumference of a nonempty graph is
at least 1.  Cycle lengths count vertices; path lengths count edges.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple

from .graph import Graph, GraphError, biconnected_blocks, bits, induced_subgraph, mask_of


class CertificateError(ValueError):
    """A certificate does not validate against its graph."""


class CeilingError(RuntimeError):
    """A question answered from the subset DP's cycle sets (every longest
    cycle, some cycle with a property, a residual bound) was asked of a
    graph above ``ENUMERATION_CEILING`` (20) vertices."""


# The one vertex cap, of the subset DP and of every question that reads its
# cycle sets.  Read at call time, so one patch moves every check.
ENUMERATION_CEILING = 20

# DFS nodes the longest-cycle search visits on a graph of at most
# ENUMERATION_CEILING vertices before a subset DP settles the optimum.
# Counted in nodes, not seconds, so no result depends on machine speed;
# the witness does not depend on it at all.
SEARCH_BUDGET = 2000


def _check_cap(n: int) -> None:
    """Raise ``CeilingError`` if n vertices is above the cap."""
    if n > ENUMERATION_CEILING:
        raise CeilingError(f"longest-cycle check capped at {ENUMERATION_CEILING} vertices (n={n})")


def _search_budget(n: int) -> int | None:
    """The node budget on n vertices, or None (no DP) above ENUMERATION_CEILING.

    About as many nodes as the DP takes time, so a search that cannot end
    soon hands over early: SEARCH_BUDGET at 14 and 15 vertices, doubled
    for each vertex above 15 and halved for each vertex below 14, as the
    DP's cost is, down to SEARCH_BUDGET >> 5 at 9 vertices and fewer.  The
    cycle DP at 14 vertices already takes longer than SEARCH_BUDGET nodes,
    so the halving starts below 14.  The floor lets a search that ends
    within a few dozen nodes end without the DP, as the longest-cycle
    search does on every graph of at most 6 vertices.  Never below 1,
    since a countdown from 0 never reaches 0 again and would mean no limit.
    """
    if n > ENUMERATION_CEILING:
        return None
    shift = n - 15 if n >= 15 else max(n, 9) - 14
    return max(1, SEARCH_BUDGET << shift if shift >= 0 else SEARCH_BUDGET >> -shift)


def _check_vertices(g: Graph, vs: tuple[int, ...], kind: str) -> None:
    """A certificate lists at least one vertex, none twice, all of g."""
    if not vs:
        raise CertificateError(f"empty {kind} certificate")
    if len(set(vs)) != len(vs):
        raise CertificateError(f"repeated vertex in {kind} certificate")
    for v in vs:
        if not 0 <= v < g.n:
            raise CertificateError(f"vertex {v} out of range")


def _check_edges(g: Graph, pairs: Iterable[tuple[int, int]]) -> None:
    for a, b in pairs:
        if not g.has_edge(a, b):
            raise CertificateError(f"missing edge {a}-{b}")


class CycleCert:
    """A cycle, as its vertices in cyclic order.  Immutable, equal and hashed
    by ``vertices``."""

    vertices: tuple[int, ...]

    def __init__(self, vertices: tuple[int, ...]) -> None:
        object.__setattr__(self, "vertices", vertices)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"CycleCert is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"CycleCert is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"CycleCert(vertices={self.vertices!r})"

    @property
    def length(self) -> int:
        return len(self.vertices)

    def validate(self, g: Graph) -> None:
        vs = self.vertices
        _check_vertices(g, vs, "cycle")
        if len(vs) == 2 and not g.has_edge(*vs):
            raise CertificateError("2-cycle requires an edge")
        if len(vs) >= 3:
            _check_edges(g, zip(vs, vs[1:] + vs[:1]))

    def mask(self) -> int:
        return mask_of(self.vertices)

    @cached_property
    def _text(self) -> str:
        return " ".join(map(str, self.vertices))

    def __str__(self) -> str:
        return self._text


class PathCert(NamedTuple):
    vertices: tuple[int, ...]

    @property
    def edge_length(self) -> int:
        return len(self.vertices) - 1

    def validate(self, g: Graph) -> None:
        _check_vertices(g, self.vertices, "path")
        _check_edges(g, zip(self.vertices, self.vertices[1:]))

    def __str__(self) -> str:
        return " ".join(map(str, self.vertices))


class UpperCert(NamedTuple):
    """c <= bound, by a vertex set S (``cut``, a bitmask).

    With a_1 >= a_2 >= ... the orders of the components of G - S and
    t = floor(sum over v in S of min(2, |N(v) - S|) / 2), a cycle that
    misses S lies in one component, and one that meets S leaves it along
    at most t segments, each inside one component (Chvatal's toughness
    argument, 1973).  So c <= max(a_1, |S| + a_1 + ... + a_t), or 2 when G
    has an edge, the 2-cycle of the conventions.
    """

    cut: int
    bound: int

    @classmethod
    def of(cls, g: Graph, cut: int) -> UpperCert:
        """The certificate of ``cut``, its bound computed in O(n + q)."""
        rest = g.full_mask & ~cut
        sizes = sorted((m.bit_count() for m in g.component_masks(rest)), reverse=True)
        t = sum(min(2, (g.rows[v] & rest).bit_count()) for v in bits(cut)) // 2
        largest = sizes[0] if sizes else 0
        return cls(cut, max(largest, cut.bit_count() + sum(sizes[:t]), 2 if g.q else 0))

    def validate(self, g: Graph) -> None:
        if self.cut >> g.n or self.cut < 0:
            raise CertificateError("cut vertex out of range")
        if UpperCert.of(g, self.cut).bound > self.bound:
            raise CertificateError(f"cut {bits(self.cut)} does not bound c by {self.bound}")


# -- cycle search ---------------------------------------------------------


def _cycle_search(
    g: Graph, floor: int, cap: int, budget: int | None = None
) -> Iterator[list[int] | None]:
    """Cycles with floor < length <= cap, as vertex lists; floor >= 2.

    A cycle starts at its minimum vertex s and comes out once, in the
    direction whose second vertex is smaller.  The DFS extends paths from
    s, which needs two larger neighbours, through larger vertices only.  A
    longer cycle goes on through the vertices the path end reaches among
    the free ones, and back to s from a neighbour of s among them, so a
    branch is cut once those vertices miss N(s) or are too few to beat the
    floor.  The flood stays out of s, which on a cone (``longest_path``)
    would reach every free vertex through the apex.  Each cycle shorter
    than the cap raises the floor to its length; with floor = cap - 1 the
    floor stays put and every cycle of length cap comes out.  Keeping one
    direction hides no longer cycle: its reverse lies in an earlier branch,
    which no lower floor cuts.  With a budget (at least 1, since a
    countdown from 0 never reaches 0 again), None comes out each time the
    search has visited that many more DFS nodes.  The DFS is one loop: a
    stack keeps the untried candidates of each node on the path, and a node
    whose candidates run out hands its vertex back to the free ones.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"search budget must be >= 1, got {budget}")
    n, rows, reach = g.n, g.rows, g.reach_mask
    path = [0] * n
    left = -1 if budget is None else budget
    for s in range(n):
        allowed = ((1 << n) - 1) >> s << s
        if allowed.bit_count() <= floor:
            return
        sbit, srow = 1 << s, rows[s]
        if (srow & allowed).bit_count() < 2:
            continue
        path[0] = s
        # The node at ``length`` path vertices ends in v; ``free`` is
        # ``allowed`` less the path, and ``stack`` holds the candidates
        # still to try at each shorter length.
        v, free, length = s, allowed ^ sbit, 1
        stack: list[int] = []
        while True:
            left -= 1
            if not left:
                left = budget
                yield None
            if length > floor and rows[v] & sbit and path[1] < v:
                yield path[:length]
                if length < cap:
                    floor = length
            cand = 0
            if length < cap:
                comp = reach(rows[v], free)
                if comp & srow and length + comp.bit_count() > floor:
                    cand = rows[v] & free
            while not cand and stack:
                length -= 1
                free |= 1 << path[length]
                cand = stack.pop()
            if not cand:
                break
            ubit = cand & -cand
            stack.append(cand ^ ubit)
            free ^= ubit
            v = ubit.bit_length() - 1
            path[length] = v
            length += 1


def _next_level(rows: tuple[int, ...], level: dict[int, int], allowed: int) -> dict[int, int]:
    """One subset-DP step: each path (vertex set -> bitset of its ends) grown
    by one vertex of ``allowed`` at an end, keyed the same way."""
    nxt: dict[int, int] = {}
    get = nxt.get
    for mask, ends in level.items():
        ext = 0
        while ends:
            vbit = ends & -ends
            ends ^= vbit
            ext |= rows[vbit.bit_length() - 1]
        ext &= allowed & ~mask
        while ext:
            ubit = ext & -ext
            ext ^= ubit
            m = mask | ubit
            nxt[m] = get(m, 0) | ubit
    return nxt


def _path_levels(g: Graph, s: int, cap: int) -> list[dict[int, int]]:
    """Every level of the subset DP from vertex s, up to ``cap`` vertices.

    ``levels[k]`` maps the vertex set of every k-vertex path that starts at
    s and runs through vertices no lower than s inside the blocks that
    hold s to the bitset of its far ends (``levels[0]`` is empty).  A cycle
    through s lies in one such block, and a path from s that leaves their
    union never returns to s, so no cycle is lost; finding the blocks costs
    O(n + q), nothing beside the levels.  The closing sets, the
    keys whose ends meet N(s), are the vertex sets of the k-cycles whose
    minimum vertex is s, each once (k = 2 is an edge).
    """
    level = {1 << s: 1 << s}
    levels = [{}, level]
    allowed = 0
    for block in biconnected_blocks(g)[0]:
        if block >> s & 1:
            allowed |= block
    allowed &= g.full_mask >> s << s
    while len(levels) <= cap:
        level = _next_level(g.rows, level, allowed)
        if not level:
            break
        levels.append(level)
    return levels


def _closing_sets(g: Graph, levels: list[dict[int, int]], k: int) -> list[int]:
    """Level k's keys whose ends meet N(s): the vertex sets of the k-cycles
    whose minimum vertex is s, for ``levels`` the DP levels from s."""
    srow = g.rows[next(iter(levels[1])).bit_length() - 1]
    return [m for m, ends in levels[k].items() if ends & srow]


def _first_in(
    g: Graph, levels: list[dict[int, int]], k: int, live: list[int], s: int
) -> tuple[int, ...]:
    """The least k-cycle (k >= 2, an edge at 2) through minimum vertex s
    whose vertex set is one of ``live``, closing sets of level k of
    ``levels``, the DP from s: the first such cycle in ``cycles_of_length``
    order.

    The cycle grows by the least neighbour u after which some live set T
    still completes: with i vertices placed (``used``), the rest is a path
    from s to u through exactly (T - used) + {s}, one lookup in level
    k - i + 1.  The least cycle sequence is in canonical direction, since
    its reverse has the larger second vertex.
    """
    rows = g.rows
    sbit = 1 << s
    path = [s]
    used = sbit
    for i in range(1, k):
        level = levels[k - i + 1]
        union = 0
        for t in live:
            union |= t
        cand = rows[path[-1]] & union & ~used
        while cand:
            ubit = cand & -cand
            cand ^= ubit
            nxt = [t for t in live if t & ubit and level.get((t & ~used) | sbit, 0) & ubit]
            if nxt:
                break
        path.append(ubit.bit_length() - 1)
        used |= ubit
        live = nxt
    return tuple(path)


def _cycle_bound(g: Graph) -> int:
    """Upper bound on the circumference in O(n + q), under the conventions.

    Every cycle lies inside one block, and a cycle in a bipartite block
    alternates sides, so the bound is the largest block size, with a
    bipartite block counting 2 * min(|X|, |Y|) instead; DFS depth parity
    gives the sides.  Bridges count 2 and isolated vertices 1, as the
    conventions do.
    """
    rows = g.rows
    found, even = biconnected_blocks(g)
    best = 1
    for block in found:
        size = block.bit_count()
        if size <= best:
            continue
        side = block & even
        other = block ^ side
        reach_side = reach_other = 0
        for w in bits(block):
            if side >> w & 1:
                reach_side |= rows[w]
            else:
                reach_other |= rows[w]
        if not (reach_side & side or reach_other & other):
            size = 2 * min(side.bit_count(), other.bit_count())
        if size > best:
            best = size
    return best


def _greedy_cut(g: Graph) -> int:
    """The complement of a maximal independent set grown by ascending
    degree, ties by vertex index, in O(n log n + q): each vertex joins the
    set unless a neighbour already has."""
    rows = g.rows
    taken = blocked = 0
    for v in sorted(range(g.n), key=lambda v: rows[v].bit_count()):
        if not blocked >> v & 1:
            taken |= 1 << v
            blocked |= rows[v]
    return g.full_mask ^ taken


def _default_cuts(g: Graph) -> tuple[int, int]:
    """A minimum separator and the complement of a maximum independent set."""
    from .invariants import independence_number, min_separator

    return min_separator(g)[1], g.full_mask ^ mask_of(independence_number(g)[1])


def _levels_of(
    g: Graph, by_min: list[list[dict[int, int]]], s: int, cap: int
) -> list[dict[int, int]]:
    """``by_min[s]``, the DP levels from minimum vertex s, built up to
    ``cap`` if missing.  Both readers walk s upwards from 0, so ``by_min``
    holds the vertices below s already."""
    if s == len(by_min):
        by_min.append(_path_levels(g, s, cap))
    return by_min[s]


def _dp_cycle(
    g: Graph, floor: int, cap: int, by_min: list[list[dict[int, int]]]
) -> list[int] | None:
    """The first cycle of t = min(``cap``, circumference) vertices in
    ``cycles_of_length`` order, or None if t <= ``floor``.

    Each minimum vertex s, while more than the best length so far remain
    from s up, gets its DP levels up to ``cap``, kept in ``by_min``; the
    highest with a closing set is s's longest cycle.  The witness comes
    from the first s that reaches t, the smallest minimum vertex of any
    t-cycle.  ``cap`` is at least the circumference, so t is c; the kept
    levels are trimmed to c, all that ``LongestCycles`` reads of them.
    """
    n = g.n
    best, first = floor, None
    for s in range(n):
        if n - s <= best or best >= cap:
            break
        levels = _levels_of(g, by_min, s, cap)
        for k in range(len(levels) - 1, best, -1):
            sets = _closing_sets(g, levels, k)
            if sets:
                best, first = k, (levels, sets, s)
                break
    for kept in by_min:
        del kept[best + 1:]
    if first is None:
        return None
    levels, sets, s = first
    return list(_first_in(g, levels, best, sets, s))


def _longest_cycle(
    g: Graph,
    cuts: Callable[[], Iterable[int]] | None = None,
    order: int | None = None,
    levels: list[list[dict[int, int]]] | None = None,
    cap: int | None = None,
) -> tuple[int, list[int]]:
    """Branch-and-bound longest cycle under the degenerate conventions.

    Returns c and the first longest cycle in DFS order, the one an
    exhaustive search returns.  The search stops at the first cycle of
    ``_cycle_bound`` vertices, at least c.  At every order, once the search
    has spent the floor budget, ``_search_budget(0)`` nodes, ``cuts`` (a
    minimum separator and the complement of a maximum independent set by
    default) is called once, and the least ``UpperCert`` bound of its sets
    and of ``_greedy_cut``'s set caps the answer.  A cycle that long is the
    answer, at once if the search holds one and else at the first it
    finds: the search yields the first cycle in DFS order of each length
    it reaches.  A search that ends within the floor never calls ``cuts``
    nor computes the greedy cut.  On a graph the DP
    reaches, once the search has spent its whole budget (counted in floor
    budgets, so up to one floor budget more), ``_dp_cycle`` gives the
    first c-cycle in ``cycles_of_length``
    order, the same cycle, and keeps its levels, trimmed to c, in
    ``levels`` (one list per graph, indexed by minimum vertex; a fresh one
    by default), where ``LongestCycles`` reads them.  The budget is that of
    ``order`` vertices, n by default; ``longest_path`` passes G's order for
    its cone, so the DP reaches every cone of a G it reaches.  Given
    ``cap``, the search also stops at its first cycle of at least ``cap``
    vertices, and the DP looks no higher: the length returned is c when c
    is below the cap and at least the cap otherwise, with its cycle.
    """
    n = g.n
    if n == 0:
        raise GraphError("circumference needs at least one vertex")
    # The first edge in ``g.edges()`` order, or the bare vertex 0.
    low = next((v for v in range(n) if g.rows[v] >> v), None)
    best_path = [0] if low is None else [low, low + bits(g.rows[low] >> low)[0]]
    stop = _cycle_bound(g) if cap is None else min(_cycle_bound(g), cap)
    if len(best_path) < stop:
        budget = _search_budget(n if order is None else order)
        step = _search_budget(0)
        spent = 0
        for path in _cycle_search(g, 2, n, step):
            if path is None:
                if not spent:
                    cut_sets = [_greedy_cut(g), *(_default_cuts(g) if cuts is None else cuts())]
                    stop = min([stop] + [UpperCert.of(g, cut).bound for cut in cut_sets])
                    if len(best_path) >= stop:
                        break
                spent += step
                if budget is not None and spent >= budget:
                    by_min = [] if levels is None else levels
                    best_path = _dp_cycle(g, len(best_path), stop, by_min) or best_path
                    break
                continue
            best_path = path
            if len(path) >= stop:
                break
    return len(best_path), best_path


def cycles_of_length(g: Graph, c: int) -> Iterator[CycleCert]:
    """Every cycle of c vertices exactly once, in canonical form.

    Canonical form: minimum vertex first, then the direction whose second
    vertex is smaller.  Deterministic output order.
    """
    if c == 1:
        for v in range(g.n):
            yield CycleCert((v,))
    elif c == 2:
        for e in g.edges():
            yield CycleCert(e)
    elif c >= 3:
        for path in _cycle_search(g, c - 1, c):
            yield CycleCert(tuple(path))


def circumference(g: Graph) -> tuple[int, CycleCert]:
    lc = LongestCycles(g)
    return lc.c, lc.cycle


def hamiltonian(g: Graph) -> CycleCert | None:
    """Spanning cycle certificate, or None after exhaustive search.

    Returns None at once when the block/bipartite bound is below n.
    """
    if g.n == 0:
        raise GraphError("hamiltonicity needs at least one vertex")
    if _cycle_bound(g) < g.n:
        return None
    lc = LongestCycles(g)
    return lc.cycle if lc.c == g.n else None


# -- longest path ---------------------------------------------------------


def _cone(g: Graph) -> Graph:
    """K_1 + G: the apex is vertex 0 and G's vertex v is v + 1.

    Built past ``Graph``'s checks, which G has passed and which the cone's
    rows pass too (symmetric, no loops), so a G of ``MAX_VERTICES``
    vertices has a cone of one more.  Nothing builds a graph of that order
    from it: a search past its floor budget reads its rows for the cuts,
    and only one on a cone of at most ``ENUMERATION_CEILING`` + 1 vertices
    goes on to the DP.
    """
    cone = object.__new__(Graph)
    object.__setattr__(cone, "n", g.n + 1)
    object.__setattr__(cone, "rows", (g.full_mask << 1,) + tuple(row << 1 | 1 for row in g.rows))
    return cone


def longest_path(g: Graph) -> tuple[int, PathCert]:
    """Longest simple path; length in edges (a bare vertex has length 0).

    A path of G on k vertices closes through the apex of the cone K_1 + G
    into a cycle of k + 1, and a cycle of the cone that misses the apex
    holds a path on as many vertices, so every longest cycle of the cone
    passes through the apex.  The apex is the least vertex, so the cone's
    first longest cycle is the apex followed by the lexicographically least
    longest path of G, shifted by one: that path, the apex dropped, is the
    witness.  The cone's search is budgeted by G's order.
    """
    if g.n == 0:
        raise GraphError("longest path needs at least one vertex")
    _, cycle = _longest_cycle(_cone(g), order=g.n)
    cert = PathCert(tuple(v - 1 for v in cycle[1:]))
    cert.validate(g)
    return cert.edge_length, cert


# -- domination predicates ------------------------------------------------
#
# Dominating, PD and CD depend only on the vertex set a cycle leaves off:
# with p̄ and c̄ the longest path (edges) and longest cycle (vertices) of
# G minus the cycle, dominating <=> p̄ = 0, PD(λ) <=> p̄ < λ and
# CD(λ) <=> c̄ < λ.


def _off_cycle_mask(g: Graph, cycle: CycleCert) -> int:
    cycle.validate(g)
    return g.full_mask & ~cycle.mask()


def _residual_path(g: Graph, off: int) -> int:
    return longest_path(induced_subgraph(g, off))[0]


def _residual_cycle(g: Graph, off: int) -> int:
    return _longest_cycle(induced_subgraph(g, off))[0]


def _path_below(g: Graph, off: int, lam: int) -> bool:
    """p̄ < lam for the graph induced on off: the longest-path search on the
    cone K_1 + G[off] stopped at its first path of lam edges, a cycle of
    lam + 2."""
    if off.bit_count() <= lam:
        return True
    h = induced_subgraph(g, off)
    return _longest_cycle(_cone(h), order=h.n, cap=lam + 2)[0] < lam + 2


def _cycle_below(g: Graph, off: int, lam: int) -> bool:
    """c̄ < lam for the graph induced on off: the longest-cycle search on
    G[off] stopped at its first cycle of lam vertices."""
    if off.bit_count() < lam:
        return True
    return _longest_cycle(induced_subgraph(g, off), cap=lam)[0] < lam


def _cycle_test(prop: str, lam: int | None) -> Callable[[Graph, int], bool]:
    """The one test of an off-cycle set, ``test(g, off)``, for prop
    ("dominating", "PD" or "CD"; the latter two need lam >= 1).  PD(1) and
    CD(2) are the dominating test, ``Graph.is_independent``: p̄ < 1 and
    c̄ < 2 each say that no edge lies off the cycle.  Otherwise the threshold
    is decided, not computed: PD(lam) asks whether the set holds a path of
    lam edges and CD(lam) whether it holds a cycle of at least lam vertices,
    each search stopping at its first (a nonempty set holds a 1-cycle at once)."""
    if prop == "dominating" or (prop, lam) in (("PD", 1), ("CD", 2)):
        return Graph.is_independent
    if prop not in ("PD", "CD"):
        raise ValueError(f"unknown property {prop!r}")
    if lam is None:
        raise ValueError(f"{prop} check needs lambda")
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    below = _path_below if prop == "PD" else _cycle_below
    return lambda g, off: below(g, off, lam)


def is_dominating_cycle(g: Graph, cycle: CycleCert) -> bool:
    """True iff every edge of the graph has an endpoint on the cycle."""
    return _cycle_test("dominating", None)(g, _off_cycle_mask(g, cycle))


def is_PD_cycle(g: Graph, cycle: CycleCert, lam: int) -> bool:
    """True iff the cycle meets every path of edge-length >= lam."""
    return _cycle_test("PD", lam)(g, _off_cycle_mask(g, cycle))


def is_CD_cycle(g: Graph, cycle: CycleCert, lam: int) -> bool:
    """True iff the cycle meets every cycle of vertex-length >= lam."""
    return _cycle_test("CD", lam)(g, _off_cycle_mask(g, cycle))


def residual_params(g: Graph, cycle: CycleCert) -> tuple[int | None, int | None]:
    """(longest path in edges, longest cycle in vertices) of G minus the cycle.

    Both are None when the cycle spans the graph.
    """
    off = _off_cycle_mask(g, cycle)
    if not off:
        return None, None
    return _residual_path(g, off), _residual_cycle(g, off)


# -- longest-cycle cache ----------------------------------------------------


class LongestCycles:
    """Longest-cycle answers for one graph, each computed at most once.

    Runs the longest-cycle search itself, passing ``cuts`` on to
    ``_longest_cycle`` (its default cuts when None), which bounds c by
    them and by its own greedy cut once the search passes its floor
    budget, and holds what it finds: the circumference c; its witness
    ``cycle``, the first longest cycle in ``cycles_of_length`` order, a
    ``CycleCert`` validated here and returned by every answer that is that
    cycle; the DP levels up to c from each minimum vertex, one list of its
    own that the search's DP fills where it reaches and a question fills
    for the rest, each entry built once and kept for every length; and the
    exact p̄ and c̄ of every off-cycle set a residual bound asks about.
    Dominating, PD, CD and the residual bounds are properties of the set a
    cycle leaves off, so ``first_cycle`` tests the levels' closing sets,
    not cycles, with a test of the set alone (``_cycle_test``'s, bound to
    the graph, or a residual bound's), and ``_first_in`` finds the witness
    among the sets that pass.  Nothing is
    listed on a hamiltonian graph, where every question is settled by
    c = n.  ``registry.Profile`` holds one; the public functions below take
    one in place of a graph.
    """

    def __init__(self, g: Graph, cuts: Callable[[], Iterable[int]] | None = None):
        self.g = g
        self._levels: list[list[dict[int, int]]] = []
        self.c, path = _longest_cycle(g, cuts, levels=self._levels)
        self.cycle = CycleCert(tuple(path))
        self.cycle.validate(g)
        self._p_bar: dict[int, int] = {}
        self._c_bar: dict[int, int] = {}

    def cycle_sets(self, k: int) -> Iterator[int]:
        """The vertex set of every k-cycle, 1 <= k <= c, each once, in
        ascending order of minimum vertex.

        Lengths 1 and 2 come from the vertex and edge loops of
        ``cycles_of_length``, in its order.  Longer ones are the closing
        sets of level k of each minimum vertex's DP levels.
        """
        if k <= 2:
            for cert in cycles_of_length(self.g, k):
                yield cert.mask()
            return
        g = self.g
        for s in range(g.n - 2):
            levels = _levels_of(g, self._levels, s, self.c)
            if k < len(levels):
                yield from _closing_sets(g, levels, k)

    def first_cycle(self, k: int, test: Callable[[int], bool]) -> CycleCert | None:
        """The first k-cycle in ``cycles_of_length`` order whose off-cycle
        set passes ``test``, validated, or None if no set passes.

        That order puts the smaller minimum vertex first, so the sets are
        tested by minimum vertex and none is tested past the first minimum
        that has a passing set; the witness is searched for among that
        minimum's passing sets, in that minimum's DP levels.  Raises
        ``CeilingError`` above ``ENUMERATION_CEILING`` vertices, before any
        set is tested.
        """
        g, full = self.g, self.g.full_mask
        _check_cap(g.n)
        if k == self.c and test(full ^ self.cycle.mask()):
            # The circumference witness is the first longest cycle.
            return self.cycle
        passing: list[int] = []
        for t in self.cycle_sets(k):
            if passing and (k <= 2 or t & -t != passing[0] & -passing[0]):
                break
            if test(full ^ t):
                passing.append(t)
        if not passing:
            return None
        if k <= 2:
            cert = CycleCert(tuple(bits(passing[0])))
        else:
            s = (passing[0] & -passing[0]).bit_length() - 1
            cert = CycleCert(_first_in(g, self._levels[s], k, passing, s))
        cert.validate(g)
        return cert

    def p_bar(self, off: int) -> int:
        """Longest path, in edges, of the graph induced on off (G minus the cycle)."""
        p = self._p_bar.get(off)
        if p is None:
            p = self._p_bar[off] = _residual_path(self.g, off)
        return p

    def c_bar(self, off: int) -> int:
        """Longest cycle, in vertices, of the graph induced on off."""
        c = self._c_bar.get(off)
        if c is None:
            c = self._c_bar[off] = _residual_cycle(self.g, off)
        return c


def _cycles_of(g: Graph | LongestCycles) -> LongestCycles:
    return g if isinstance(g, LongestCycles) else LongestCycles(g)


# -- enumeration of longest cycles ---------------------------------------


def all_longest_cycles(g: Graph) -> Iterator[CycleCert]:
    """Every longest cycle exactly once up to rotation and reflection.

    Canonical form and order as in ``cycles_of_length``.  Raises
    ``CeilingError`` above ``ENUMERATION_CEILING`` vertices.
    """
    _check_cap(g.n)
    c, _ = _longest_cycle(g)
    yield from cycles_of_length(g, c)


def every_longest_cycle_satisfies(
    g: Graph | LongestCycles,
    prop: str,
    lam: int | None = None,
) -> tuple[bool, CycleCert | None]:
    """Universal check over all longest cycles.

    prop is "dominating", "PD" or "CD" (the latter two need lam).  Returns
    (True, None) or (False, counterexample), the counterexample being the
    first failing longest cycle in ``cycles_of_length`` order.  Spanning
    longest cycles make every property trivially true; otherwise each
    longest cycle's vertex set, from the subset DP, is tested once and no
    cycle is listed.
    """
    test = _cycle_test(prop, lam)
    lc = _cycles_of(g)
    if lc.c == lc.g.n:
        return True, None
    counter = lc.first_cycle(lc.c, lambda off: not test(lc.g, off))
    return counter is None, counter


def exists_cycle_satisfying(
    g: Graph | LongestCycles,
    prop: str,
    lam: int | None = None,
) -> CycleCert | None:
    """Find some cycle with the property, longest lengths first.

    A Hamilton cycle settles every property immediately.  Without one,
    CD(1) fails on every cycle: a vertex left off is a cycle of length 1.
    Otherwise the lengths go down from c, and the first length with a
    cycle vertex set that passes gives the answer: the first such cycle in
    ``cycles_of_length`` order.
    """
    test = _cycle_test(prop, lam)
    lc = _cycles_of(g)
    if lc.c == lc.g.n:
        return lc.cycle
    if prop == "CD" and lam == 1:
        return None
    for length in range(lc.c, 0, -1):
        cert = lc.first_cycle(length, lambda off: test(lc.g, off))
        if cert is not None:
            return cert
    return None
