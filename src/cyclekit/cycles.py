"""Exact cycle and path solvers with checkable certificates.

One branch-and-bound DFS, ``_cycle_search``, answers every cycle question:
the longest-cycle solvers let its length floor rise, and
``cycles_of_length`` pins the floor to list every cycle of one length.
An O(n + q) block/bipartite bound, ``_cycle_bound``, ends the longest-cycle
search as soon as it finds a cycle that long.  Once the longest-cycle
search has spent its node budget, a separator certificate (``UpperCert``:
a vertex set whose removal leaves too few large components) ends it if its
bound meets the cycle found so far.  Otherwise, on a graph of at most
``DP_MAX_VERTICES`` vertices, one subset DP (Bellman; Held and Karp, 1962)
takes over, for cycles and paths alike: ``_path_levels`` keeps every level
of paths from a set of starts (one minimum vertex for cycles, capped at the
certificate's bound; every vertex for paths), and ``_first_in`` grows the
first optimum in DFS order from them, the witness the exhaustive search
returns.  The budget follows the DP's cost, which doubles per vertex
(``_search_budget``): ``SEARCH_BUDGET`` nodes at 14 and 15 vertices,
doubled per vertex above 15 and halved per vertex below 14, down to a
floor at 9 vertices.  The path search gets four times that above 15
vertices (``_path_budget``), as its DP, from every start, costs more.
``LongestCycles`` keeps one graph's longest-cycle answers so that every
universal, existence and residual question reuses them.  Those questions
depend only on the vertex set a cycle leaves off, so they are answered
from the closing sets of the same levels, built once per minimum vertex,
and no cycle is listed: ``_first_in`` finds the witness among the sets
that qualify.

Length conventions: a single vertex counts as a cycle of length 1 and an
edge as a cycle of length 2, so the circumference of a nonempty graph is
at least 1.  Cycle lengths count vertices; path lengths count edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .graph import Graph, GraphError, biconnected_blocks, bits, induced_subgraph, mask_of


class CertificateError(ValueError):
    """A certificate does not validate against its graph."""


class CeilingError(RuntimeError):
    """An enumeration ceiling was exceeded."""


ENUMERATION_CEILING = 14

# DFS nodes the longest-cycle and longest-path searches visit on a graph of
# at most DP_MAX_VERTICES vertices before a subset DP settles the optimum.
# Counted in nodes, not seconds, so no result depends on machine speed;
# the witness does not depend on it at all.
SEARCH_BUDGET = 2000
DP_MAX_VERTICES = 20


def _search_budget(n: int) -> int | None:
    """The node budget on n vertices, or None (no DP) above DP_MAX_VERTICES.

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
    if n > DP_MAX_VERTICES:
        return None
    shift = n - 15 if n >= 15 else max(n, 9) - 14
    return max(1, SEARCH_BUDGET << shift if shift >= 0 else SEARCH_BUDGET >> -shift)


def _path_budget(n: int) -> int | None:
    """The longest-path search's node budget on n vertices: four times
    ``_search_budget(n)`` above 15 vertices, where the path DP, which grows
    paths from every start, costs 2 to 4 times the cycle DP, and the same
    at 15 vertices and below."""
    budget = _search_budget(n)
    return budget * 4 if budget is not None and n > 15 else budget


def _node_countdown(budget: int | None) -> int:
    """The node countdown for a search with this budget: -1 for no budget."""
    if budget is None:
        return -1
    if budget < 1:
        raise ValueError(f"search budget must be >= 1, got {budget}")
    return budget


@dataclass(frozen=True)
class CycleCert:
    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def validate(self, g: Graph) -> None:
        vs = self.vertices
        t = len(vs)
        if t < 1:
            raise CertificateError("empty cycle certificate")
        if len(set(vs)) != t:
            raise CertificateError("repeated vertex in cycle certificate")
        for v in vs:
            if not 0 <= v < g.n:
                raise CertificateError(f"vertex {v} out of range")
        if t == 2:
            if not g.has_edge(vs[0], vs[1]):
                raise CertificateError("2-cycle requires an edge")
        elif t >= 3:
            for i in range(t):
                if not g.has_edge(vs[i], vs[(i + 1) % t]):
                    raise CertificateError(f"missing edge {vs[i]}-{vs[(i + 1) % t]}")

    def mask(self) -> int:
        return mask_of(self.vertices)

    @cached_property
    def _text(self) -> str:
        return " ".join(map(str, self.vertices))

    def __str__(self) -> str:
        return self._text


@dataclass(frozen=True)
class PathCert:
    vertices: tuple[int, ...]

    @property
    def edge_length(self) -> int:
        return len(self.vertices) - 1

    def validate(self, g: Graph) -> None:
        vs = self.vertices
        if len(vs) < 1:
            raise CertificateError("empty path certificate")
        if len(set(vs)) != len(vs):
            raise CertificateError("repeated vertex in path certificate")
        for v in vs:
            if not 0 <= v < g.n:
                raise CertificateError(f"vertex {v} out of range")
        for a, b in zip(vs, vs[1:]):
            if not g.has_edge(a, b):
                raise CertificateError(f"missing edge {a}-{b}")

    def __str__(self) -> str:
        return " ".join(map(str, self.vertices))


@dataclass(frozen=True)
class UpperCert:
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
    s through larger vertices only and cuts a branch once the vertices it
    can still reach cannot lead back to s or cannot beat the floor.  Each
    cycle shorter than the cap raises the floor to its length; with
    floor = cap - 1 the floor stays put and every cycle of length cap
    comes out.  Keeping one direction hides no longer cycle: its reverse
    lies in an earlier branch, which no lower floor cuts.  With a budget,
    None comes out once the search has visited that many DFS nodes.
    """
    n, rows, reach = g.n, g.rows, g.reach_mask
    path = [0] * n
    left = _node_countdown(budget)
    for s in range(n):
        allowed = ((1 << n) - 1) >> s << s
        if allowed.bit_count() <= floor:
            return
        sbit = 1 << s
        path[0] = s

        def dfs(v: int, visited: int, length: int) -> Iterator[list[int] | None]:
            nonlocal floor, left
            left -= 1
            if not left:
                yield None
            if length > floor and rows[v] & sbit and path[1] < v:
                yield path[:length]
                if length < cap:
                    floor = length
            if length == cap:
                return
            free = allowed & ~visited
            comp = reach(rows[v], free | sbit)
            if not comp & sbit or length + comp.bit_count() - 1 <= floor:
                return
            cand = rows[v] & free
            while cand:
                ubit = cand & -cand
                cand ^= ubit
                u = ubit.bit_length() - 1
                path[length] = u
                yield from dfs(u, visited | ubit, length + 1)

        yield from dfs(s, sbit, 1)


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


def _path_levels(g: Graph, starts: int, cap: int) -> list[dict[int, int]]:
    """Every level of the subset DP from the vertex set ``starts``, up to
    ``cap`` vertices.

    ``levels[k]`` maps the vertex set of every k-vertex path that starts in
    ``starts`` and runs through vertices no lower than its least start to
    the bitset of its far ends (``levels[0]`` is empty).  From one vertex s,
    the closing sets, the keys whose ends meet N(s), are the vertex sets of
    the k-cycles whose minimum vertex is s, each once (k = 2 is an edge).
    From every vertex, a key's ends are the ends of its set's Hamilton paths.
    """
    level = {1 << v: 1 << v for v in bits(starts)}
    levels = [{}, level]
    allowed = g.full_mask & -(starts & -starts)
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
    g: Graph, levels: list[dict[int, int]], k: int, live: list[int], start: int, closed: bool
) -> tuple[int, ...]:
    """The lexicographically least k-vertex path from ``start`` whose vertex
    set is one of ``live``, keys of level k of ``levels``; with ``closed``,
    the least k-cycle (k >= 3) through minimum vertex ``start``, the first in
    ``cycles_of_length`` order, ``live`` then being closing sets of the DP
    from ``start``.

    The path grows by the least neighbour u after which some live set T
    still completes: with i vertices placed (``used``), the rest is a path
    ending at u through exactly T - used, one lookup in level k - i, or for
    a cycle a path from s to u through (T - used) + {s}, in level k - i + 1.
    The least cycle sequence is in canonical direction, since its reverse
    has the larger second vertex.
    """
    rows = g.rows
    sbit = 1 << start
    back = sbit if closed else 0
    path = [start]
    used = sbit
    for i in range(1, k):
        level = levels[k - i + closed]
        union = 0
        for t in live:
            union |= t
        cand = rows[path[-1]] & union & ~used
        while cand:
            ubit = cand & -cand
            cand ^= ubit
            nxt = [t for t in live if t & ubit and level.get((t & ~used) | back, 0) & ubit]
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


def _default_cuts(g: Graph) -> tuple[int, int]:
    """A minimum separator and the complement of a maximum independent set."""
    from .invariants import independence_number, min_separator

    return min_separator(g)[1], g.full_mask ^ mask_of(independence_number(g)[1])


def _dp_cycle(g: Graph, floor: int, cap: int) -> list[int] | None:
    """The first cycle of t = min(``cap``, circumference) vertices in
    ``cycles_of_length`` order, or None if t <= ``floor``.

    Each minimum vertex s, while more than the best length so far remain
    from s up, gets its DP levels up to ``cap``; the highest with a closing
    set is s's longest cycle.  The witness comes from the first s that
    reaches t, the smallest minimum vertex of any t-cycle.
    """
    n = g.n
    best, first = floor, None
    for s in range(n):
        if n - s <= best or best >= cap:
            break
        levels = _path_levels(g, 1 << s, cap)
        for k in range(len(levels) - 1, best, -1):
            sets = _closing_sets(g, levels, k)
            if sets:
                best, first = k, (levels, sets, s)
                break
    if first is None:
        return None
    levels, sets, s = first
    return list(_first_in(g, levels, best, sets, s, True))


def _longest_cycle(
    g: Graph, stop_at: int | None = None, cuts: Callable[[], Iterable[int]] | None = None
) -> tuple[int, list[int]]:
    """Branch-and-bound longest cycle under the degenerate conventions.

    Returns c and the first longest cycle in DFS order, the one an
    exhaustive search returns.  The search stops at the first cycle of
    min(``stop_at``, ``_cycle_bound``) vertices, both at least c
    (``hamiltonian`` passes n).  When it spends its budget, ``cuts`` (a
    minimum separator and the complement of a maximum independent set by
    default) is called once, and the least ``UpperCert`` bound of its sets
    caps the answer.  A cycle that long is the answer at once: the search
    yields the first cycle in DFS order of each length it reaches.
    Otherwise, on a graph the DP reaches, ``_dp_cycle`` gives the first
    c-cycle in ``cycles_of_length`` order, the same cycle.
    """
    n = g.n
    if n == 0:
        raise GraphError("circumference needs at least one vertex")
    edges = g.edges()
    best_path = list(edges[0]) if edges else [0]
    stop = n if stop_at is None else min(stop_at, n)
    if len(best_path) < stop:
        stop = min(stop, _cycle_bound(g))
    if len(best_path) < stop:
        for path in _cycle_search(g, 2, n, _search_budget(n)):
            if path is None:
                cut_sets = _default_cuts(g) if cuts is None else cuts()
                stop = min([stop] + [UpperCert.of(g, cut).bound for cut in cut_sets])
                best_path = _dp_cycle(g, len(best_path), stop) or best_path
                break
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
    c, path = _longest_cycle(g)
    cert = CycleCert(tuple(path))
    cert.validate(g)
    return c, cert


def hamiltonian(g: Graph) -> CycleCert | None:
    """Spanning cycle certificate, or None after exhaustive search.

    Returns None at once when the block/bipartite bound is below n.
    """
    if g.n == 0:
        raise GraphError("hamiltonicity needs at least one vertex")
    if _cycle_bound(g) < g.n:
        return None
    c, path = _longest_cycle(g, stop_at=g.n)
    if c == g.n:
        cert = CycleCert(tuple(path))
        cert.validate(g)
        return cert
    return None


# -- longest path ---------------------------------------------------------


def _path_search(g: Graph, budget: int | None = None) -> Iterator[list[int] | None]:
    """Paths of at least one edge, each longer than the last, by DFS from
    each vertex in turn.

    A branch is cut once the vertices it can still reach cannot beat the
    longest path so far.  With a budget, None comes out once the search
    has visited that many DFS nodes.
    """
    n, rows, reach = g.n, g.rows, g.reach_mask
    full = (1 << n) - 1
    buf = [0] * n
    best = 0
    left = _node_countdown(budget)

    def dfs(v: int, visited: int, length: int) -> Iterator[list[int] | None]:
        nonlocal best, left
        left -= 1
        if not left:
            yield None
        if length > best:
            best = length
            yield buf[: length + 1]
        free = ~visited & full
        if length + reach(rows[v], free).bit_count() <= best:
            return
        cand = rows[v] & free
        while cand:
            ubit = cand & -cand
            cand ^= ubit
            u = ubit.bit_length() - 1
            buf[length + 1] = u
            yield from dfs(u, visited | ubit, length + 1)

    for s in range(n):
        buf[0] = s
        yield from dfs(s, 1 << s, 0)


def longest_path(g: Graph) -> tuple[int, PathCert]:
    """Longest simple path; length in edges (a bare vertex has length 0).

    The witness is the first longest path in DFS order over the starts.
    When the search spends its budget on a graph the DP reaches, the DP
    levels from every vertex give the vertex sets of the longest paths,
    and ``_first_in`` grows the lexicographically least one from s, the
    least vertex that ends one.  That is the search's witness: while its
    best is below p edges, the search cuts no branch holding a p-edge path,
    so its first p-path is the least such vertex sequence.
    """
    n = g.n
    if n == 0:
        raise GraphError("longest path needs at least one vertex")
    best_path = [0]
    for path in _path_search(g, _path_budget(n)):
        if path is None:
            levels = _path_levels(g, g.full_mask, n)
            top = levels[-1]
            sbit = min(ends & -ends for ends in top.values())
            live = [t for t, ends in top.items() if ends & sbit]
            best_path = _first_in(g, levels, len(levels) - 1, live, sbit.bit_length() - 1, False)
            break
        best_path = path
        if len(path) == n:
            break
    cert = PathCert(tuple(best_path))
    cert.validate(g)
    return len(best_path) - 1, cert


# -- domination predicates ------------------------------------------------
#
# Dominating, PD and CD depend only on the vertex set a cycle leaves off:
# with p̄ and c̄ the longest path (edges) and longest cycle (vertices) of
# G minus the cycle, dominating <=> p̄ = 0, PD(λ) <=> p̄ < λ and
# CD(λ) <=> c̄ < λ.


def _off_cycle_mask(g: Graph, cycle: CycleCert) -> int:
    cycle.validate(g)
    return g.full_mask & ~cycle.mask()


def _independent(g: Graph, off: int) -> bool:
    return all(not (g.rows[v] & off) for v in bits(off))


def _residual_path(g: Graph, off: int) -> int:
    return longest_path(induced_subgraph(g, off))[0]


def _residual_cycle(g: Graph, off: int) -> int:
    return _longest_cycle(induced_subgraph(g, off))[0]


def _check_lambda(lam: int) -> None:
    if lam < 1:
        raise ValueError("lambda must be >= 1")


def is_dominating_cycle(g: Graph, cycle: CycleCert) -> bool:
    """True iff every edge of the graph has an endpoint on the cycle."""
    return _independent(g, _off_cycle_mask(g, cycle))


def is_PD_cycle(g: Graph, cycle: CycleCert, lam: int) -> bool:
    """True iff the cycle meets every path of edge-length >= lam."""
    _check_lambda(lam)
    off = _off_cycle_mask(g, cycle)
    return not off or _residual_path(g, off) < lam


def is_CD_cycle(g: Graph, cycle: CycleCert, lam: int) -> bool:
    """True iff the cycle meets every cycle of vertex-length >= lam."""
    _check_lambda(lam)
    off = _off_cycle_mask(g, cycle)
    return not off or _residual_cycle(g, off) < lam


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

    Holds the circumference c and its witness path (the first longest
    cycle in ``cycles_of_length`` order), the DP levels up to c from each
    minimum vertex (``_path_levels``, run once, when a question first
    reaches that vertex, and kept for every length), and p̄ and c̄ for every
    off-cycle set asked about.  Dominating, PD, CD and the residual bounds
    are properties of the set a cycle leaves off, so ``first_cycle`` tests
    the levels' closing sets, not cycles, and ``_first_in`` finds the
    witness among the sets that pass.  Nothing is listed on a hamiltonian
    graph, where every question is settled by c = n.  ``registry.Profile``
    holds one; the public functions below take one in place of a graph.
    """

    def __init__(self, g: Graph, circ: tuple[int, list[int]] | None = None):
        self.g = g
        self.c, self.path = _longest_cycle(g) if circ is None else circ
        self._levels: list[list[dict[int, int]]] = []
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
        by_min = self._levels
        for s in range(self.g.n - 2):
            if s == len(by_min):
                by_min.append(_path_levels(self.g, 1 << s, self.c))
            if k < len(by_min[s]):
                yield from _closing_sets(self.g, by_min[s], k)

    def first_cycle(self, k: int, test: Callable[[LongestCycles, int], bool]) -> CycleCert | None:
        """The first k-cycle in ``cycles_of_length`` order whose off-cycle
        set passes ``test``, validated, or None if no set passes.

        That order puts the smaller minimum vertex first, so the sets are
        tested by minimum vertex and none is tested past the first minimum
        that has a passing set; the witness is searched for among that
        minimum's passing sets, in that minimum's DP levels.
        """
        g, full = self.g, self.g.full_mask
        if k == self.c:
            # The circumference witness is the first longest cycle.
            first = CycleCert(tuple(self.path))
            if test(self, full ^ first.mask()):
                first.validate(g)
                return first
        passing: list[int] = []
        for t in self.cycle_sets(k):
            if passing and (k <= 2 or t & -t != passing[0] & -passing[0]):
                break
            if test(self, full ^ t):
                passing.append(t)
        if not passing:
            return None
        if k <= 2:
            cert = CycleCert(tuple(bits(passing[0])))
        else:
            s = (passing[0] & -passing[0]).bit_length() - 1
            cert = CycleCert(_first_in(g, self._levels[s], k, passing, s, True))
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

    Canonical form and order as in ``cycles_of_length``.
    """
    if g.n > ENUMERATION_CEILING:
        raise CeilingError(f"longest-cycle enumeration capped at {ENUMERATION_CEILING} vertices")
    c, _ = _longest_cycle(g)
    yield from cycles_of_length(g, c)


def _cycle_test(prop: str, lam: int | None) -> Callable[[LongestCycles, int], bool]:
    """The test of an off-cycle set for prop ("dominating", "PD" or "CD";
    the latter two need lam)."""
    if prop == "dominating":
        return lambda lc, off: _independent(lc.g, off)
    if prop not in ("PD", "CD"):
        raise ValueError(f"unknown property {prop!r}")
    if lam is None:
        raise ValueError(f"{prop} check needs lambda")
    _check_lambda(lam)
    if prop == "PD":
        return lambda lc, off: lc.p_bar(off) < lam
    return lambda lc, off: lc.c_bar(off) < lam


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
    if lc.g.n > ENUMERATION_CEILING:
        raise CeilingError(f"universal longest-cycle check capped at {ENUMERATION_CEILING} vertices")
    counter = lc.first_cycle(lc.c, lambda lc, off: not test(lc, off))
    return counter is None, counter


def exists_cycle_satisfying(
    g: Graph | LongestCycles,
    prop: str,
    lam: int | None = None,
) -> CycleCert | None:
    """Find some cycle with the property, longest lengths first.

    A Hamilton cycle settles every property immediately.  Otherwise the
    lengths go down from c, and the first length with a cycle vertex set
    that passes gives the answer: the first such cycle in
    ``cycles_of_length`` order.
    """
    test = _cycle_test(prop, lam)
    lc = _cycles_of(g)
    g = lc.g
    if lc.c == g.n:
        cert = CycleCert(tuple(lc.path))
        cert.validate(g)
        return cert
    if g.n > ENUMERATION_CEILING:
        raise CeilingError(f"cycle-existence search capped at {ENUMERATION_CEILING} vertices")
    for length in range(lc.c, 0, -1):
        cert = lc.first_cycle(length, test)
        if cert is not None:
            return cert
    return None
