"""Pattern catalog, induced-subgraph detection and graph-class predicates.

Patterns are the small graphs that appear as forbidden subgraphs in the
theorem catalog: cliques, paths, cycles, complete bipartite graphs, the
claw, nets N_{i,j,k} and the Petersen graph.  Class predicates cover the
decidable classes (bipartite, balanced bipartite, regular, chordal,
split, planar); interval, cocomparability, spider, comparability and
projective-planar recognition are deliberately not implemented and those
premises are assertable-only in the registry.
"""

from __future__ import annotations

import re

from .graph import (
    Graph,
    GraphError,
    bits,
    complement,
    complete,
    complete_bipartite,
    cycle_graph,
    edgeless,
    from_edge_list,
    induced_subgraph,
    path_graph,
    petersen,
)

PLANARITY_CEILING = 16


# -- pattern catalog ------------------------------------------------------


def claw() -> Graph:
    return complete_bipartite(1, 3)


def net(i: int, j: int, k: int) -> Graph:
    """Triangle with pendant paths of lengths i, j, k; N_{0,0,0} = K_3."""
    if min(i, j, k) < 0:
        raise GraphError("net path lengths must be nonnegative")
    edges = [(0, 1), (1, 2), (2, 0)]
    nxt = 3
    for corner, length in zip((0, 1, 2), (i, j, k)):
        prev = corner
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return from_edge_list(nxt, edges)


_NET_RE = re.compile(r"^N_(\d+)_(\d+)_(\d+)$")
_KAB_RE = re.compile(r"^K_(\d+)_(\d+)$")


def pattern(token: str) -> Graph:
    """Resolve a CLI pattern token ("claw", "P6", "K5", "K33", "N_0_1_2", ...)."""
    t = token.strip()
    if t == "claw":
        return claw()
    if t == "petersen":
        return petersen()
    if t == "K33":
        return complete_bipartite(3, 3)
    if m := _NET_RE.match(t):
        return net(*(int(x) for x in m.groups()))
    if m := _KAB_RE.match(t):
        return complete_bipartite(int(m.group(1)), int(m.group(2)))
    if len(t) >= 2 and t[0] in "PCK" and t[1:].isdigit():
        k = int(t[1:])
        if t[0] == "P":
            return path_graph(k)
        if t[0] == "C":
            return cycle_graph(k)
        return complete(k)
    if t.startswith("Kbar") and t[4:].isdigit():
        return edgeless(int(t[4:]))
    raise GraphError(f"unknown pattern token {token!r}")


# -- induced subgraph search ----------------------------------------------


def contains_induced(g: Graph, h: Graph) -> dict[int, int] | None:
    """Injective map realizing h as an induced subgraph of g, else None.

    Backtracking over a connectivity-first vertex order with degree and
    adjacency-consistency pruning; exhaustive, so None is a proof of
    absence.
    """
    if h.n > g.n or h.q > g.q:
        return None
    if h.n == 0:
        return {}
    # order pattern vertices so each (after the first) touches a placed one
    # where possible, most-constrained first
    order: list[int] = []
    placed_mask = 0
    remaining = set(range(h.n))
    while remaining:
        best_v, best_key = -1, (-1, -1)
        for v in remaining:
            key = ((h.rows[v] & placed_mask).bit_count(), h.degree(v))
            if key > best_key:
                best_key, best_v = key, v
        order.append(best_v)
        placed_mask |= 1 << best_v
        remaining.discard(best_v)
    g_degs = g.degrees()
    h_degs = h.degrees()
    mapping = [-1] * h.n
    used = 0

    def place(idx: int) -> bool:
        nonlocal used
        if idx == h.n:
            return True
        hv = order[idx]
        for gv in range(g.n):
            if used >> gv & 1 or g_degs[gv] < h_degs[hv]:
                continue
            ok = True
            for prev in order[:idx]:
                want = h.rows[hv] >> prev & 1
                have = g.rows[gv] >> mapping[prev] & 1
                if want != have:
                    ok = False
                    break
            if ok:
                mapping[hv] = gv
                used |= 1 << gv
                if place(idx + 1):
                    return True
                used ^= 1 << gv
                mapping[hv] = -1
        return False

    if place(0):
        return {hv: mapping[hv] for hv in range(h.n)}
    return None


def is_free(g: Graph, patterns: list[Graph]) -> bool:
    """True iff none of the patterns occurs as an induced subgraph."""
    return all(contains_induced(g, h) is None for h in patterns)


# -- class predicates -----------------------------------------------------


def bipartition(g: Graph) -> tuple[int, int] | None:
    """Some 2-coloring as a pair of vertex masks, or None if odd cycle."""
    color = [-1] * g.n
    side0 = side1 = 0
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in bits(g.rows[v]):
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    for v in range(g.n):
        if color[v] == 0:
            side0 |= 1 << v
        else:
            side1 |= 1 << v
    return side0, side1


def is_balanced_bipartite(g: Graph) -> bool:
    """Bipartite with some bipartition into equal halves.

    Components may flip sides independently, so this is a reachable-sum
    question over per-component side sizes.
    """
    if g.n % 2:
        return False
    if bipartition(g) is None:
        return False
    sums = {0}
    for comp in g.component_masks():
        sub = induced_subgraph(g, comp)
        s0, s1 = bipartition(sub)  # type: ignore[misc]
        a, b = s0.bit_count(), s1.bit_count()
        sums = {x + a for x in sums} | {x + b for x in sums}
    return g.n // 2 in sums


def is_regular(g: Graph) -> bool:
    degs = g.degrees()
    return len(set(degs)) <= 1


def chordal_peo(g: Graph) -> list[int] | None:
    """Perfect elimination ordering via maximum cardinality search, or None."""
    n = g.n
    if n == 0:
        return []
    weight = [0] * n
    seen = 0
    mcs: list[int] = []
    for _ in range(n):
        v = max((u for u in range(n) if not seen >> u & 1), key=lambda u: (weight[u], -u))
        mcs.append(v)
        seen |= 1 << v
        for u in bits(g.rows[v]):
            if not seen >> u & 1:
                weight[u] += 1
    peo = mcs[::-1]  # eliminate in reverse MCS order
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [u for u in bits(g.rows[v]) if pos[u] > pos[v]]
        if not later:
            continue
        parent = min(later, key=lambda u: pos[u])
        for u in later:
            if u != parent and not g.has_edge(parent, u):
                return None
    return peo


def is_chordal(g: Graph) -> bool:
    return chordal_peo(g) is not None


def is_split(g: Graph) -> bool:
    """Split iff both the graph and its complement are chordal."""
    return is_chordal(g) and is_chordal(complement(g))


# -- planarity by Kuratowski subdivision search ---------------------------


def _topological_reduction(g: Graph) -> Graph:
    """Delete degree<=1 vertices and suppress degree-2 vertices.

    Preserves existence of K_5 / K_{3,3} subdivisions.
    """
    n = g.n
    rows = list(g.rows)
    alive = g.full_mask
    changed = True
    while changed:
        changed = False
        for v in range(n):
            if not alive >> v & 1:
                continue
            nb = rows[v] & alive
            d = nb.bit_count()
            if d <= 1:
                alive &= ~(1 << v)
                changed = True
            elif d == 2:
                a = (nb & -nb).bit_length() - 1
                b = (nb & (nb - 1)).bit_length() - 1
                alive &= ~(1 << v)
                rows[a] |= 1 << b
                rows[b] |= 1 << a
                rows[a] &= ~(1 << v)
                rows[b] &= ~(1 << v)
                changed = True
    clean = Graph(
        n,
        tuple(
            (row & alive & ~(1 << v)) if alive >> v & 1 else 0
            for v, row in enumerate(rows)
        ),
    )
    return induced_subgraph(clean, alive)


def _pack_paths(g: Graph, pairs: list[tuple[int, int]], branch_mask: int, used: int) -> bool:
    """Connect the given terminal pairs by internally disjoint paths."""
    if not pairs:
        return True
    a, b = pairs[0]

    def paths_from(v: int, avoid: int):
        # DFS path enumeration a..b with internals outside branch/used sets
        if g.rows[v] >> b & 1:
            yield avoid
        cand = g.rows[v] & ~avoid & ~branch_mask & ~used
        for u in bits(cand):
            yield from paths_from(u, avoid | (1 << u))

    seen: set[int] = set()
    for internals in paths_from(a, 0):
        if internals in seen:
            continue
        seen.add(internals)
        if _pack_paths(g, pairs[1:], branch_mask, used | internals):
            return True
    return False


def _has_subdivision(g: Graph, pattern_g: Graph) -> bool:
    """Exhaustive search for a subdivision of the pattern inside g."""
    k = pattern_g.n
    min_deg = min(pattern_g.degrees())
    candidates = [v for v in range(g.n) if g.degree(v) >= min_deg]
    if len(candidates) < k:
        return False
    pairs_h = pattern_g.edges()

    chosen: list[int] = []

    def choose(idx: int, start: int) -> bool:
        if idx == k:
            branch_mask = 0
            for v in chosen:
                branch_mask |= 1 << v
            pairs = [(chosen[a], chosen[b]) for a, b in pairs_h]
            return _pack_paths(g, pairs, branch_mask, 0)
        for pos in range(start, len(candidates)):
            chosen.append(candidates[pos])
            if choose(idx + 1, pos + 1):
                return True
            chosen.pop()
        return False

    # branch-vertex roles are interchangeable for K_5 (complete); for
    # K_{3,3} the side split matters, so try every 3/3 split of each 6-set
    if pattern_g.q == k * (k - 1) // 2:
        return choose(0, 0)
    from itertools import combinations

    for six in combinations(candidates, 6):
        branch_mask = 0
        for v in six:
            branch_mask |= 1 << v
        for left in combinations(range(6), 3):
            if 0 not in left:
                continue  # fix one side to kill the mirror symmetry
            right = [i for i in range(6) if i not in left]
            pairs = [(six[a], six[b]) for a in left for b in right]
            if _pack_paths(g, pairs, branch_mask, 0):
                return True
    return False


def is_planar(g: Graph) -> bool | None:
    """Exact planarity for n <= 16 (None above the ceiling).

    Euler-count filter first, then exhaustive search for a K_5 or K_{3,3}
    subdivision on the topologically reduced graph.
    """
    if g.n > PLANARITY_CEILING:
        return None
    if g.n >= 3 and g.q > 3 * g.n - 6:
        return False
    for comp in g.component_masks():
        sub = _topological_reduction(induced_subgraph(g, comp))
        if sub.n == 0:
            continue
        if sub.n >= 3 and sub.q > 3 * sub.n - 6:
            return False
        if sub.n >= 5 and sub.q >= 10 and _has_subdivision(sub, complete(5)):
            return False
        if sub.n >= 6 and sub.q >= 9 and _has_subdivision(sub, complete_bipartite(3, 3)):
            return False
    return True
