"""Immutable simple undirected graphs on dense vertex labels 0..n-1.

Adjacency is stored as one bitmask row per vertex, which keeps every
exponential solver in the package working on machine integers.  All
construction operations relabel deterministically (first operand's block
first), so family constructors are reproducible byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


class GraphError(ValueError):
    """Invalid construction or out-of-contract input."""


class Graph:
    """n vertices and ``rows[u]``, the bitmask of u's neighbours, checked on
    every construction.  Immutable, equal and hashed by (n, rows)."""

    __slots__ = ("n", "rows")
    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: tuple[int, ...]) -> None:
        check_order(n)
        if len(rows) != n:
            raise GraphError("adjacency row count does not match n")
        full = (1 << n) - 1
        for u, row in enumerate(rows):
            if row & ~full:
                raise GraphError(f"row {u} references vertices outside 0..{n - 1}")
            if row >> u & 1:
                raise GraphError(f"self-loop at vertex {u}")
        for u in range(n):
            for v in range(u + 1, n):
                if (rows[u] >> v & 1) != (rows[v] >> u & 1):
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Graph is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Graph is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.rows == other.rows  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __reduce__(self) -> tuple:
        return self.__class__, (self.n, self.rows)

    # -- basic accessors -------------------------------------------------

    @property
    def q(self) -> int:
        """Edge count."""
        return sum(row.bit_count() for row in self.rows) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.rows[u] >> v & 1)

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return self.rows[u].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.rows]

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            for v in bits(row):
                out.append((u, v))
        return out

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise GraphError(f"vertex {u} out of range 0..{self.n - 1}")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, q={self.q})"

    # -- traversal helpers ----------------------------------------------

    def reach_mask(self, seed: int, allowed: int) -> int:
        """Vertices reachable from the seed mask inside ``allowed``."""
        rows = self.rows
        comp = seed & allowed
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= rows[v]
            frontier = nxt & allowed & ~comp
            comp |= frontier
        return comp

    def component_masks(self, allowed: int | None = None) -> list[int]:
        rem = self.full_mask if allowed is None else allowed
        comps = []
        while rem:
            comp = self.reach_mask(rem & -rem, rem)
            comps.append(comp)
            rem &= ~comp
        return comps

    def count_components(self, allowed: int | None = None) -> int:
        return len(self.component_masks(allowed))

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        return self.reach_mask(1, self.full_mask) == self.full_mask


def biconnected_blocks(g: Graph) -> tuple[list[int], int]:
    """Blocks as vertex masks (Tarjan lowpoints, O(n + q)), and the mask of
    vertices at even depth in the DFS forest.

    Each edge lies in exactly one block, and two vertices of one block are
    joined only by that block's edges, so a block is the subgraph its mask
    induces.  Bridges are blocks of two vertices; an isolated vertex is in
    no block.  A block's vertices form a subtree of the DFS tree, so the
    depth parity 2-colours it exactly when it is bipartite.
    """
    n, rows = g.n, g.rows
    depth = [-1] * n
    low = [0] * n
    seen = even = 0
    found: list[int] = []
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        seen |= 1 << root
        even |= 1 << root
        path, block_stack = [root], [root]
        while path:
            v = path[-1]
            cand = rows[v] & ~seen
            if cand:
                ubit = cand & -cand
                u = ubit.bit_length() - 1
                d = depth[u] = len(path)
                if not d & 1:
                    even |= ubit
                lo = d - 1  # the parent; other seen neighbours are ancestors
                anc = rows[u] & seen & ~(1 << v)
                while anc:
                    wbit = anc & -anc
                    anc ^= wbit
                    dw = depth[wbit.bit_length() - 1]
                    if dw < lo:
                        lo = dw
                low[u] = lo
                seen |= ubit
                path.append(u)
                block_stack.append(u)
                continue
            path.pop()
            if not path:
                break
            p = path[-1]
            if low[v] < depth[p]:
                if low[v] < low[p]:
                    low[p] = low[v]
                continue
            block = 1 << p
            while True:
                w = block_stack.pop()
                block |= 1 << w
                if w == v:
                    break
            found.append(block)
    return found, even


def bits(mask: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# -- construction --------------------------------------------------------


def check_order(n: int) -> None:
    """Reject an order ``Graph`` would reject, before anything of size n is built."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise GraphError(f"graphs are capped at {MAX_VERTICES} vertices, got {n}")


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an explicit edge list; duplicates collapse."""
    check_order(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop ({u},{v}) not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def edgeless(n: int) -> Graph:
    check_order(n)
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << u) for u in range(n)))


def path_graph(n: int) -> Graph:
    check_order(n)
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle graph needs at least 3 vertices")
    check_order(n)
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return join(edgeless(a), edgeless(b))


def star(leaves: int) -> Graph:
    return complete_bipartite(1, leaves)


_PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),      # outer 5-cycle
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),      # inner 5-cycle (pentagram)
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),      # spokes
]


def petersen() -> Graph:
    return from_edge_list(10, _PETERSEN_EDGES)


# -- algebra -------------------------------------------------------------


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint copies plus all cross edges; g1's block keeps labels 0..n1-1."""
    n1, n2 = g1.n, g2.n
    check_order(n1 + n2)
    shift_full = ((1 << n2) - 1) << n1
    lower_full = (1 << n1) - 1
    rows = [g1.rows[u] | shift_full for u in range(n1)]
    rows += [(g2.rows[u] << n1) | lower_full for u in range(n2)]
    return Graph(n1 + n2, tuple(rows))


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    check_order(sum(g.n for g in parts))
    n = 0
    rows: list[int] = []
    for g in parts:
        rows.extend(row << n for row in g.rows)
        n += g.n
    return Graph(n, tuple(rows))


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(g.n, tuple(full ^ row ^ (1 << u) for u, row in enumerate(g.rows)))


def induced_subgraph(g: Graph, keep_mask: int) -> Graph:
    """Induced subgraph on the masked vertices, relabeled in ascending order."""
    keep = bits(keep_mask)
    index = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        row = 0
        for w in bits(g.rows[v] & keep_mask):
            row |= 1 << index[w]
        rows.append(row)
    return Graph(len(keep), tuple(rows))


def all_distances(g: Graph, source: int) -> list[int]:
    """BFS distances from source; -1 marks unreachable vertices."""
    dist = [-1] * g.n
    dist[source] = 0
    frontier = 1 << source
    seen = frontier
    d = 0
    while frontier:
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= g.rows[v]
        frontier = nxt & ~seen
        seen |= frontier
        d += 1
        for v in bits(frontier):
            dist[v] = d
    return dist


def power(g: Graph, k: int) -> Graph:
    """Graph power: u~v iff 1 <= dist(u,v) <= k."""
    if k < 1:
        raise GraphError("power exponent must be >= 1")
    rows = []
    for u in range(g.n):
        dist = all_distances(g, u)
        row = 0
        for v in range(g.n):
            if v != u and 0 < dist[v] <= k:
                row |= 1 << v
        rows.append(row)
    return Graph(g.n, tuple(rows))


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test by backtracking; intended for small graphs."""
    if g1.n != g2.n or g1.q != g2.q or sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    n = g1.n
    deg1, deg2 = g1.degrees(), g2.degrees()
    mapping = [-1] * n
    used = 0

    def extend(u: int) -> bool:
        nonlocal used
        if u == n:
            return True
        for v in range(n):
            if used >> v & 1 or deg1[u] != deg2[v]:
                continue
            ok = True
            for w in range(u):
                if (g1.rows[u] >> w & 1) != (g2.rows[v] >> mapping[w] & 1):
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used |= 1 << v
                if extend(u + 1):
                    return True
                used ^= 1 << v
        return False

    return extend(0)
