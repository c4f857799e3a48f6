"""Pattern catalog, induced-subgraph detection and graph-class predicates.

Patterns are the small graphs that appear as forbidden subgraphs in the
theorem catalog: cliques, paths, cycles, complete bipartite graphs, the
claw, nets N_{i,j,k} and the Petersen graph.  Class predicates cover the
decidable classes (bipartite, balanced bipartite, regular, chordal,
split, planar, the last with a checkable certificate either way); interval, cocomparability, spider, comparability and
projective-planar recognition are deliberately not implemented and those
premises are assertable-only in the registry.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .cycles import CertificateError
from .graph import (
    Graph,
    GraphError,
    are_isomorphic,
    biconnected_blocks,
    bits,
    complement,
    complete,
    complete_bipartite,
    cycle_graph,
    edgeless,
    from_edge_list,
    mask_of,
    path_graph,
    petersen,
)


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

    Backtracking over a connectivity-first vertex order.  Each level's
    candidates are one bitmask: the unused vertices of large enough degree,
    ANDed with the row, or the complement of the row, of every placed
    image.  They are tried in increasing order, so the first embedding is
    that of a vertex-by-vertex search; exhaustive, so None is a proof of
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
    g_rows, g_degs, h_degs = g.rows, g.degrees(), h.degrees()
    # level i places order[i]: among the vertices of g of large enough
    # degree, it must see exactly the images of the earlier pattern
    # vertices it is adjacent to in h
    eligible = [mask_of(v for v in range(g.n) if g_degs[v] >= h_degs[hv]) for hv in order]
    wants = [[h.rows[hv] >> prev & 1 for prev in order[:i]] for i, hv in enumerate(order)]
    image = [-1] * h.n

    def place(idx: int, used: int) -> bool:
        if idx == h.n:
            return True
        cand = eligible[idx] & ~used
        for j, want in enumerate(wants[idx]):
            row = g_rows[image[j]]
            cand &= row if want else ~row
        while cand:
            low = cand & -cand
            cand ^= low
            image[idx] = low.bit_length() - 1
            if place(idx + 1, used | low):
                return True
        return False

    if place(0, 0):
        mapping = dict(zip(order, image))
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
    sides = bipartition(g)
    if sides is None:
        return False
    s0, s1 = sides
    sums = {0}
    for comp in g.component_masks():
        a, b = (s0 & comp).bit_count(), (s1 & comp).bit_count()
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


# -- planarity by path addition, with certificates -------------------------


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _bfs_path(rows: tuple[int, ...], start: int, allowed: int, targets: int) -> list[int]:
    """Shortest path from start, inside ``allowed``, to the nearest target."""
    parent = {start: start}
    queue = [start]
    seen = 1 << start
    for v in queue:
        if targets >> v & 1:
            path = [v]
            while v != start:
                v = parent[v]
                path.append(v)
            return path[::-1]
        for u in bits(rows[v] & allowed & ~seen):
            seen |= 1 << u
            parent[u] = v
            queue.append(u)
    raise GraphError("no path to a target")  # unreachable inside a block


def _block_faces(g: Graph, block: int) -> list[list[int]] | None:
    """Faces of a plane embedding of one block of 3+ vertices, or None.

    Demoucron, Malgrange and Pertuiset (1964).  A cycle and its two sides
    start the embedding.  A fragment is an undrawn edge between drawn
    vertices, or a component of the undrawn vertices with its edges to
    the drawn ones, where it attaches; a face admits it when it holds
    every attachment.  Each step draws one fragment's path between two
    attachments across an admissible face, splitting it.  A fragment that
    no face admits proves the block non-planar.  A fragment admitted by
    one face goes first; otherwise any choice keeps a planar block
    embeddable.  Faces are vertex cycles; each orientation of each drawn
    edge bounds exactly one of them.
    """
    rows = g.rows
    a = _lowest(block)
    b = _lowest(rows[a] & block)
    cycle = [a] + _bfs_path(rows, b, block & ~(1 << a), rows[a] & ~(1 << b))
    faces = [cycle, cycle[::-1]]
    masks = [mask_of(cycle)] * 2
    drawn = [0] * g.n  # drawn[v]: v's drawn neighbours
    for i, v in enumerate(cycle):
        w = cycle[i - 1]
        drawn[v] |= 1 << w
        drawn[w] |= 1 << v
    done = masks[0]
    while True:
        fragments: list[tuple[int, int]] = []  # (attachments, vertices)
        for v in bits(done):
            for u in bits(rows[v] & done & ~drawn[v] & ~((2 << v) - 1)):
                fragments.append(((1 << v) | (1 << u), 0))
        rest = block & ~done
        while rest:
            comp = g.reach_mask(rest & -rest, rest)
            rest &= ~comp
            attach = 0
            for v in bits(comp):
                attach |= rows[v]
            fragments.append((attach & done, comp))
        if not fragments:
            return faces
        choice = None
        for attach, comp in fragments:
            admit = [i for i, m in enumerate(masks) if not attach & ~m]
            if not admit:
                return None
            if choice is None or len(admit) == 1:
                choice = admit[0], attach, comp
                if len(admit) == 1:
                    break
        i, attach, comp = choice
        x = _lowest(attach)
        others = attach & ~(1 << x)
        if comp:
            far = 0
            for y in bits(others):
                far |= rows[y]
            inner = _bfs_path(rows, _lowest(rows[x] & comp), comp, far)
            path = [x, *inner, _lowest(rows[inner[-1]] & others)]
        else:
            path = [x, _lowest(others)]
        face = faces[i]
        k = face.index(path[0])
        face = face[k:] + face[:k]
        j = face.index(path[-1])
        inner = path[1:-1]
        faces[i] = face[: j + 1] + inner[::-1]
        faces.append(face[j:] + [path[0]] + inner)
        masks[i] = mask_of(faces[i])
        masks.append(mask_of(faces[-1]))
        for v, w in zip(path, path[1:]):
            drawn[v] |= 1 << w
            drawn[w] |= 1 << v
        done |= mask_of(inner)


def is_planar(g: Graph) -> bool:
    """Exact planarity in polynomial time.

    Euler's bound q <= 3n - 6 first, then path addition on every block of
    five or more vertices: a graph is planar iff its blocks are.  Builds
    no certificate; ``planarity_certificate`` does.
    """
    if g.n >= 3 and g.q > 3 * g.n - 6:
        return False
    blocks = biconnected_blocks(g)[0]
    return all(_block_faces(g, b) is not None for b in blocks if b.bit_count() >= 5)


# The certificates are NamedTuples, not dataclasses: a dataclass costs
# about ten times as much to create, and every CLI process pays that at
# import.


class RotationCert(NamedTuple):
    """A plane embedding: ``rotation[v]`` lists v's neighbours in cyclic order."""

    rotation: tuple[tuple[int, ...], ...]

    def validate(self, g: Graph) -> None:
        """Trace the faces and check Euler's formula.

        The face after dart u->v leaves v towards the neighbour after u in
        v's rotation.  Each component satisfies V - E + F = 2 on its own
        (an isolated vertex bounds one face), which is V - E + F = 1 + c
        with the outer face counted once, exactly when the rotation
        system embeds G in the plane.
        """
        if len(self.rotation) != g.n:
            raise CertificateError(f"rotation has {len(self.rotation)} vertices, graph {g.n}")
        succ: dict[tuple[int, int], int] = {}
        for v, rot in enumerate(self.rotation):
            in_range = all(0 <= u < g.n for u in rot)
            if not in_range or len(set(rot)) != len(rot) or mask_of(rot) != g.rows[v]:
                raise CertificateError(f"rotation at {v} is not a cyclic order of its neighbours")
            for k, u in enumerate(rot):
                succ[v, u] = rot[(k + 1) % len(rot)]
        faces = sum(1 for row in g.rows if not row)
        seen: set[tuple[int, int]] = set()
        for dart in succ:
            if dart in seen:
                continue
            faces += 1
            while dart not in seen:
                seen.add(dart)
                u, v = dart
                dart = (v, succ[v, u])
        c = g.count_components()
        if g.n - g.q + faces != 2 * c:
            euler = g.n - g.q + faces - c + 1
            raise CertificateError(f"V - E + F = {euler} with one outer face, not 1 + c = {1 + c}")


class KuratowskiCert(NamedTuple):
    """A subdivision of K_5 or K_{3,3} in G, given by its edges."""

    edges: tuple[tuple[int, int], ...]

    def validate(self, g: Graph) -> None:
        """Suppress degree-2 vertices, with no parallel edge allowed, and
        compare what is left with K_5 and K_{3,3}."""
        adj: dict[int, set[int]] = {}
        for u, v in self.edges:
            if not (0 <= u < g.n and 0 <= v < g.n and g.rows[u] >> v & 1):
                raise CertificateError(f"{u}-{v} is not an edge")
            if v in adj.get(u, ()):
                raise CertificateError(f"edge {u}-{v} listed twice")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        for v in [v for v, nb in adj.items() if len(nb) == 2]:
            a, b = adj.pop(v)
            adj[a].discard(v)
            adj[b].discard(v)
            if b in adj[a]:
                raise CertificateError(f"suppressing {v} makes a parallel edge {a}-{b}")
            adj[a].add(b)
            adj[b].add(a)
        index = {v: k for k, v in enumerate(sorted(adj))}
        h = from_edge_list(len(index), [(index[u], index[v]) for u in adj for v in adj[u] if u < v])
        if not (are_isomorphic(h, complete(5)) or are_isomorphic(h, complete_bipartite(3, 3))):
            raise CertificateError("suppressing degree-2 vertices leaves neither K_5 nor K_{3,3}")


def planarity_certificate(g: Graph) -> RotationCert | KuratowskiCert:
    """A checkable proof of the planarity verdict, validated before return.

    Planar: a rotation system, joining each block's embedding at the cut
    vertices.  Non-planar: a Kuratowski subdivision, left after deleting
    every edge whose removal keeps the graph non-planar (q more tests).
    """
    if is_planar(g):
        order: list[list[int]] = [[] for _ in range(g.n)]
        for block in biconnected_blocks(g)[0]:
            if block.bit_count() == 2:  # a bridge
                u, v = bits(block)
                order[u].append(v)
                order[v].append(u)
                continue
            succ = {}  # (v, u): the neighbour after u around v
            for face in _block_faces(g, block):
                for k, v in enumerate(face):
                    succ[v, face[k - 1]] = face[(k + 1) % len(face)]
            for v in bits(block):
                first = u = _lowest(g.rows[v] & block)
                while True:
                    order[v].append(u)
                    u = succ[v, u]
                    if u == first:
                        break
        cert: RotationCert | KuratowskiCert = RotationCert(tuple(map(tuple, order)))
    else:
        rows = list(g.rows)
        for u, v in g.edges():
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            if is_planar(Graph(g.n, tuple(rows))):
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
        cert = KuratowskiCert(tuple(Graph(g.n, tuple(rows)).edges()))
    cert.validate(g)
    return cert
