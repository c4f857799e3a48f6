"""Deterministic constructors for the extremal and sharpness families.

Every builder produces the same labeled graph on every call: blocks are
laid out in listing order and matchings pair lowest indices first, so
graph6 output is byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graph import (
    Graph,
    GraphError,
    check_order,
    complete,
    complete_bipartite,
    cycle_graph,
    disjoint_union,
    edgeless,
    from_edge_list,
    join,
    path_graph,
    petersen,
)


def t_cliques_join(t: int, a: int, b: int) -> Graph:
    """t disjoint copies of K_a, joined to K_b (the graph tK_a + K_b)."""
    if t < 1 or a < 1 or b < 0:
        raise GraphError("tK_a + K_b needs t >= 1, a >= 1, b >= 0")
    check_order(t * a + b)
    return join(disjoint_union([complete(a)] * t), complete(b))


def two_cliques_plus_hub(delta: int) -> Graph:
    """2K_delta + K_1: the minimum-degree sharpness graph for Dirac's bound."""
    if delta < 1:
        raise GraphError("2K_delta + K_1 needs delta >= 1")
    return t_cliques_join(2, delta, 1)


def h_graph(a: int, b: int, t: int, k: int) -> Graph:
    """H(a,b,t,k): tK_a + empty K_t, then K_b joined to k of the empty side.

    Layout: the t cliques first (t*a vertices), then the t independent
    vertices, then the K_b block.  The k designated independent vertices
    are the lowest-labeled ones.
    """
    if not (a >= 1 and b >= 0 and t >= 1 and 0 <= k <= t):
        raise GraphError("H(a,b,t,k) needs a,t >= 1, b >= 0 and 0 <= k <= t")
    check_order(t * a + t + b)
    base = join(disjoint_union([complete(a)] * t), edgeless(t))
    g = disjoint_union([base, complete(b)])
    edges = g.edges()
    indep_start = t * a
    clique_start = t * a + t
    for i in range(k):
        for v in range(clique_start, clique_start + b):
            edges.append((indep_start + i, v))
    return from_edge_list(g.n, edges)


def l_graph(delta: int) -> Graph:
    """L_delta: 3K_delta + K_1 with a triangle on one representative per clique."""
    if delta < 1:
        raise GraphError("L_delta needs delta >= 1")
    g = t_cliques_join(3, delta, 1)
    reps = [0, delta, 2 * delta]
    edges = g.edges()
    edges += [(reps[0], reps[1]), (reps[1], reps[2]), (reps[0], reps[2])]
    return from_edge_list(g.n, edges)


def _g_layout(n: int, delta: int, middle: Callable[[int], Graph]) -> Graph:
    """The G_n block layout with ``middle(delta)`` as its middle block."""
    check_order(n)
    half = (n - 1) // 2
    small = (n + 1) // 2 - delta
    g = disjoint_union([edgeless(half), middle(delta), complete(small)])
    edges = g.edges()
    for v in range(half, half + delta):  # the middle block joined to everything
        for u in range(n):
            if u != v and not (half <= u < half + delta):
                edges.append((min(u, v), max(u, v)))
    for i in range(small):  # matching into the independent block
        edges.append((i, half + delta + i))
    return from_edge_list(n, edges)


def g_n(n: int, delta: int) -> Graph:
    """The 1-tough non-hamiltonian family on odd n >= 15.

    Blocks: independent set of size (n-1)/2, then K_delta joined to all
    other vertices, then K_{(n+1)/2-delta} matched into the lowest
    vertices of the independent block.
    """
    if n < 15 or n % 2 == 0:
        raise GraphError("G_n needs odd n >= 15")
    if not (3 * delta >= n and 2 * delta <= n - 5):
        raise GraphError("G_n needs n/3 <= delta <= (n-5)/2")
    return _g_layout(n, delta, complete)


def g_star(n: int) -> Graph:
    """Variant of g_n with the dominating clique replaced by an independent set."""
    if n < 15 or n % 2 == 0:
        raise GraphError("G*_n needs odd n >= 15")
    return _g_layout(n, (n - 5) // 2, edgeless)


def theta_graph(i: int, j: int, k: int) -> Graph:
    """Two hub vertices joined by three disjoint paths of i, j, k edges each.

    theta(3,3,3) is the 8-vertex, 9-edge sharpness gadget for both the
    balanced-bipartite degree bound and the small-size bound.
    """
    if min(i, j, k) < 1 or (i, j, k).count(1) > 1:
        # two length-1 paths would collapse into a multi-edge
        raise GraphError("theta paths need lengths >= 1 with at most one length-1 path")
    check_order(i + j + k - 1)
    edges = []
    nxt = 2
    for length in (i, j, k):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return from_edge_list(nxt, edges)


def clique_bridge_gadget() -> Graph:
    """K_5 and K_{5,2} bridged by a perfect matching on the 5-sides.

    Vertices 0..4 form the clique, 5..9 the large bipartition side,
    10..11 the small side; spokes are i ~ i+5.
    """
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(y, z) for y in range(5, 10) for z in (10, 11)]
    edges += [(i, i + 5) for i in range(5)]
    return from_edge_list(12, edges)


def moon_moser_sharp(delta: int, half: int) -> Graph:
    """Balanced bipartite size-bound extremal graph on n = 2*half vertices.

    Sides X = P|Q and Y = R|S with |P| = |R| = delta; P sees only R while
    Q sees all of Y.  Minimum degree is delta.
    """
    if not 1 <= delta <= half:
        raise GraphError("needs 1 <= delta <= half")
    check_order(2 * half)
    size = half - delta
    # layout: P (delta), Q (size), R (delta), S (size)
    edges = []
    p0, q0, r0, s0 = 0, delta, half, half + delta
    for x in range(p0, p0 + delta):
        for y in range(r0, r0 + delta):
            edges.append((x, y))
    for x in range(q0, q0 + size):
        for y in range(half, 2 * half):
            edges.append((x, y))
    return from_edge_list(2 * half, edges)


def moon_moser_cut_sharp(quarter: int) -> Graph:
    """Balanced bipartite graph with a 1-cut, sharp for the 2-connectivity premise.

    Sides split into quarters P,Q and R,S; P sees R, Q minus its special
    vertex z sees S, and z sees everything opposite.
    """
    if quarter < 1:
        raise GraphError("needs quarter >= 1")
    n = 4 * quarter
    check_order(n)
    p0, q0, r0, s0 = 0, quarter, 2 * quarter, 3 * quarter
    z = q0
    edges = []
    for x in range(p0, p0 + quarter):
        for y in range(r0, r0 + quarter):
            edges.append((x, y))
    for x in range(q0 + 1, q0 + quarter):
        for y in range(s0, s0 + quarter):
            edges.append((x, y))
    for y in range(r0, n):
        edges.append((z, y))
    return from_edge_list(n, edges)


def ktt_minus_star(t: int) -> Graph:
    """K_{t,t} with t-1 edges at one vertex removed."""
    if t < 1:
        raise GraphError("needs t >= 1")
    g = complete_bipartite(t, t)
    edges = [(u, v) for u, v in g.edges() if not (u == 0 and v > t)]
    return from_edge_list(2 * t, edges)


def clique_plus_pendant(n: int) -> Graph:
    """K_{n-1} with one pendant vertex: the size-bound extremal graph."""
    if n < 2:
        raise GraphError("needs n >= 2")
    check_order(n)
    edges = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1)]
    edges.append((0, n - 1))
    return from_edge_list(n, edges)


def clique_with_fan(n: int, delta: int) -> Graph:
    """K_{n-delta} plus delta independent vertices, each seeing the same delta clique vertices."""
    if not 1 <= delta <= n - delta:
        raise GraphError("needs 1 <= delta and 2*delta <= n")
    check_order(n)
    edges = [(u, v) for u in range(n - delta) for v in range(u + 1, n - delta)]
    for x in range(n - delta, n):
        for v in range(delta):
            edges.append((v, x))
    return from_edge_list(n, edges)


def star_of_cliques(t: int, lam: int, r: int) -> Graph:
    """t copies of K_lam and one K_{r+1}, all sharing a single vertex."""
    if t < 0 or lam < 2 or r < 0:
        raise GraphError("needs t >= 0, lam >= 2, r >= 0")
    n = t * (lam - 1) + r + 1
    check_order(n)
    edges = []
    nxt = 1
    for _ in range(t):
        block = [0] + list(range(nxt, nxt + lam - 1))
        nxt += lam - 1
        edges += [(u, v) for i, u in enumerate(block) for v in block[i + 1:]]
    block = [0] + list(range(nxt, nxt + r))
    edges += [(u, v) for i, u in enumerate(block) for v in block[i + 1:]]
    return from_edge_list(n, edges)


def clique_with_pendant_fan(n: int, t: int, lam: int) -> Graph:
    """K_{lam+1-t} plus isolated vertices each joined to the same t clique vertices."""
    core = lam + 1 - t
    if not (1 <= t <= core and core <= n):
        raise GraphError("needs 1 <= t <= lam+1-t <= n")
    check_order(n)
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    for x in range(core, n):
        for v in range(t):
            edges.append((v, x))
    return from_edge_list(n, edges)


def matchings_join_independent(a: int) -> Graph:
    """aK_2 joined to an independent set of size a-1 (binding-number extremal)."""
    if a < 1:
        raise GraphError("needs a >= 1")
    check_order(3 * a - 1)
    return join(disjoint_union([complete(2)] * a), edgeless(a - 1))


# -- catalog --------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    name: str
    params: tuple[str, ...]
    build: Callable[..., Graph]
    description: str
    cited_by: tuple[str, ...] = ()


FAMILIES: dict[str, Family] = {fam.name: fam for fam in [
    Family("complete", ("n",), complete, "complete graph K_n", ("Thm16",)),
    Family("edgeless", ("n",), edgeless, "empty graph on n vertices"),
    Family("path", ("n",), path_graph, "path P_n"),
    Family("cycle", ("n",), cycle_graph, "cycle C_n"),
    Family("completeBipartite", ("a", "b"), complete_bipartite,
           "complete bipartite K_{a,b}", ("Thm16", "Thm19", "Thm38")),
    Family("Kdd1", ("delta",), lambda delta: complete_bipartite(delta, delta + 1),
           "K_{delta,delta+1}", ("Thm8", "Thm11", "Thm13", "Thm16", "Thm47", "Thm54")),
    Family("petersen", (), petersen, "the Petersen graph",
           ("Thm8", "Thm9", "Thm20", "Thm26", "Thm48", "T19")),
    Family("tKa-join-Kb", ("t", "a", "b"), t_cliques_join,
           "t disjoint K_a joined to K_b",
           ("Thm12", "Thm14", "Thm31", "Thm32", "Thm35", "Thm36", "Thm44",
            "Thm45", "Thm50", "Thm51", "Thm52", "Thm55", "Thm56", "Thm57")),
    Family("join2Kd-K1", ("delta",), two_cliques_plus_hub,
           "2K_delta + K_1", ("Thm5", "Thm6", "Thm10", "Thm32", "Thm53")),
    Family("H", ("a", "b", "t", "k"), h_graph,
           "H(a,b,t,k) construction",
           ("Thm10", "Thm12", "Thm14", "Thm15", "Thm32", "Thm34", "Thm35",
            "Thm36", "Thm49", "Thm52", "Thm56")),
    Family("L", ("delta",), l_graph, "L_delta: 3K_delta + K_1 plus a triangle of representatives",
           ("Thm11", "Thm13", "Thm33", "Thm47", "Thm54")),
    Family("Gn", ("n", "delta"), g_n, "1-tough non-hamiltonian odd-order family"),
    Family("Gstar", ("n",), g_star, "G_n variant with independent middle block",
           ("Thm8", "Thm33", "Thm54")),
    Family("theta", ("i", "j", "k"), theta_graph,
           "two hubs joined by three internally disjoint paths",
           ("Thm7", "Thm31")),
    Family("bridge-gadget", (), clique_bridge_gadget,
           "K_5 matched to the 5-side of K_{5,2}", ("Thm9", "Thm48")),
    Family("moon-moser", ("delta", "half"), moon_moser_sharp,
           "balanced bipartite size-bound extremal graph", ("Thm4", "Thm46")),
    Family("moon-moser-cut", ("quarter",), moon_moser_cut_sharp,
           "balanced bipartite 1-cut extremal graph", ("Thm46",)),
    Family("ktt-minus-star", ("t",), ktt_minus_star,
           "K_{t,t} minus a near-perfect star at one vertex", ("Thm3",)),
    Family("clique-plus-pendant", ("n",), clique_plus_pendant,
           "K_{n-1} with a pendant vertex", ("Thm1",)),
    Family("clique-with-fan", ("n", "delta"), clique_with_fan,
           "K_{n-delta} with delta independent vertices on a common delta-set", ("Thm2",)),
    Family("star-of-cliques", ("t", "lam", "r"), star_of_cliques,
           "t K_lam blocks and one K_{r+1} block on a shared cut vertex", ("Thm42",)),
    Family("clique-with-pendant-fan", ("n", "t", "lam"), clique_with_pendant_fan,
           "K_{lam+1-t} with pendant vertices on a common t-set", ("Thm43",)),
    Family("aK2-join-Kbar", ("a",), matchings_join_independent,
           "aK_2 joined to an independent (a-1)-set", ("Thm17",)),
]}


def list_families() -> list[Family]:
    """Catalog of family constructors in deterministic order."""
    return [FAMILIES[name] for name in sorted(FAMILIES)]


def build(name: str, **params: int) -> Graph:
    """Instantiate a family by catalog name with keyword parameters."""
    if name not in FAMILIES:
        raise GraphError(f"unknown family {name!r}; see list_families()")
    fam = FAMILIES[name]
    missing = [p for p in fam.params if p not in params]
    extra = [p for p in params if p not in fam.params]
    if missing or extra:
        raise GraphError(
            f"family {name!r} takes parameters {fam.params}; "
            f"missing {missing}, unexpected {extra}"
        )
    return fam.build(**{p: params[p] for p in fam.params})
