"""Exact numeric invariants: connectivity, independence number, toughness,
binding number, degree-sum and distance-degree minima, the last by a
bitmask BFS to depth t from each vertex.

Everything is computed exactly.  The NP-hard invariants (alpha, toughness,
binding number) use exhaustive search with pruning; alpha takes each
vertex of degree at most 1 without a branch; toughness tries the
kappa-separators, listed as the neighbourhoods of small connected sets or
as all kappa-sets, whichever list is shorter, then builds each larger
cutset that could tie or beat the best ratio around its smallest
component, and stops where min(alpha, n - s) bounds the component count
too low; the binding number's subset search cuts every subtree whose
sets cannot beat the best ratio, bounding how many vertices a set can
add (room) and how many new neighbours they bring (coverage); b >= x is
decided without b, in polynomial time, by a counting bound and a
supply-and-demand flow for each largest A_y = V - N(y) (Cunningham 1990).
Connectivity goes through unit-capacity vertex max-flow, each flow seeded
with the two-edge paths through the common neighbours of its pair.  The
test suite checks each against an exhaustive search.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import comb
from typing import Callable, Protocol

from .exact import Exact, INF
from .graph import Graph, bits


# -- degree sums over independent sets ------------------------------------


def sigma_t(g: Graph, t: int) -> Exact:
    """Minimum degree sum over independent t-sets; +inf when alpha < t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    degs = g.degrees()
    rows = g.rows
    best: list[Exact] = [INF]

    def extend(start: int, allowed: int, size: int, acc: int) -> None:
        if size == t:
            if acc < best[0]:
                best[0] = acc
            return
        m = allowed >> start << start
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            extend(v + 1, allowed & ~rows[v], size + 1, acc + degs[v])

    extend(0, g.full_mask, 0, 0)
    return best[0]


def delta_t(g: Graph, t: int) -> Exact:
    """Minimum over vertex pairs at distance exactly t of max{d(u),d(v)}.

    Each u, by ascending degree, runs a bitmask BFS to depth t; its last
    frontier holds the vertices at distance t, and the first degree class
    that frontier meets gives their least degree.  Once d(u) reaches the
    best value no later u can lower it.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    rows = g.rows
    degs = g.degrees()
    classes: dict[int, int] = {}
    for v, d in enumerate(degs):
        classes[d] = classes.get(d, 0) | 1 << v
    by_degree = sorted(classes.items())
    best: Exact = INF
    for u in sorted(range(g.n), key=degs.__getitem__):
        du = degs[u]
        if du >= best:
            break
        seen = frontier = 1 << u
        for _ in range(t):
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= rows[low.bit_length() - 1]
            frontier = reach & ~seen
            seen |= frontier
        for d, members in by_degree:
            if frontier & members:
                best = min(best, max(du, d))
                break
    return best


# -- connectivity ---------------------------------------------------------


def _vertex_max_flow(g: Graph, s: int, t: int, limit: int) -> tuple[int, int]:
    """(min(limit, max number of internally vertex-disjoint s-t paths), an s-t
    separator of that many vertices as a bitmask, or 0 at the limit), s and t
    nonadjacent.

    Augmenting paths in the vertex-split network (v_in -> v_out, capacity 1
    inside every vertex but s and t, unbounded along edges), searched with
    bitmasks over the states reached so far.  The flow is held as ``prv[w]``,
    the vertex whose out-node sends w's one unit into w's in-node (-1 when w
    carries none); every other residual arc follows from it.  It starts
    from the paths s-w-t, one for each common neighbour w (``prv[w] = s``,
    what an augmentation along s-w-t records), so a pair with at least
    ``limit`` common neighbours needs no search.  Below the limit, the last
    search reaches the in-node but not the out-node of exactly the vertices
    of a minimum separator (Menger).  The states it reaches are the same
    for every maximum flow: the least s-side of a minimum cut.  So the
    separator, the one whose s-side lies inside every other's, does not
    depend on the flow the searches started from.
    """
    n, rows = g.n, g.rows
    common = rows[s] & rows[t]
    flow = common.bit_count()
    if flow >= limit:
        return limit, 0
    prv = [-1] * n
    for w in bits(common):
        prv[w] = s
    par_in = [0] * n  # in-node w entered from u's out-node (u), or from w's own (-1)
    par_out = [0] * n  # out-node v entered from x's in-node (x == v: inside v)
    while flow < limit:
        seen_in = seen_out = 1 << s
        stack = [s]
        found = False
        while stack and not found:
            v = stack.pop()
            x = prv[v]
            if x >= 0 and not seen_in >> v & 1:  # back through v: v_out -> v_in -> x_out
                seen_in |= 1 << v
                par_in[v] = -1
                if not seen_out >> x & 1:
                    seen_out |= 1 << x
                    par_out[x] = v
                    stack.append(x)
            new = rows[v] & ~seen_in
            seen_in |= new
            while new:
                low = new & -new
                new ^= low
                w = low.bit_length() - 1
                par_in[w] = v
                if w == t:
                    found = True
                    break
                x = prv[w]
                u = w if x < 0 else x  # through w if it is free, else back along its unit
                if not seen_out >> u & 1:
                    seen_out |= 1 << u
                    par_out[u] = w
                    stack.append(u)
        if not found:
            return flow, seen_in & ~seen_out
        w = t
        while True:
            u = par_in[w]
            if u < 0:
                prv[w] = -1
                u = w
            elif w != t:
                prv[w] = u
            if u == s:
                break
            w = par_out[u]
        flow += 1
    return flow, 0


def min_separator(g: Graph) -> tuple[int, int]:
    """(kappa, a vertex set of kappa vertices that disconnects G, as a bitmask).

    kappa(K_n) = n-1 by convention, with N(v) as the set, which leaves
    one vertex; 0 with the empty set if G is disconnected or n <= 1.
    Esfahanian and Hakimi (1984): take v of minimum degree.  A minimum cut
    either misses v, and then separates v from a non-neighbour, or holds
    v, and then separates two non-adjacent neighbours of v.  So only those
    pairs need a flow, and each flow stops at the best cut so far, which
    starts at N(v); the set is N(v) or the separator of the last flow
    that beat the best, the one whose v-side (s-side) lies inside every
    other minimum separator's.
    """
    n, rows = g.n, g.rows
    if n <= 1 or not g.is_connected():
        return 0, 0
    v = min(range(n), key=lambda u: rows[u].bit_count())
    best, cut = rows[v].bit_count(), rows[v]
    pairs = [(v, t) for t in bits(g.full_mask & ~rows[v] & ~(1 << v))]
    nbrs = bits(rows[v])
    pairs += [(x, y) for i, x in enumerate(nbrs) for y in nbrs[i + 1:] if not rows[x] >> y & 1]
    for s, t in pairs:
        flow, sep = _vertex_max_flow(g, s, t, best)
        if flow < best:
            best, cut = flow, sep
    return best, cut


def connectivity(g: Graph) -> int:
    """Vertex connectivity; kappa(K_n) = n-1 by convention, 0 if disconnected."""
    return min_separator(g)[0]


def _union_table(rows: tuple[int, ...]) -> list[int]:
    """table[f] = the union of rows[v] over the set bits v of f."""
    table = [0] * (1 << len(rows))
    for f in range(1, len(table)):
        low = f & -f
        table[f] = table[f ^ low] | rows[low.bit_length() - 1]
    return table


# The least order at which ``cut_scan`` counts components through union
# tables; below it, building the 2^10-entry table costs more than it
# saves, and ``Graph.count_components`` counts them.  Over seeded
# soundness-mix graphs the two break even at 13 vertices and the tables
# win at 14; on C_20^4 they take 51 ms against 80 ms (Python 3.11, one
# core of a shared 2-vCPU machine).
UNION_TABLE_ORDER = 14


def _table_components(rows: tuple[int, ...]) -> Callable[[int], int]:
    """The component count of G[rem], as a function of rem: the
    neighbourhood of a frontier is one table lookup for each of vertices
    0..9 and 10..19, then one row per vertex above."""
    lo, hi, rest = _union_table(rows[:10]), _union_table(rows[10:20]), rows[20:]

    def components(rem: int) -> int:
        count = 0
        while rem:
            comp = frontier = rem & -rem
            while frontier:
                nxt = lo[frontier & 1023] | hi[frontier >> 10 & 1023]
                f = frontier >> 20
                while f:
                    low = f & -f
                    f ^= low
                    nxt |= rest[low.bit_length() - 1]
                frontier = nxt & rem & ~comp
                comp |= frontier
            rem ^= comp
            count += 1
        return count

    return components


def _connected_sets(
    rows: tuple[int, ...], m: int, reach: int, limit: int | None = None
) -> list[tuple[int, int, int]] | None:
    """Every connected vertex set C of at most m vertices with
    |C + N(C)| <= reach, as (|C|, C, N(C)), by size; None as soon as more
    than ``limit`` sets are listed.

    A connected subset C0 of such a set C has both bounds too, because
    N(C0) lies in C + N(C); so only the sets within them are grown, and
    every such set is still reached through its connected subsets.
    """
    level = {1 << v: row for v, row in enumerate(rows) if row.bit_count() < reach}
    out = []
    for size in range(1, m + 1):
        out.extend((size, comp, nbhd) for comp, nbhd in level.items())
        if limit is not None and len(out) > limit:
            return None
        grown: dict[int, int] = {}
        if size < m:
            for comp, nbhd in level.items():
                f = nbhd
                while f:
                    low = f & -f
                    f ^= low
                    bigger = comp | low
                    if bigger not in grown:
                        grown[bigger] = (nbhd | rows[low.bit_length() - 1]) & ~bigger
        level = {c: nb for c, nb in grown.items() if nb.bit_count() < reach - size}
    return out


class WithCutBounds(Protocol):
    """A graph ``g`` held with its connectivity and independence number,
    as ``registry.Profile`` holds them."""

    g: Graph
    kappa: int
    alpha: int


def cut_scan(g: Graph | WithCutBounds) -> tuple[Exact, int]:
    """Toughness by a smallest-component cut search: (tau, witness mask).

    No set of fewer than kappa vertices disconnects G, and a separator of
    kappa vertices leaves at least two components, so tau <= kappa / 2
    (Chvatal, 1973).  A kappa-set S disconnects G only if S = N(C) for the
    smallest component C of G - S: N(C) lies in S and disconnects C from
    the rest, so it has kappa vertices too.  C is connected and has at
    most (n - kappa) // 2 vertices, so the kappa-sets tried are the N(C)
    of kappa vertices over those C, unless the C outnumber the C(n, kappa)
    kappa-sets, and then every kappa-set is.  Above kappa, a set S of s
    vertices ties or beats the best ratio num / den only if G - S has
    c >= c_min = ceil(s * den / num) components.  The smallest of them, C,
    is connected, has at most m = (n - s) // c_min vertices, and has all
    its neighbours in S.  So the connected sets C are listed once, with
    N(C), up to the first size's m, which only falls as s grows, keeping
    only those with |C| + |N(C)| at most the largest m + s of the sizes
    still to run, as C + N(C) lies in C + S; each S of size s is N(C) plus
    s - |N(C)| vertices outside C and N(C), and is visited once.  G - S has at most min(alpha, n - s) components, so the
    search ends at the first size where c_min exceeds that, which is where
    s / min(alpha, n - s), a ratio that never falls as s grows, exceeds
    the best ratio.  Ties go to the smallest integer S, which is the first
    minimum of a scan over all 2^n subsets; once 2^s - 1, the least s-set,
    exceeds the witness, no s-set can win a tie and c_min asks for a
    strictly better ratio.  Given a graph, kappa and alpha are computed
    here; given a ``WithCutBounds``, its own are used.
    """
    bounds, g = (None, g) if isinstance(g, Graph) else (g, g.g)
    n, rows = g.n, g.rows
    if n <= 1 or g.q == n * (n - 1) // 2:
        return (INF, 0)  # no vertex set disconnects G
    if bounds is None:
        kappa, alpha = connectivity(g), independence_number(g)[0]
    else:
        kappa, alpha = bounds.kappa, bounds.alpha
    if not kappa:
        return (Fraction(0), 0)  # G is disconnected: S = {} is the witness
    full = g.full_mask
    singletons = [1 << v for v in range(n)]
    components = _table_components(rows) if n >= UNION_TABLE_ORDER else g.count_components

    # tau = num / den, with 1/0 standing for +inf until the first cutset.
    num, den, witness = 1, 0, 0
    half = (n - kappa) // 2
    small = _connected_sets(rows, half, half + kappa, comb(n, kappa))
    if small is None:
        cuts = map(sum, combinations(singletons, kappa))
    else:
        cuts = {nbhd for _, _, nbhd in small if nbhd.bit_count() == kappa}
    for cut in cuts:
        comps = components(full ^ cut)
        if comps > 1 and (
            kappa * den < num * comps or (kappa * den == num * comps and cut < witness)
        ):
            num, den, witness = kappa, comps, cut
    smallest = None
    for s in range(kappa + 1, n - 1):
        ties = (1 << s) - 1 < witness
        c_min = -(-s * den // num) if ties else s * den // num + 1
        if c_min > min(alpha, n - s):
            break
        m = (n - s) // c_min
        if smallest is None:
            # C + N(C) lies in C + S, so it has at most m + s vertices at
            # every level; num / den only falls, so the caps at the current
            # ratio (ties allowed) bound those of the levels still to run.
            caps = (
                t + (n - t) // -(-t * den // num)
                for t in range(s, n - 1)
                if -(-t * den // num) <= min(alpha, n - t)
            )
            smallest = _connected_sets(rows, m, max(caps))
        seen = set()
        for size, comp, nbhd in smallest:
            if size > m:
                break
            k = nbhd.bit_count()
            if k > s:
                continue
            outside = full ^ comp ^ nbhd
            for combo in combinations([b for b in singletons if b & outside], s - k):
                cut = nbhd + sum(combo)
                if cut in seen:
                    continue
                seen.add(cut)
                comps = 1 + components(full ^ cut ^ comp)
                if comps >= c_min and (
                    s * den < num * comps or (s * den == num * comps and cut < witness)
                ):
                    num, den, witness = s, comps, cut
    return (Fraction(num, den), witness)


def toughness(g: Graph) -> tuple[Exact, list[int]]:
    """Exact toughness with a witness cutset (empty for complete graphs)."""
    tau, witness = cut_scan(g)
    return tau, bits(witness)


# -- independence ---------------------------------------------------------


def independence_number(g: Graph) -> tuple[int, list[int]]:
    """Maximum independent set size with a witness, by branch and bound.

    A vertex of degree <= 1 in the candidates' graph is taken without a
    branch: some maximum independent set contains it.  Otherwise the
    search branches on a maximum-degree candidate.  One pass over the
    candidates finds either kind of vertex.
    """
    rows = g.rows
    best_size = 0
    best_mask = 0

    def bnb(allowed: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_mask
        while True:
            if size + allowed.bit_count() <= best_size:
                return
            if not allowed:
                best_size, best_mask = size, chosen
                return
            v, top = -1, -1
            for u in bits(allowed):
                d = (rows[u] & allowed).bit_count()
                if d <= 1:
                    v, top = u, d
                    break
                if d > top:
                    v, top = u, d
            if top > 1:
                break
            allowed &= ~rows[v] & ~(1 << v)
            chosen |= 1 << v
            size += 1
        # branch on v: either exclude it or take it
        bnb(allowed & ~(1 << v), chosen, size)
        bnb(allowed & ~rows[v] & ~(1 << v), chosen | (1 << v), size + 1)

    bnb(g.full_mask, 0, 0)
    return best_size, bits(best_mask)


# -- binding number -------------------------------------------------------


def binding_number(g: Graph, below: Exact | None = None) -> tuple[Exact, list[int]]:
    """Woodall's binding number: min |N(X)|/|X| over nonempty X with N(X) != V.

    A search over the sets X in lexicographic order, which keeps the first
    minimum as the witness.  Subtrees where N(X) already covers V are
    pruned (supersets only grow the neighborhood), and so is every subtree
    whose sets provably cannot beat the best ratio so far strictly, so the
    first minimum is still found (``cannot_beat`` gives the bounds).  An
    isolated vertex v gives N({v}) = {} and the value 0 at once;
    {smallest isolated v} is also the first zero of the search.

    Given a finite ``below`` = x, only b < x is asked (an isolated vertex
    still answers 0 at once), and a max-flow answers it in polynomial time
    (``_binding_below``): (|N(X)|/|X|, X) for some X with N(X) != V and
    |N(X)| < x |X|, or ``(x, [])`` when no X has, so b >= x.
    """
    if g.n == 0:
        raise ValueError("binding number needs n >= 1")
    n, rows = g.n, g.rows
    if 0 in rows:
        return Fraction(0), [rows.index(0)]
    if below is not None and below != INF:
        return _binding_below(g, below)
    full = g.full_mask
    # best = num / den, with 1/0 standing for +inf; the strict
    # cross-multiplied test keeps the first minimum found.
    num, den, witness = 1, 0, 0

    def cannot_beat(start: int, size: int, k: int, nbhd: int) -> bool:
        """No set below X (``size`` vertices, neighbourhood ``nbhd`` of k
        vertices) has a ratio below num / den.

        Such a set adds t >= 1 candidates: vertices from ``start`` on whose
        neighbourhood misses part of W = V - N(X).  Its ratio is at least
        (k + new) / (size + t), where
        - room: some w in W stays outside its neighbourhood, so the added
          vertices avoid N(w), and t <= ``room``, the most candidates
          outside one N(w);
        - coverage: each candidate has at least m neighbours in W, and
          at most ``share`` candidates have one vertex of W in common, so
          the added vertices bring new >= max(m, t * m / share).
        Over 1 <= t <= room that bound is least at t = min(share, room) or
        at t = room.  Cheaper forms (t <= n - start, t <= the number of
        candidates) are tried first.
        """
        if k * den >= num * (size + n - start):
            return True
        free = full ^ nbhd
        cands, m = 0, n
        for v in range(start, n):
            new = rows[v] & free
            if new != free:
                cands |= 1 << v
                c = new.bit_count()
                if c < m:
                    m = c
        if (k + m) * den >= num * (size + cands.bit_count()):
            return True
        # share >= 1 whenever m >= 1; at m = 0 the bound is k / (size + room)
        # for any share.
        room, share = 0, 1
        for w in bits(free):
            c = (cands & ~rows[w]).bit_count()
            if c > room:
                room = c
            c = (cands & rows[w]).bit_count()
            if c > share:
                share = c
        return (k + m) * den >= num * (size + min(share, room)) and (
            room <= share or (k * share + room * m) * den >= num * share * (size + room)
        )

    def extend(start: int, chosen: int, size: int, nbhd: int) -> None:
        nonlocal num, den, witness
        if size:
            k = nbhd.bit_count()
            if k * den < num * size:
                num, den, witness = k, size, chosen
            if den and cannot_beat(start, size, k, nbhd):
                return
        for v in range(start, n):
            nb = nbhd | rows[v]
            if nb != full:
                extend(v + 1, chosen | (1 << v), size + 1, nb)

    extend(0, 0, 0, 0)
    return (Fraction(num, den) if den else INF), bits(witness)


def _neighbourhood(rows: tuple[int, ...], xs: int) -> int:
    """N(X) for the vertex set X, a bitmask."""
    nbhd = 0
    while xs:
        low = xs & -xs
        xs ^= low
        nbhd |= rows[low.bit_length() - 1]
    return nbhd


def _binding_below(g: Graph, x: Exact) -> tuple[Exact, list[int]]:
    """``binding_number(g, x)`` on a graph with no isolated vertex: a
    max-flow test after Cunningham (1990), with x = p / q in lowest terms.

    N(X) != V holds exactly when X lies in some A_y = V - N(y), so the
    sets X inside each A_y are tested, and only the largest A_y, those of
    inclusion-minimal N(y), need it.  A counting bound rules A_y in first:
    a nonempty X has |N(X)| >= delta, and |X| <= Delta |N(X)| / delta by
    counting the edges from X into N(X), so every X inside A_y has a ratio
    of at least delta / min(Delta, |A_y|); over every y, that is
    b >= delta / min(Delta, n - delta).  For each A_y left, X = A_y itself
    is tried, and then a flow: q |N(X)| >= p |X| for every X inside A_y is
    Hall's condition for every vertex of A_y to ship p units to its
    neighbours, each vertex absorbing at most q (``_hall_violator``).
    """
    p, q = Fraction(x).as_integer_ratio()
    n, rows = g.n, g.rows
    degs = [row.bit_count() for row in rows]
    delta, most = min(degs), max(degs)
    # The N(y) whose A_y the counting bound leaves open, smallest first.
    open_rows = sorted(
        {row for row in rows if p * min(most, n - row.bit_count()) > q * delta},
        key=lambda row: (row.bit_count(), row),
    )
    minimal: list[int] = []
    for row in open_rows:
        if all(m & ~row for m in minimal):
            minimal.append(row)
    tops = [g.full_mask ^ row for row in minimal]
    for xs in chain(tops, (_hall_violator(rows, top, p, q) for top in tops)):
        k = _neighbourhood(rows, xs).bit_count()
        if q * k < p * xs.bit_count():
            return Fraction(k, xs.bit_count()), bits(xs)
    return Fraction(p, q), []


def _hall_violator(rows: tuple[int, ...], left: int, p: int, q: int) -> int:
    """A set X inside ``left`` with q |N(X)| < p |X|, as a bitmask, or 0 if
    there is none.

    Every vertex a of ``left`` ships p units to its neighbours, each vertex
    absorbing at most q: first greedily, then along augmenting paths, each
    from a through its neighbours and back from a neighbour v to a vertex
    b that ships to v, until a vertex that can still absorb.  When a
    search from a finds none, the vertices it reached, X, send all they
    ship into N(X), which is full, and a ships less than p, so
    q |N(X)| < p |X|.  The searches are breadth first over bitmasks of the
    reached vertices.
    """
    n = len(rows)
    room = [q] * n  # what each vertex can still absorb
    sent: dict[tuple[int, int], int] = {}  # (b, v): the units b ships to v, when positive
    carriers = [0] * n  # the vertices that ship to v
    par_right = [0] * n  # the vertex whose neighbour v is, on the search's path
    par_left = [0] * n  # the vertex b ships to, reached back through it
    for a in bits(left):
        need = p
        nbrs = rows[a]
        while need and nbrs:
            vbit = nbrs & -nbrs
            nbrs ^= vbit
            v = vbit.bit_length() - 1
            r = room[v]
            if r:
                t = r if r < need else need
                room[v] = r - t
                sent[a, v] = t
                carriers[v] |= 1 << a
                need -= t
        while need:
            seen_left = frontier = 1 << a
            seen_right = 0
            end = -1
            while frontier and end < 0:
                nxt = 0
                for b in bits(frontier):
                    new = rows[b] & ~seen_right
                    seen_right |= new
                    while new:
                        vbit = new & -new
                        new ^= vbit
                        v = vbit.bit_length() - 1
                        par_right[v] = b
                        if room[v]:
                            end = v
                            break
                        back = carriers[v] & ~seen_left
                        seen_left |= back
                        nxt |= back
                        for c in bits(back):
                            par_left[c] = v
                    if end >= 0:
                        break
                frontier = nxt
            if end < 0:
                return seen_left
            amount = min(need, room[end])
            b = par_right[end]
            while b != a:
                u = par_left[b]
                amount = min(amount, sent[b, u])
                b = par_right[u]
            room[end] -= amount
            need -= amount
            v = end
            while True:
                b = par_right[v]
                sent[b, v] = sent.get((b, v), 0) + amount
                carriers[v] |= 1 << b
                if b == a:
                    break
                v = par_left[b]
                rest = sent[b, v] - amount
                if rest:
                    sent[b, v] = rest
                else:
                    del sent[b, v]
                    carriers[v] &= ~(1 << b)
    return 0
