"""Independent reference solvers that share no code with cyclekit's kernels."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from cyclekit.cycles import CeilingError
from cyclekit.exact import Exact, INF
from cyclekit.graph import Graph, GraphError, all_distances, bits, complement


def hamiltonian_dp_oracle(g: Graph) -> bool:
    """Independent hamiltonicity verdict by subset dynamic programming."""
    n, rows = g.n, g.rows
    if n == 0:
        raise GraphError("hamiltonicity needs at least one vertex")
    if n > 20:
        raise CeilingError("dp oracle capped at 20 vertices")
    if n == 1:
        return True
    if n == 2:
        return bool(rows[0] & 2)
    full = (1 << n) - 1
    dp = [0] * (full + 1)
    dp[1] = 1
    for mask in range(1, full + 1, 2):
        e = dp[mask]
        while e:
            vbit = e & -e
            e ^= vbit
            v = vbit.bit_length() - 1
            ext = rows[v] & ~mask
            while ext:
                ubit = ext & -ext
                ext ^= ubit
                dp[mask | ubit] |= ubit
    return bool(dp[full] & rows[0])


def cycle_sets_dp_oracle(g: Graph) -> dict[int, set[int]]:
    """The vertex set of every cycle of g, by length.

    Lengths 1 and 2 are the vertices and the edges.  Longer cycles come from
    one flat subset DP per minimum vertex s: ``ends[m]`` holds the last
    vertices of the paths that start at s and visit exactly the set m << s,
    and m is a cycle's set when one of those ends sees s.
    """
    n, rows = g.n, g.rows
    if n > 20:
        raise CeilingError("dp oracle capped at 20 vertices")
    sets: dict[int, set[int]] = {}
    if n:
        sets[1] = {1 << v for v in range(n)}
    edges = {(1 << u) | (1 << v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1}
    if edges:
        sets[2] = edges
    for s in range(n - 2):
        near = [rows[v] >> s for v in range(s, n)]
        ends = [0] * (1 << (n - s))
        ends[1] = 1
        for m in range(1, len(ends), 2):
            e = ends[m]
            if not e:
                continue
            k = m.bit_count()
            if k >= 3 and e & near[0]:
                sets.setdefault(k, set()).add(m << s)
            while e:
                vbit = e & -e
                e ^= vbit
                ext = near[vbit.bit_length() - 1] & ~m
                while ext:
                    ubit = ext & -ext
                    ext ^= ubit
                    ends[m | ubit] |= ubit
    return sets


def has_path(g: Graph, keep: int, edges: int) -> bool:
    """Whether the subgraph induced on the vertex set keep has a path of
    the given number of edges, by depth-first search from each vertex."""

    def grow(v: int, seen: int, left: int) -> bool:
        return not left or any(grow(u, seen | 1 << u, left - 1)
                               for u in bits(g.rows[v] & keep & ~seen))

    return any(grow(v, 1 << v, edges) for v in bits(keep))


def is_forest(g: Graph, keep: int) -> bool:
    """Whether the subgraph induced on the vertex set keep has no cycle of
    3 or more vertices: a forest has one edge fewer than vertices in each
    component."""
    edges = sum((g.rows[v] & keep).bit_count() for v in bits(keep)) // 2
    components, rest = 0, keep
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= g.rows[v]
            frontier = reach & keep & ~comp
            comp |= frontier
        rest &= ~comp
        components += 1
    return edges == keep.bit_count() - components


# The 2^n toughness scan and the vertex-by-vertex induced-subgraph search,
# kept as they were before the pruned kernels replaced them.


def cut_scan(g: Graph) -> tuple[Exact, int]:
    """Exhaustive scan over cutsets: (toughness, toughness witness mask).

    One pass over all vertex subsets S with s(G-S) > 1 yields the
    toughness minimum |S|/s(G-S).
    """
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    if n <= 1:
        return (INF, 0)
    # tau = tau_num / tau_den, with 1/0 standing for +inf so that the strict
    # cross-multiplied test below keeps the first minimum found.
    tau_num, tau_den = 1, 0
    tau_witness = 0
    for rem in range(full, -1, -1):
        # rem = kept vertex set; S = full ^ rem
        low = rem & -rem
        if not low:
            continue
        # reach from lowest kept vertex
        comp = low
        frontier = low
        while frontier:
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= rows[v]
            frontier = nxt & rem & ~comp
            comp |= frontier
        if comp == rem:
            continue
        # disconnected remainder: count all components
        comps = 1
        rest = rem & ~comp
        while rest:
            seed = rest & -rest
            c2 = seed
            frontier = seed
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    v = (f & -f).bit_length() - 1
                    f &= f - 1
                    nxt |= rows[v]
                frontier = nxt & rest & ~c2
                c2 |= frontier
            rest &= ~c2
            comps += 1
        s_size = n - rem.bit_count()
        if s_size * tau_den < tau_num * comps:
            tau_num, tau_den = s_size, comps
            tau_witness = full ^ rem
    if not tau_den:
        # no disconnecting set: complete graph (or n == 1)
        return (INF, 0)
    return (Fraction(tau_num, tau_den), tau_witness)


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


# The list-based chordality, split and distance-degree kernels, kept as
# they were before the bitmask versions replaced them.


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


def delta_t(g: Graph, t: int) -> Exact:
    """Minimum over vertex pairs at distance exactly t of max{d(u),d(v)}."""
    if t < 1:
        raise ValueError("t must be >= 1")
    degs = g.degrees()
    best: Exact = INF
    for u in range(g.n):
        dist = all_distances(g, u)
        for v in range(u + 1, g.n):
            if dist[v] == t:
                m = max(degs[u], degs[v])
                if m < best:
                    best = m
    return best


# The lexicographic subset search for the binding number, kept as it was
# before its subtrees were cut by lower bounds on the ratio.


def binding_number(g: Graph) -> tuple[Exact, list[int]]:
    """Woodall's binding number: min |N(X)|/|X| over nonempty X with N(X) != V.

    Subtrees where N(X) already covers V are pruned (supersets only grow
    the neighborhood).  An isolated vertex v gives N({v}) = {} and the
    value 0 at once; {smallest isolated v} is also the first zero of the
    search, which visits sets in lexicographic order.
    """
    if g.n == 0:
        raise ValueError("binding number needs n >= 1")
    n, rows = g.n, g.rows
    if 0 in rows:
        return Fraction(0), [rows.index(0)]
    full = g.full_mask
    # best = num / den, with 1/0 standing for +inf; the strict
    # cross-multiplied test keeps the first minimum found.
    num, den, witness = 1, 0, 0

    def extend(start: int, chosen: int, size: int, nbhd: int) -> None:
        nonlocal num, den, witness
        if size:
            k = nbhd.bit_count()
            if k * den < num * size:
                num, den, witness = k, size, chosen
        for v in range(start, n):
            nb = nbhd | rows[v]
            if nb == full:
                continue
            extend(v + 1, chosen | (1 << v), size + 1, nb)

    extend(0, 0, 0, 0)
    return (Fraction(num, den) if den else INF), bits(witness)


# The premises whose quotient has a lambda-dependent denominator, as they
# were written with Fractions before they were cross-multiplied, by label.

LAMBDA_PREMISES = {
    "delta >= (n+2)/(lambda+1)+lambda-2":
        lambda pf, lam: pf.delta >= Fraction(pf.n + 2, lam + 1) + lam - 2,
    "delta >= (n+1)/(lambda+1)+lambda-2":
        lambda pf, lam: pf.delta >= Fraction(pf.n + 1, lam + 1) + lam - 2,
    "delta >= max{(n+2)/(lambda+2)+lambda-1, alpha+lambda-1}":
        lambda pf, lam: pf.delta >= max(Fraction(pf.n + 2, lam + 2) + lam - 1, pf.alpha + lam - 1),
    "delta >= n/(lambda+1)":
        lambda pf, lam: pf.delta >= Fraction(pf.n, lam + 1),
}


# Every numeric premise, relaxed premise and circumference bound of the
# catalog whose label compiles, as it was written by hand before the labels
# were compiled, by label.  A lambda-dependent quotient keeps its Fraction
# form above.

PREMISES = {
    **LAMBDA_PREMISES,
    "kappa >= 1": lambda pf, lam: pf.kappa >= 1,
    "kappa >= 2": lambda pf, lam: pf.kappa >= 2,
    "kappa >= 3": lambda pf, lam: pf.kappa >= 3,
    "kappa >= 4": lambda pf, lam: pf.kappa >= 4,
    "kappa >= lambda": lambda pf, lam: pf.kappa >= lam,
    "kappa >= lambda-1": lambda pf, lam: pf.kappa >= lam - 1,
    "kappa >= lambda+1": lambda pf, lam: pf.kappa >= lam + 1,
    "kappa >= lambda+2": lambda pf, lam: pf.kappa >= lam + 2,
    "kappa >= alpha": lambda pf, lam: pf.kappa >= pf.alpha,
    "kappa >= alpha-1": lambda pf, lam: pf.kappa >= pf.alpha - 1,
    "tau >= 1": lambda pf, lam: pf.tau_ge(1),
    "tau > 1": lambda pf, lam: pf.tau_gt(1),
    "tau > 4/3": lambda pf, lam: pf.tau_gt(Fraction(4, 3)),
    "tau >= 4/3": lambda pf, lam: pf.tau_ge(Fraction(4, 3)),
    "tau >= 3/2": lambda pf, lam: pf.tau_ge(Fraction(3, 2)),
    # Thm47's relaxation as printed; the hand-written form tested
    # tau >= (n//2)/(n//2+1), which agrees only on K_{d,d+1}.
    "tau >= delta/(delta+1)": lambda pf, lam: pf.tau_ge(Fraction(pf.delta, pf.delta + 1)),
    "b(G) >= 3/2": lambda pf, lam: pf.binding >= Fraction(3, 2),
    "n >= 11": lambda pf, lam: pf.n >= 11,
    "1 <= delta <= n/2": lambda pf, lam: 1 <= pf.delta and 2 * pf.delta <= pf.n,
    "q >= (n^2-3n+5)/2": lambda pf, lam: 2 * pf.q >= pf.n * pf.n - 3 * pf.n + 5,
    "q >= (n^2-3n+4)/2": lambda pf, lam: 2 * pf.q >= pf.n * pf.n - 3 * pf.n + 4,
    "q >= (n^2-2n+5)/4": lambda pf, lam: 4 * pf.q >= pf.n * pf.n - 2 * pf.n + 5,
    "q > n(n-2delta)/4+delta^2":
        lambda pf, lam: 4 * pf.q > pf.n * (pf.n - 2 * pf.delta) + 4 * pf.delta ** 2,
    "q <= delta^2+delta-1": lambda pf, lam: pf.q <= pf.delta ** 2 + pf.delta - 1,
    "q <= delta^2+delta": lambda pf, lam: pf.q <= pf.delta ** 2 + pf.delta,
    "q <= 9": lambda pf, lam: pf.q <= 9,
    "delta >= alpha": lambda pf, lam: pf.delta >= pf.alpha,
    "delta >= alpha-1": lambda pf, lam: pf.delta >= pf.alpha - 1,
    "delta >= alpha+lambda-1": lambda pf, lam: pf.delta >= pf.alpha + lam - 1,
    "delta >= n/2": lambda pf, lam: 2 * pf.delta >= pf.n,
    "delta >= (n-1)/2": lambda pf, lam: 2 * pf.delta >= pf.n - 1,
    "delta >= (n-4)/2": lambda pf, lam: 2 * pf.delta >= pf.n - 4,
    "delta >= (n-5)/2": lambda pf, lam: 2 * pf.delta >= pf.n - 5,
    "delta >= (n-6)/2": lambda pf, lam: 2 * pf.delta >= pf.n - 6,
    "delta >= n/3": lambda pf, lam: 3 * pf.delta >= pf.n,
    "delta >= (n+1)/3": lambda pf, lam: 3 * pf.delta >= pf.n + 1,
    "delta >= (n+2)/3": lambda pf, lam: 3 * pf.delta >= pf.n + 2,
    "delta >= (n+kappa)/3": lambda pf, lam: 3 * pf.delta >= pf.n + pf.kappa,
    "delta >= (n+kappa-1)/3": lambda pf, lam: 3 * pf.delta >= pf.n + pf.kappa - 1,
    "delta >= (n+kappa-2)/3": lambda pf, lam: 3 * pf.delta >= pf.n + pf.kappa - 2,
    "delta >= n/4": lambda pf, lam: 4 * pf.delta >= pf.n,
    "delta >= (n+1)/4": lambda pf, lam: 4 * pf.delta >= pf.n + 1,
    "delta >= (n+5)/4": lambda pf, lam: 4 * pf.delta >= pf.n + 5,
    "delta >= (n+6)/4": lambda pf, lam: 4 * pf.delta >= pf.n + 6,
    "delta >= (n+kappa+3)/4": lambda pf, lam: 4 * pf.delta >= pf.n + pf.kappa + 3,
    "delta >= max{(n+2)/3, alpha}":
        lambda pf, lam: 3 * pf.delta >= pf.n + 2 and pf.delta >= pf.alpha,
    "delta >= max{(n+2)/3, alpha-1}":
        lambda pf, lam: 3 * pf.delta >= pf.n + 2 and pf.delta >= pf.alpha - 1,
    "delta >= max{n/3, alpha-1}":
        lambda pf, lam: 3 * pf.delta >= pf.n and pf.delta >= pf.alpha - 1,
    "delta >= max{(n+kappa+3)/4, alpha}":
        lambda pf, lam: 4 * pf.delta >= pf.n + pf.kappa + 3 and pf.delta >= pf.alpha,
    "delta >= max{(n+kappa+3)/4, alpha-1}":
        lambda pf, lam: 4 * pf.delta >= pf.n + pf.kappa + 3 and pf.delta >= pf.alpha - 1,
    "delta >= max{(n+kappa+2)/4, alpha}":
        lambda pf, lam: 4 * pf.delta >= pf.n + pf.kappa + 2 and pf.delta >= pf.alpha,
    "sigma_2 >= n": lambda pf, lam: pf.sigma2 >= pf.n,
    "delta_2 >= n/2": lambda pf, lam: 2 * pf.delta2 >= pf.n,
}

BOUNDS = {
    "c >= delta+1": lambda pf, lam: pf.delta + 1,
    "c >= 3delta-3": lambda pf, lam: 3 * pf.delta - 3,
    "c >= 4delta-kappa-4": lambda pf, lam: 4 * pf.delta - pf.kappa - 4,
    "c >= (lambda+1)(delta-lambda+1)": lambda pf, lam: (lam + 1) * (pf.delta - lam + 1),
    "c > lambda": lambda pf, lam: lam,
    "c >= n/lambda": lambda pf, lam: Fraction(pf.n, lam),
    "c >= n/ceil(alpha/kappa)": lambda pf, lam: Fraction(pf.n, -(-pf.alpha // pf.kappa)),
    "c >= min{n, 2delta}": lambda pf, lam: min(pf.n, 2 * pf.delta),
    "c >= min{n, 2delta+2}": lambda pf, lam: min(pf.n, 2 * pf.delta + 2),
    "c >= min{n, 2delta+5}": lambda pf, lam: min(pf.n, 2 * pf.delta + 5),
    "c >= min{n, 2delta_2}": lambda pf, lam: min(pf.n, 2 * pf.delta2),
    "c >= min{n, 3delta}": lambda pf, lam: min(pf.n, 3 * pf.delta),
    "c >= min{n, 3delta-3}": lambda pf, lam: min(pf.n, 3 * pf.delta - 3),
    "c >= min{n, 3delta-kappa}": lambda pf, lam: min(pf.n, 3 * pf.delta - pf.kappa),
    "c >= min{n, 4delta-2}": lambda pf, lam: min(pf.n, 4 * pf.delta - 2),
    "c >= min{n, 4delta-2kappa}": lambda pf, lam: min(pf.n, 4 * pf.delta - 2 * pf.kappa),
    "c >= min{n, 4delta-kappa-4}": lambda pf, lam: min(pf.n, 4 * pf.delta - pf.kappa - 4),
    "c >= min{n, 6delta-15}": lambda pf, lam: min(pf.n, 6 * pf.delta - 15),
    "c >= min{n, sigma_2}": lambda pf, lam: min(pf.n, pf.sigma2),
    "c >= min{n, sigma_2+2}": lambda pf, lam: min(pf.n, pf.sigma2 + 2),
    "c >= min{n, sigma_3-kappa}": lambda pf, lam: min(pf.n, pf.sigma3 - pf.kappa),
    "c >= min{n, n+delta-alpha}": lambda pf, lam: min(pf.n, pf.n + pf.delta - pf.alpha),
    "c >= min{n, n+delta-alpha+1}": lambda pf, lam: min(pf.n, pf.n + pf.delta - pf.alpha + 1),
    "c >= min{n, (lambda+2)(delta-lambda)}":
        lambda pf, lam: min(pf.n, (lam + 2) * (pf.delta - lam)),
    "c >= (p+2)(delta-p) for every longest cycle":
        lambda pf, p, cbar, lam: (p + 2) * (pf.delta - p),
    "c >= (cbar+1)(delta-cbar+1) for every longest cycle":
        lambda pf, p, cbar, lam: (cbar + 1) * (pf.delta - cbar + 1),
}


# The recursive cycle search, kept as it was before one loop over an
# explicit stack replaced its generator frames.


def cycle_search(
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
    search has visited that many more DFS nodes.
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

        def dfs(v: int, visited: int, length: int) -> Iterator[list[int] | None]:
            nonlocal floor, left
            left -= 1
            if not left:
                left = budget
                yield None
            if length > floor and rows[v] & sbit and path[1] < v:
                yield path[:length]
                if length < cap:
                    floor = length
            if length == cap:
                return
            free = allowed & ~visited
            comp = reach(rows[v], free)
            if not comp & srow or length + comp.bit_count() <= floor:
                return
            cand = rows[v] & free
            while cand:
                ubit = cand & -cand
                cand ^= ubit
                u = ubit.bit_length() - 1
                path[length] = u
                yield from dfs(u, visited | ubit, length + 1)

        yield from dfs(s, sbit, 1)


# The per-theorem decision, kept as it was before ``registry.Plan`` decided
# a list of theorems at once: every premise of every theorem is tested
# again at every lambda, and an asserted class premise holds when reached.


def decide(pf, spec, assume=(), lam: int | None = None) -> tuple:
    """(kind, lambda, witness, why) of one theorem on one Profile."""
    if lam is not None and lam < 1:
        raise ValueError("lambda must be >= 1")
    if pf.n < spec.n_floor:
        return "vacuous", None, None, ("n={} below floor {}", pf.n, spec.n_floor)
    assume = frozenset(assume)
    if spec.lambdas is None or lam is not None:
        return _decide_at(pf, spec, assume, lam)
    lams = list(spec.lambdas(pf))
    if not lams:
        return "vacuous", None, None, ("empty parameter domain",)
    results = [_decide_at(pf, spec, assume, lv) for lv in lams]
    kinds = [r[0] for r in results]
    for kind in ("VIOLATED", "ceiling", "inapplicable"):
        if kind in kinds:
            return results[kinds.index(kind)]
    held = [r[1] for r in results if r[0] == "holds"]
    if len(held) > 1:
        return "holds", None, None, ("holds for lambda in {}", held)
    if held:
        return results[kinds.index("holds")]
    return results[0] if len(results) == 1 else ("vacuous", None, None, results[:4])


def _decide_at(pf, spec, assume: frozenset[str], lam: int | None) -> tuple:
    for prem in spec.premises:
        try:
            val = True if prem.cls in assume else None if prem.fn is None else prem.fn(pf, lam)
        except ZeroDivisionError:
            return "vacuous", lam, None, ("premise '{}' undefined", prem.label)
        if val is None:
            return "inapplicable", lam, None, ("premise '{}' is not decidable here", prem.label)
        if not val:
            return "vacuous", lam, None, ("premise fails: {}", prem.label)
    try:
        out = spec.conclusion.check(pf, lam)
    except CeilingError as exc:
        return "ceiling", lam, None, ("{}", exc)
    return "holds" if out.ok else "VIOLATED", lam, out.witness, out
