"""Exact cycle and path solvers with checkable certificates.

One branch-and-bound DFS, ``_cycle_search``, answers every cycle question:
the longest-cycle solvers let its length floor rise, and
``cycles_of_length`` pins the floor to list every cycle of one length.

Length conventions: a single vertex counts as a cycle of length 1 and an
edge as a cycle of length 2, so the circumference of a nonempty graph is
at least 1.  Cycle lengths count vertices; path lengths count edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .graph import Graph, GraphError, bits, induced_subgraph, mask_of


class CertificateError(ValueError):
    """A certificate does not validate against its graph."""


class CeilingError(RuntimeError):
    """An enumeration ceiling was exceeded."""


ENUMERATION_CEILING = 14


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

    def __str__(self) -> str:
        return " ".join(map(str, self.vertices))


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


# -- cycle search ---------------------------------------------------------


def _cycle_search(g: Graph, floor: int, cap: int) -> Iterator[list[int]]:
    """Cycles with floor < length <= cap, as vertex lists; floor >= 2.

    A cycle starts at its minimum vertex s and comes out once, in the
    direction whose second vertex is smaller.  The DFS extends paths from
    s through larger vertices only and cuts a branch once the vertices it
    can still reach cannot lead back to s or cannot beat the floor.  Each
    cycle shorter than the cap raises the floor to its length; with
    floor = cap - 1 the floor stays put and every cycle of length cap
    comes out.  Keeping one direction hides no longer cycle: its reverse
    lies in an earlier branch, which no lower floor cuts.
    """
    n, rows, reach = g.n, g.rows, g.reach_mask
    path = [0] * n
    for s in range(n):
        allowed = ((1 << n) - 1) >> s << s
        if allowed.bit_count() <= floor:
            return
        sbit = 1 << s
        path[0] = s

        def dfs(v: int, visited: int, length: int) -> Iterator[list[int]]:
            nonlocal floor
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


def _longest_cycle(g: Graph, stop_at: int | None = None) -> tuple[int, list[int]]:
    """Branch-and-bound longest cycle under the degenerate conventions.

    Stops at the first cycle of at least ``stop_at`` vertices.
    """
    n = g.n
    if n == 0:
        raise GraphError("circumference needs at least one vertex")
    edges = g.edges()
    best_path = list(edges[0]) if edges else [0]
    stop = n if stop_at is None else min(stop_at, n)
    if len(best_path) < stop:
        for path in _cycle_search(g, 2, n):
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
    """Spanning cycle certificate, or None after exhaustive search."""
    if g.n == 0:
        raise GraphError("hamiltonicity needs at least one vertex")
    c, path = _longest_cycle(g, stop_at=g.n)
    if c == g.n:
        cert = CycleCert(tuple(path))
        cert.validate(g)
        return cert
    return None


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


# -- longest path ---------------------------------------------------------


def longest_path(g: Graph) -> tuple[int, PathCert]:
    """Longest simple path; length in edges (a bare vertex has length 0)."""
    if g.n == 0:
        raise GraphError("longest path needs at least one vertex")
    n, rows, reach = g.n, g.rows, g.reach_mask
    full = (1 << n) - 1
    best = 0
    best_path = [0]
    buf = [0] * n

    def dfs(v: int, visited: int, length: int) -> None:
        nonlocal best, best_path
        if length > best:
            best = length
            best_path = buf[: length + 1]
        free = ~visited & full
        if length + reach(rows[v], free).bit_count() <= best:
            return
        cand = rows[v] & free
        while cand:
            ubit = cand & -cand
            cand ^= ubit
            u = ubit.bit_length() - 1
            buf[length + 1] = u
            dfs(u, visited | ubit, length + 1)

    for s in range(n):
        buf[0] = s
        dfs(s, 1 << s, 0)
        if best == n - 1:
            break
    cert = PathCert(tuple(best_path))
    cert.validate(g)
    return best, cert


# -- domination predicates ------------------------------------------------


def _off_cycle_mask(g: Graph, cycle: CycleCert) -> int:
    cycle.validate(g)
    return g.full_mask & ~cycle.mask()


def is_dominating_cycle(g: Graph, cycle: CycleCert) -> bool:
    """True iff every edge of the graph has an endpoint on the cycle."""
    off = _off_cycle_mask(g, cycle)
    return all(not (g.rows[v] & off) for v in bits(off))


def is_PD_cycle(g: Graph, cycle: CycleCert, lam: int) -> bool:
    """True iff the cycle meets every path of edge-length >= lam."""
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    off = _off_cycle_mask(g, cycle)
    if not off:
        return True
    rest = induced_subgraph(g, off)
    return longest_path(rest)[0] < lam


def is_CD_cycle(g: Graph, cycle: CycleCert, lam: int) -> bool:
    """True iff the cycle meets every cycle of vertex-length >= lam."""
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    off = _off_cycle_mask(g, cycle)
    if not off:
        return True
    rest = induced_subgraph(g, off)
    return _longest_cycle(rest)[0] < lam


def residual_params(g: Graph, cycle: CycleCert) -> tuple[int | None, int | None]:
    """(longest path in edges, longest cycle in vertices) of G minus the cycle.

    Both are None when the cycle spans the graph.
    """
    off = _off_cycle_mask(g, cycle)
    if not off:
        return None, None
    rest = induced_subgraph(g, off)
    return longest_path(rest)[0], _longest_cycle(rest)[0]


# -- enumeration of longest cycles ---------------------------------------


def all_longest_cycles(g: Graph, ceiling: int = ENUMERATION_CEILING) -> Iterator[CycleCert]:
    """Every longest cycle exactly once up to rotation and reflection.

    Canonical form and order as in ``cycles_of_length``.
    """
    if g.n > ceiling:
        raise CeilingError(f"longest-cycle enumeration capped at {ceiling} vertices")
    c, _ = _longest_cycle(g)
    yield from cycles_of_length(g, c)


def _cycle_test(g: Graph, prop: str, lam: int | None) -> Callable[[CycleCert], bool]:
    """The predicate for prop ("dominating", "PD" or "CD"; the latter two need lam)."""
    if prop == "dominating":
        return lambda cert: is_dominating_cycle(g, cert)
    if prop not in ("PD", "CD"):
        raise ValueError(f"unknown property {prop!r}")
    if lam is None:
        raise ValueError(f"{prop} check needs lambda")
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    test = is_PD_cycle if prop == "PD" else is_CD_cycle
    return lambda cert: test(g, cert, lam)


def every_longest_cycle_satisfies(
    g: Graph,
    prop: str,
    lam: int | None = None,
    ceiling: int = ENUMERATION_CEILING,
) -> tuple[bool, CycleCert | None]:
    """Universal check over all longest cycles.

    prop is "dominating", "PD" or "CD" (the latter two need lam).  Returns
    (True, None) or (False, counterexample).  Spanning longest cycles make
    every property trivially true, so enumeration only runs when c < n.
    """
    test = _cycle_test(g, prop, lam)
    c, _ = _longest_cycle(g)
    if c == g.n:
        return True, None
    if g.n > ceiling:
        raise CeilingError(f"universal longest-cycle check capped at {ceiling} vertices")
    for cert in cycles_of_length(g, c):
        if not test(cert):
            return False, cert
    return True, None


def exists_cycle_satisfying(
    g: Graph,
    prop: str,
    lam: int | None = None,
    ceiling: int = ENUMERATION_CEILING,
) -> CycleCert | None:
    """Find some cycle with the property, longest lengths first.

    A Hamilton cycle settles every property immediately; otherwise cycles
    are enumerated by decreasing length.
    """
    test = _cycle_test(g, prop, lam)
    c, path = _longest_cycle(g)
    if c == g.n:
        cert = CycleCert(tuple(path))
        cert.validate(g)
        return cert
    if g.n > ceiling:
        raise CeilingError(f"cycle-existence search capped at {ceiling} vertices")
    for length in range(c, 0, -1):
        for cert in cycles_of_length(g, length):
            if test(cert):
                return cert
    return None
