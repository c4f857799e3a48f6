"""Graph file formats: graph6 (canonical interchange), edge-list, DIMACS.

graph6 follows the standard McKay layout: the order N(n), then the upper
triangle of the adjacency matrix in column order, packed 6 bits per
printable character with offset 63.  Edge-list and DIMACS are accepted
for input only.
"""

from __future__ import annotations

from .graph import Graph, GraphError, MAX_VERTICES, from_edge_list


class FormatError(ValueError):
    """Malformed graph text."""


def _encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    # 63..MAX_VERTICES fits the 3-byte long form
    return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string."""
    n = g.n
    out = [_encode_n(n)]
    bit_buf = 0
    bit_len = 0
    for v in range(1, n):
        col = g.rows[v]
        for u in range(v):
            bit_buf = (bit_buf << 1) | (col >> u & 1)
            bit_len += 1
            if bit_len == 6:
                out.append(chr(bit_buf + 63))
                bit_buf = bit_len = 0
    if bit_len:
        out.append(chr((bit_buf << (6 - bit_len)) + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 string (optional '>>graph6<<' header tolerated)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise FormatError("empty graph6 string")
    vals = []
    for ch in s:
        o = ord(ch)
        if not 63 <= o <= 126:
            raise FormatError(f"non-printable graph6 character {ch!r}")
        vals.append(o - 63)
    if vals[0] == 63:
        if len(vals) < 4:
            raise FormatError("truncated graph6 order field")
        if vals[1] == 63:
            raise FormatError("graph6 orders beyond 18 bits are not supported")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if n > MAX_VERTICES:
        raise FormatError(f"graph6 order {n} exceeds the {MAX_VERTICES}-vertex ceiling")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6 body has {len(body)} characters, expected {need}")
    bitstream = 0
    for v in body:
        bitstream = (bitstream << 6) | v
    pad = need * 6 - nbits
    if bitstream & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits in graph6 string")
    bitstream >>= pad
    rows = [0] * n
    pos = nbits
    for v in range(1, n):
        for u in range(v):
            pos -= 1
            if bitstream >> pos & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" header then one "u v" line per edge, 0-based."""
    tokens = text.split()
    if len(tokens) < 2:
        raise FormatError("edge-list text needs an 'n m' header")
    try:
        n, m = int(tokens[0]), int(tokens[1])
        nums = [int(t) for t in tokens[2:]]
    except ValueError as exc:
        raise FormatError(f"bad integer in edge list: {exc}") from exc
    if len(nums) != 2 * m:
        raise FormatError(f"expected {m} edges, found {len(nums) // 2}")
    try:
        return from_edge_list(n, list(zip(nums[0::2], nums[1::2])))
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def _dimacs_int(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"bad integer in DIMACS line: {line!r}") from None


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS 'p edge n m' format; 1-based vertices become 0-based."""
    n = None
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise FormatError(f"bad DIMACS problem line: {line!r}")
            n = _dimacs_int(parts[2], line)
        elif parts[0] == "e":
            if n is None:
                raise FormatError("DIMACS edge before problem line")
            if len(parts) < 3:
                raise FormatError(f"bad DIMACS edge line: {line!r}")
            edges.append((_dimacs_int(parts[1], line) - 1, _dimacs_int(parts[2], line) - 1))
        else:
            raise FormatError(f"unrecognized DIMACS line: {line!r}")
    if n is None:
        raise FormatError("missing DIMACS problem line")
    try:
        return from_edge_list(n, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def parse_document(text: str) -> Graph | None:
    """Parse a DIMACS or edge-list document, or return None for graph6.

    The first token decides: ``p`` or ``c`` starts DIMACS, a digit string
    an edge list (graph6 bytes are 63..126, so no graph6 string starts
    with a digit), and anything else is graph6.
    """
    first = (text.split(maxsplit=1) or [""])[0]
    if first in ("p", "c"):
        return parse_dimacs(text)
    if first.isdigit():
        return parse_edge_list(text)
    return None


def parse_any(text: str) -> Graph:
    """Parse one graph in any accepted input format."""
    s = text.strip()
    if not s:
        raise FormatError("empty graph text")
    g = parse_document(s)
    return parse_graph6(s) if g is None else g
