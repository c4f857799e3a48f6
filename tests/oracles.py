"""Independent reference solvers that share no code with cyclekit's kernels."""

from __future__ import annotations

from cyclekit.cycles import CeilingError
from cyclekit.graph import Graph, GraphError


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
