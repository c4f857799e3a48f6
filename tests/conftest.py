"""Shared corpus builders for the test suite.

All random corpora are seeded, so every run sees the same graphs and the
frozen expected values stay valid.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from cyclekit.families import build
from cyclekit.graph import Graph, complete_bipartite, cycle_graph, from_edge_list, petersen, power


def seeded_gnp(n: int, p: float, count: int, seed: int) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        out.append(from_edge_list(n, edges))
    return out


def mixed_corpus(seed: int = 7, per_cell: int = 25, ns=range(1, 9)) -> list[Graph]:
    """Small graphs across densities, including degenerate orders."""
    out = []
    for n in ns:
        for p in (0.15, 0.4, 0.7, 0.95):
            out.extend(seeded_gnp(n, p, per_cell, seed + 97 * n + int(100 * p)))
    return out


def oracle_corpus() -> list[Graph]:
    """Seeded G(n,p) up to 14 vertices plus named graphs of 10 to 16 vertices,
    on which the pruned kernels must give the exhaustive searches' answers."""
    return mixed_corpus(ns=range(2, 15)) + [
        complete_bipartite(7, 9),
        build("moon-moser-cut", quarter=4),
        power(cycle_graph(12), 2),
        petersen(),
    ]


def listable_corpus() -> list[Graph]:
    """The ``oracle_corpus()`` graphs whose cycles a test can list one by
    one: every graph of at most 8 vertices, and those of 9 to 14 vertices
    with q - n + 1 <= 18.  Denser graphs of 10 or more vertices have
    hundreds of thousands of cycles; these have at most 8,018 each."""
    return [g for g in oracle_corpus() if g.n <= 8 or (g.n <= 14 and g.q - g.n + 1 <= 18)]


@st.composite
def graphs_up_to(draw, max_n: int) -> Graph:
    """A hypothesis strategy: any labelled graph on at most max_n vertices."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return from_edge_list(n, [e for e in pairs if draw(st.booleans())])


@pytest.fixture(scope="session")
def small_corpus() -> list[Graph]:
    return mixed_corpus()


def to_networkx(g: Graph):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def sweep_outcome(report) -> tuple:
    """Everything a sweep report holds but its timings: records, tallies
    with slack sums, and each VIOLATED verdict's record with its detail."""
    records = [(r.graph6, r.theorem, r.lam, r.verdict, r.witness) for r in report.records]
    tallies = {
        tid: (t.graphs, t.holds, t.vacuous, t.inapplicable, t.ceiling, t.violated,
              t.slack_sum, t.slack_count)
        for tid, t in report.tallies.items()
    }
    violated = [(g6, v.to_record()) for g6, v in report.violated]
    return records, tallies, violated
