"""Sweep determinism and reporting."""

import json

import pytest

from cyclekit.graph import GraphError
from cyclekit.sweep import gnp, random_bipartite, random_regular, sweep


def test_gnp_deterministic():
    a = [g.rows for g in gnp(8, 0.5, 10, seed=5)]
    b = [g.rows for g in gnp(8, 0.5, 10, seed=5)]
    assert a == b
    c = [g.rows for g in gnp(8, 0.5, 10, seed=6)]
    assert a != c


def test_random_regular_degrees():
    for g in random_regular(10, 4, 5, seed=1):
        assert g.degrees() == [4] * 10


def test_random_bipartite_sides():
    for g in random_bipartite(4, 5, 0.6, 5, seed=2):
        assert g.n == 9
        assert all(not g.has_edge(u, v) for u in range(4) for v in range(u + 1, 4))


def test_gnp_rejects_a_negative_order():
    with pytest.raises(GraphError):
        list(gnp(-3, 0.5, 2, seed=1))


def test_random_regular_rejects_negative_parameters():
    for n, d in ((4, -2), (-4, 2), (-4, -2)):
        with pytest.raises(GraphError):
            list(random_regular(n, d, 2, seed=1))


def test_random_bipartite_rejects_negative_sides():
    for a, b in ((-1, 2), (2, -1)):
        with pytest.raises(GraphError):
            list(random_bipartite(a, b, 0.5, 2, seed=1))


def test_sweep_report():
    rep = sweep(gnp(8, 0.6, 15, seed=9))
    assert rep.ok
    t1 = rep.tallies["T1"]
    assert t1.graphs == 15 and t1.applicable_rate == 1.0 and t1.holds_rate == 1.0
    assert t1.mean_slack is not None and t1.mean_slack >= 0
    assert "T7" not in rep.tallies  # quarantined excluded by default
    rep_q = sweep(gnp(8, 0.6, 5, seed=9), include_quarantined=True)
    assert "T7" in rep_q.tallies
    # one record per (graph, theorem)
    per_graph = len(rep.tallies)
    assert len(rep.records) == 15 * per_graph
    rec = rep.records[0].to_record()
    assert {"graph6", "theoremId", "verdict", "timing"} <= set(rec)
    json.dumps(rec)  # machine-readable


def test_sweep_reproducible():
    r1 = sweep(gnp(7, 0.5, 10, seed=3), keep_records=False)
    r2 = sweep(gnp(7, 0.5, 10, seed=3), keep_records=False)
    assert {k: (t.graphs, t.holds, t.vacuous) for k, t in r1.tallies.items()} == {
        k: (t.graphs, t.holds, t.vacuous) for k, t in r2.tallies.items()
    }


def test_dirac_rate_on_regular_half_degree():
    rep = sweep(random_regular(12, 6, 8, seed=4), keep_records=False)
    t = rep.tallies["Thm6"]
    assert t.applicable_rate == 1.0 and t.holds_rate == 1.0
