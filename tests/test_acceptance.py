"""Acceptance criteria.

Each test maps to one numbered criterion; tolerances are exact (integer
and rational arithmetic throughout) and runtimes are enforced where the
criterion states a budget.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from cyclekit.catalog import catalog, get
from cyclekit.cycles import (
    circumference,
    every_longest_cycle_satisfies,
    hamiltonian,
)
from cyclekit.formats import encode_graph6, parse_graph6
from cyclekit.graph import Graph, complete, from_edge_list, power
from cyclekit.invariants import (
    binding_number,
    connectivity,
    cut_scan,
    delta_t,
    independence_number,
    sigma_t,
)
from cyclekit.registry import Profile, audit_sharpness, check, check_all
from cyclekit.structure import claw, contains_induced
from conftest import seeded_gnp
from oracles import hamiltonian_dp_oracle
from test_cycles import naive_circumference
from test_invariants import (
    naive_alpha,
    naive_binding,
    naive_delta2,
    naive_kappa,
    naive_sigma,
    naive_toughness,
)

SOUND_SPECS = [s for s in catalog() if not s.quarantined]


def all_labeled_graphs_6():
    pairs = list(itertools.combinations(range(6), 2))
    for code in range(1 << 15):
        rows = [0] * 6
        for i, (u, v) in enumerate(pairs):
            if code >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield Graph(6, tuple(rows))


def test_criterion_1_soundness_sweep():
    """Zero VIOLATED over all 2^15 labeled 6-vertex graphs plus 10,000
    seeded G(n,p), n in 7..12, p in {0.2, 0.5, 0.8}; budget 10 minutes."""
    t0 = time.time()
    bad = []
    for g in all_labeled_graphs_6():
        rep = check_all(g, SOUND_SPECS)
        bad.extend((encode_graph6(g), v.to_record()) for v in rep.violated)
    # 10,008 random graphs: 556 per (n, p) cell over 18 cells
    for n in range(7, 13):
        for p in (0.2, 0.5, 0.8):
            for g in seeded_gnp(n, p, 556, seed=1000 * n + int(10 * p)):
                rep = check_all(g, SOUND_SPECS)
                bad.extend((encode_graph6(g), v.to_record()) for v in rep.violated)
    elapsed = time.time() - t0
    assert not bad, bad[:5]
    assert elapsed <= 600, f"soundness sweep took {elapsed:.0f}s"


def test_criterion_2_petersen_dossier():
    from cyclekit.graph import petersen

    g = petersen()
    pf = Profile(g)
    assert (pf.n, pf.q) == (10, 15)
    assert pf.delta == pf.kappa == 3
    assert pf.alpha == 4
    assert pf.tau == Fraction(4, 3)
    assert not pf.is_hamiltonian and pf.c == 9  # [DERIVED]
    assert contains_induced(g, complete(3)) is None  # triangle-free
    assert contains_induced(g, claw()) is not None
    ok, _ = every_longest_cycle_satisfies(g, "dominating")  # [DERIVED]
    assert ok
    v = check(g, get("T19"))
    assert v.kind == "holds" and "Petersen" in v.detail  # escape branch


def test_criterion_3_anchored_sharpness_audits():
    t0 = time.time()
    anchored = ["Thm6", "Thm31", "Thm32", "Thm7", "Thm9", "Thm48", "Thm39", "Thm40"]
    for tid in anchored:
        results = audit_sharpness(get(tid))
        assert results, tid
        for r in results:
            assert r.passed, (tid, r.case, r.graph_label, r.detail)
    # role coverage required by the criterion
    roles = {tid: {c.role for c in get(tid).sharpness} for tid in ("Thm31", "Thm8", "Thm10")}
    assert roles == {"Thm31": {"premise-tight", "conclusion-tight"},
                     "Thm8": {"premise-necessary"},
                     "Thm10": {"premise-necessary", "premise-tight"}}
    labels31 = [r.graph_label for r in audit_sharpness(get("Thm31"))]
    assert any("v1..v8" in lab for lab in labels31)
    labels3940 = [r.graph_label for r in audit_sharpness(get("Thm39"))]
    assert "2K_3+K_1" in labels3940
    for kappa in (2, 3):
        for delta in range(kappa + 1, kappa + 4):
            assert f"{kappa + 1}K_{delta - kappa + 1}+K_{kappa}" in labels3940
    assert time.time() - t0 <= 120


def test_criterion_4_solver_oracle_equivalence():
    count = 0
    for n in range(1, 13):
        for p in (0.2, 0.5, 0.8):
            for g in seeded_gnp(n, p, 280, seed=2000 + 10 * n + int(10 * p)):
                assert (hamiltonian(g) is not None) == hamiltonian_dp_oracle(g), (
                    encode_graph6(g)
                )
                count += 1
    assert count >= 10000
    cnt2 = 0
    for n in range(1, 10):
        for g in seeded_gnp(n, 0.45, 112, seed=3000 + n):
            assert circumference(g)[0] == naive_circumference(g), encode_graph6(g)
            cnt2 += 1
    assert cnt2 >= 1000


def test_criterion_5_invariant_oracles():
    count = 0
    for n in range(1, 9):
        for p in (0.25, 0.55, 0.85):
            for g in seeded_gnp(n, p, 84, seed=4000 + 10 * n + int(10 * p)):
                assert connectivity(g) == naive_kappa(g)
                assert cut_scan(g)[0] == naive_toughness(g)
                assert independence_number(g)[0] == naive_alpha(g)
                assert binding_number(g)[0] == naive_binding(g)
                assert sigma_t(g, 2) == naive_sigma(g, 2)
                assert delta_t(g, 2) == naive_delta2(g)
                count += 1
    assert count >= 2000


def test_criterion_6_fleischner_desk_check():
    """Squares of 500 seeded 2-connected graphs are hamiltonian, certified."""
    rng = random.Random(60)
    done = 0
    while done < 500:
        n = rng.randint(4, 12)
        p = rng.uniform(0.3, 0.8)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = from_edge_list(n, edges)
        if connectivity(g) < 2:
            continue
        sq = power(g, 2)
        cert = hamiltonian(sq)
        assert cert is not None, encode_graph6(g)
        cert.validate(sq)
        assert cert.length == sq.n
        done += 1


def test_criterion_7_chain_checks():
    for n in range(2, 10):
        for g in seeded_gnp(n, 0.5, 40, seed=7000 + n):
            pf = Profile(g)
            if not pf.connected:
                continue
            assert pf.kappa <= pf.delta
            if pf.sigma2 != float("inf"):
                assert Fraction(pf.delta) <= pf.sigma2 / 2
                if pf.sigma3 != float("inf"):
                    assert pf.sigma2 / 2 <= pf.sigma3 / 3
            if pf.delta2 != float("inf"):
                assert pf.delta <= pf.delta2


def test_criterion_8_graph6_round_trip():
    assert encode_graph6(complete(3)) == "Bw"
    assert encode_graph6(complete(4)) == "C~"
    assert parse_graph6("Bw").rows == complete(3).rows
    assert parse_graph6("C~").rows == complete(4).rows
    count = 0
    for n in list(range(1, 14)) + [30, 60]:
        for g in seeded_gnp(n, 0.5, 800 if n <= 13 else 30, seed=8000 + n):
            text = encode_graph6(g)
            assert parse_graph6(text).rows == g.rows
            assert encode_graph6(parse_graph6(text)) == text
            count += 1
    assert count >= 10000
