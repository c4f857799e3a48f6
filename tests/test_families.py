"""Family constructors: frozen invariants and byte-determinism."""

import pytest

from cyclekit.cycles import circumference, hamiltonian
from cyclekit.families import FAMILIES, build, list_families
from cyclekit.formats import encode_graph6
from cyclekit.graph import GraphError, complete
from cyclekit.invariants import binding_number, connectivity, independence_number, toughness
from cyclekit.registry import Profile
from fractions import Fraction


def test_catalog_listing():
    names = [f.name for f in list_families()]
    assert names == sorted(names)
    assert "petersen" in names and "tKa-join-Kb" in names


def test_build_argument_validation():
    with pytest.raises(GraphError):
        build("no-such-family")
    with pytest.raises(GraphError):
        build("complete")  # missing n
    with pytest.raises(GraphError):
        build("complete", n=4, extra=1)


def test_determinism():
    a = encode_graph6(build("H", a=1, b=2, t=4, k=3))
    b = encode_graph6(build("H", a=1, b=2, t=4, k=3))
    assert a == b
    assert encode_graph6(build("Gn", n=15, delta=5)) == encode_graph6(
        build("Gn", n=15, delta=5)
    )


def test_tKa_join_Kb_profile():
    g = build("tKa-join-Kb", t=3, a=2, b=2)  # 3K_2+K_2
    pf = Profile(g)
    assert (pf.n, pf.kappa, pf.delta) == (8, 2, 3)
    assert pf.c == 6  # 2 hubs + 2 cliques [DERIVED]
    assert not pf.is_hamiltonian


def test_join2Kd_K1_sharpness_profile():
    for delta in range(2, 6):
        g = build("join2Kd-K1", delta=delta)
        pf = Profile(g)
        assert pf.n == 2 * delta + 1
        assert pf.delta == delta  # = (n-1)/2, one below Dirac
        assert pf.kappa == 1
        assert not pf.is_hamiltonian


def test_h_graph_frozen_profiles():
    # [DERIVED] frozen from exact solver runs
    cases = {
        (1, 2, 3, 2): dict(n=8, kappa=2, delta=3, alpha=4, c=7),
        (1, 2, 4, 3): dict(n=10, kappa=3, delta=4, alpha=5, c=9),
        (1, 2, 5, 4): dict(n=12, kappa=4, delta=5, alpha=6, c=11),
        (2, 2, 3, 3): dict(n=11, kappa=3, delta=4, alpha=4, c=9),
    }
    for (a, b, t, k), want in cases.items():
        pf = Profile(build("H", a=a, b=b, t=t, k=k))
        got = dict(n=pf.n, kappa=pf.kappa, delta=pf.delta, alpha=pf.alpha, c=pf.c)
        assert got == want, (a, b, t, k)
        assert not pf.is_hamiltonian


def test_theta_gadget():
    g = build("theta", i=3, j=3, k=3)
    pf = Profile(g)
    assert (pf.n, pf.q, pf.delta, pf.kappa) == (8, 9, 2, 2)
    assert pf.balanced_bipartite
    assert pf.c == 6 and not pf.is_hamiltonian
    with pytest.raises(GraphError):
        build("theta", i=1, j=1, k=3)  # would need a multi-edge


def test_bridge_gadget():
    g = build("bridge-gadget")
    pf = Profile(g)
    assert (pf.n, pf.delta) == (12, 3)
    assert pf.tau == Fraction(6, 5)  # strictly below 4/3 [DERIVED]
    assert pf.c == 11 == 2 * pf.delta + 5


def test_binding_family():
    for a in range(2, 5):
        g = build("aK2-join-Kbar", a=a)
        assert binding_number(g)[0] == Fraction(3 * a - 2, 2 * a - 1)
        assert hamiltonian(g) is None


def test_gn_families():
    g = build("Gn", n=15, delta=5)
    pf = Profile(g)
    assert pf.n == 15 and pf.delta == 5
    assert pf.tau >= 1
    assert not pf.is_hamiltonian
    gs = build("Gstar", n=15)
    assert Profile(gs).delta == (15 - 5) // 2
    with pytest.raises(GraphError):
        build("Gn", n=14, delta=5)


def test_l_family():
    # L_delta is 1-tough and non-hamiltonian: its hub and the triangle of
    # representatives separate the three cliques.
    for delta in range(2, 6):
        pf = Profile(build("L", delta=delta))
        assert (pf.n, pf.q) == (3 * delta + 1, 3 * delta * (delta - 1) // 2 + 3 * delta + 3)
        assert (pf.delta, pf.kappa, pf.tau) == (delta, 2, 1)
        assert pf.c == 2 * delta + 2 and not pf.is_hamiltonian


def test_ktt_minus_star():
    for t in range(2, 6):
        g = build("ktt-minus-star", t=t)
        pf = Profile(g)
        assert (pf.n, pf.q) == (2 * t, t * t - t + 1)
        assert pf.balanced_bipartite and g.degree(0) == 1
        # K_{2,2} minus an edge is the path P_4, with two ends
        assert g.degrees().count(1) == (2 if t == 2 else 1)
        assert pf.c == 2 * t - 2


def test_moon_moser():
    g = build("moon-moser", delta=2, half=4)
    pf = Profile(g)
    assert pf.balanced_bipartite and pf.delta == 2
    cut = build("moon-moser-cut", quarter=2)
    assert connectivity(cut) == 1


def test_star_of_cliques_and_fans():
    g = build("star-of-cliques", t=3, lam=4, r=2)
    assert g.n == 3 * 3 + 2 + 1
    assert circumference(g)[0] == 4  # each block is a K_4
    fan = build("clique-with-pendant-fan", n=8, t=2, lam=5)
    assert fan.n == 8
    pend = build("clique-plus-pendant", n=6)
    assert independence_number(pend)[0] == 2
    # Both older families are pendant fans on K_{lam+1-t} with lam = n - 1,
    # labeled graph for labeled graph.
    for n in range(2, 20):
        assert build("clique-plus-pendant", n=n) == build("clique-with-pendant-fan", n=n, t=1, lam=n - 1)
        for delta in range(1, n // 2 + 1):
            assert build("clique-with-fan", n=n, delta=delta) == build(
                "clique-with-pendant-fan", n=n, t=delta, lam=n - 1)


def test_family_metadata_cites_known_theorems():
    from cyclekit.catalog import get

    for fam in FAMILIES.values():
        for tid in fam.cited_by:
            assert get(tid) is not None
