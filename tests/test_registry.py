"""Verification engine semantics: verdict kinds, assume, lambda, audits."""

import functools
import json
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from cyclekit import cli, cycles, invariants, registry
from cyclekit.catalog import catalog, get
from cyclekit.cycles import (
    CertificateError,
    LongestCycles,
    circumference,
    cycles_of_length,
    is_CD_cycle,
    is_PD_cycle,
    is_dominating_cycle,
    residual_params,
)
from cyclekit.exact import INF
from cyclekit.families import build
from cyclekit.formats import encode_graph6
from cyclekit.graph import (
    complement,
    complete,
    complete_bipartite,
    cycle_graph,
    disjoint_union,
    edgeless,
    path_graph,
    petersen,
    power,
    star,
)
from cyclekit.registry import (
    EveryLongestProp,
    ExistsProp,
    Profile,
    ResidualBound,
    audit_sharpness,
    check,
    check_all,
    invariant_report,
)
from cyclekit.invariants import cut_scan
from cyclekit.structure import claw, contains_induced, net
from conftest import listable_corpus, mixed_corpus, oracle_corpus, seeded_gnp
from oracles import contains_induced as backtracking_contains_induced
from oracles import cut_scan as exhaustive_cut_scan
from test_invariants import naive_kappa


def test_verdict_kinds_on_frozen_graphs():
    # Dirac on K_6: holds
    assert check(complete(6), get("Thm6")).kind == "holds"
    # Dirac on 2K_3+K_1: premise fails -> vacuous; T1 holds with c=4 >= 4
    g = build("join2Kd-K1", delta=3)
    assert check(g, get("Thm6")).kind == "vacuous"
    v = check(g, get("T1"))
    assert v.kind == "holds" and "c=4" in v.detail
    # Chvatal-Erdos on Petersen: kappa=3 < alpha=4 -> vacuous
    assert check(petersen(), get("Thm16")).kind == "vacuous"


def test_named_graph_escape():
    # T19: tau > 1 fails on Petersen (tau = 4/3 > 1), c=9 < min{10, 11}
    # so only the named escape saves it
    v = check(petersen(), get("T19"))
    assert v.kind == "holds"
    assert "Petersen" in v.detail


def test_below_floor_is_vacuous():
    assert check(complete(2), get("T1")).kind == "vacuous"
    assert check(petersen(), get("Thm8")).kind == "vacuous"  # n floor 11


def test_assertable_premises():
    g = power(cycle_graph(9), 2)  # square of a 2-connected graph
    spec = get("Thm18")
    assert check(g, spec).kind == "inapplicable"
    v = check(g, spec, assume=["square_of_2connected"])
    assert v.kind == "holds"
    assert check(cycle_graph(6), get("Thm26")).kind == "inapplicable"
    # an asserted premise is trusted; conclusion still verified
    assert check(cycle_graph(6), get("Thm26"), assume=["interval"]).kind == "holds"


def test_planarity_ceiling_inapplicable():
    g = cycle_graph(20)
    v = check(g, get("Thm19"))
    assert v.kind == "vacuous"  # kappa=2 < 4 fails before planarity
    big = power(cycle_graph(20), 4)  # kappa >= 4; 80 edges > 3n - 6 = 54
    v2 = check(big, get("Thm19"))
    assert v2.kind == "vacuous" and v2.detail == "premise fails: G is planar"
    assert check(big, get("Thm19"), assume=["planar"]).kind != "inapplicable"


def test_lambda_iteration():
    # Thm44 on K_6: delta=5 >= 6/(lam+1) for every lam >= 1; holds for all
    v = check(complete(6), get("Thm44"))
    assert v.kind == "holds"
    # fixing lambda works
    v2 = check(complete(6), get("Thm44"), lam=2)
    assert v2.kind == "holds" and v2.lam == 2
    # empty domain -> vacuous (kappa=1 graph for a kappa >= lambda+2 theorem)
    assert check(path_graph(5), get("T17")).kind == "vacuous"


def test_ceiling_verdict():
    # n = 21 > 20 and c = 20 < n: every-longest entries are past the cap
    v = check(complete_bipartite(10, 11), get("Thm31"))
    assert v.kind == "ceiling"
    h = build("tKa-join-Kb", t=3, a=4, b=2)  # n = 14, within the cap
    assert check(h, get("Thm31")).kind in ("holds", "vacuous")


def test_check_all_report():
    rep = check_all(petersen())
    assert not rep.violated
    counts = rep.counts
    assert counts.get("VIOLATED", 0) == 0
    assert counts["holds"] >= 20
    assert sum(counts.values()) == len(catalog())
    rep2 = check_all(petersen(), include_quarantined=False)
    assert sum(rep2.counts.values()) == len(catalog()) - 1


def test_verdict_records():
    v = check(complete(5), get("T1"))
    rec = v.to_record()
    assert rec["theorem"] == "T1" and rec["verdict"] == "holds"
    assert "witness" in rec


def test_audit_reports_structure():
    results = audit_sharpness(get("Thm6"))
    assert len(results) == 4  # delta = 2..5
    assert all(r.passed for r in results)
    results2 = audit_sharpness(get("Thm6"), "3..4")
    assert len(results2) == 2


def test_profile_caches_are_consistent():
    pf = Profile(petersen())
    assert pf.kappa == 3 and pf.alpha == 4
    assert pf.c == 9 and not pf.is_hamiltonian
    assert pf.is_petersen
    assert not Profile(cycle_graph(10)).is_petersen


def test_one_full_graph_longest_cycle_search_per_check_all(monkeypatch):
    g = build("Kdd1", delta=5)  # K_{5,6}
    full = []
    original = cycles._longest_cycle

    def counting(h, *args, **kwargs):
        if h.n == g.n:
            full.append(h)
        return original(h, *args, **kwargs)

    monkeypatch.setattr(cycles, "_longest_cycle", counting)
    monkeypatch.setattr(registry, "_longest_cycle", counting)
    check_all(g)
    assert len(full) == 1


def test_the_longest_cycle_witness_is_validated_where_it_is_built(monkeypatch):
    # A search that returned a non-cycle is caught before any answer, here
    # T1's Bound witness, hands it out.
    g = path_graph(4)
    monkeypatch.setattr(cycles, "_longest_cycle", lambda h, *a, **k: (h.n, list(range(h.n))))
    with pytest.raises(CertificateError):
        LongestCycles(g)
    with pytest.raises(CertificateError):
        check(Profile(g), get("T1"))


# -- the shared longest-cycle cache against naive loops ---------------------


def naive_test(g, prop, lam, residual):
    """One cycle's answer.  PD and CD are read from the cycle's residual
    (p_bar, c_bar): PD is p_bar < lam, CD is c_bar < lam, and both hold
    when the cycle spans G."""
    if prop == "dominating":
        return lambda cert: is_dominating_cycle(g, cert)
    i = 0 if prop == "PD" else 1
    return lambda cert: (r := residual(cert)[i]) is None or r < lam


def naive_every(g, c, listed, test):
    if c == g.n:
        return True, None
    for cert in listed(c):
        if not test(cert):
            return False, cert
    return True, None


def naive_exists(g, c, witness, listed, test):
    if c == g.n:
        return witness
    for length in range(c, 0, -1):
        for cert in listed(length):
            if test(cert):
                return cert
    return None


RESIDUAL_BOUNDS = {
    "p + cbar + lam": lambda pf, p, cb, lam: p + cb + lam,
    "(p + 1) * lam": lambda pf, p, cb, lam: (p + 1) * lam,
    "n - 2 * cbar + lam": lambda pf, p, cb, lam: pf.n - 2 * cb + lam,
}


def naive_residual(pf, c, longest, bound, lam):
    """Verdict and witness of ResidualBound by a loop over every longest cycle,
    each listed with its residual (p_bar, c_bar)."""
    for cert, p_bar, c_bar in longest:
        if Fraction(c) < bound(pf, p_bar, c_bar, lam):
            return False, cert
    return True, None


def test_longest_cycle_answers_match_naive_loops_up_to_14_vertices():
    props = [("dominating", None)] + [(p, lam) for p in ("PD", "CD") for lam in range(1, 5)]
    named = [
        build("Kdd1", delta=5),
        build("join2Kd-K1", delta=6),
        build("H", a=1, b=2, t=4, k=3),
        build("moon-moser-cut", quarter=4),
    ]
    for g in listable_corpus() + named:
        if g.n < 3:
            continue
        c, witness = circumference(g)
        pf = Profile(g)  # one Profile, so every question below shares its cache
        # Each length's cycles, listed once for all nine properties.  A listed
        # cycle's residual (p_bar, c_bar) is that of G minus its vertex set,
        # computed once per vertex set for every property, lambda and bound
        # that asks about it, and kept with the first cycle that asked.
        listed = functools.cache(lambda length, g=g: list(cycles_of_length(g, length)))
        residuals = {}

        def residual(cert, g=g, residuals=residuals):
            key = frozenset(cert.vertices)
            if key not in residuals:
                residuals[key] = cert, residual_params(g, cert)
            return residuals[key][1]

        for prop, lam in props:
            fixed = (lambda pf, _lam, lam=lam: lam) if lam else None
            test = naive_test(g, prop, lam, residual)
            out = EveryLongestProp(prop, fixed).check(pf, None)
            assert (out.ok, out.witness) == naive_every(g, c, listed, test), (g, prop, lam)
            out = ExistsProp(prop, fixed).check(pf, None)
            want = naive_exists(g, c, witness, listed, test)
            assert (out.ok, out.witness) == (want is not None, want), (g, prop, lam)
        if g in named:
            # the residual reading of PD and CD is the oracles' own answer
            for cert, _ in residuals.values():
                for lam in range(1, 5):
                    for prop, oracle in (("PD", is_PD_cycle), ("CD", is_CD_cycle)):
                        want = oracle(g, cert, lam)
                        assert naive_test(g, prop, lam, residual)(cert) == want, (g, cert, prop, lam)
        # The longest cycles and their residual parameters, listed once for
        # every (lambda, bound) pair; none when a hamiltonian cycle leaves nothing.
        longest = [] if c == g.n else [(cert, *residual(cert)) for cert in listed(c)]
        ref = Profile(g)
        for lam in range(1, 5):
            for label, bound in RESIDUAL_BOUNDS.items():
                out = ResidualBound(label, bound).check(pf, lam)
                want = naive_residual(ref, c, longest, bound, lam)
                assert (out.ok, out.witness) == want, (g, label, lam)


# -- kappa by flow, tau by its bounds ----------------------------------------


H_PARAMS = [(1, 2, 3, 2), (1, 2, 4, 3), (1, 2, 5, 4), (2, 2, 3, 3)]


@pytest.fixture(scope="module")
def exact_cuts():
    """(graph, kappa, exact tau) over small and named graphs: kappa by the
    naive cut count, tau from the exhaustive 2^n scan of ``oracles`` on up to
    14 vertices, and C_20^4's tau = 4 pinned rather than scanned over 2^20
    sets (``test_cut_search_of_c20_4`` holds the value)."""
    graphs = mixed_corpus(seed=61, per_cell=3) + [
        complete(0),
        complete(1),
        complete(2),
        complete(6),
        disjoint_union([complete(3), complete(4)]),
        disjoint_union([complete(1), complete(1)]),
        disjoint_union([cycle_graph(5), path_graph(3)]),
        petersen(),
        build("join2Kd-K1", delta=6),
    ] + [build("H", a=a, b=b, t=t, k=k) for a, b, t, k in H_PARAMS]
    assert max(g.n for g in graphs) <= 14
    c20_4 = power(cycle_graph(20), 4)
    return [(g, naive_kappa(g), exhaustive_cut_scan(g)[0]) for g in graphs] + [
        (c20_4, naive_kappa(c20_4), Fraction(4))
    ]


def test_toughness_lies_between_kappa_over_alpha_and_half_kappa(exact_cuts):
    for g, kappa, tau in exact_cuts:
        pf = Profile(g)
        assert pf.kappa == kappa, g
        lo, hi = pf.tau_bounds
        if g.q == g.n * (g.n - 1) // 2:
            assert tau == lo == hi == INF, g
        else:
            assert (lo, hi) == (Fraction(kappa, pf.alpha), Fraction(kappa, 2)), g
            assert lo <= tau <= hi, g


def test_profile_tau_comparisons_match_the_exact_tau(exact_cuts, monkeypatch):
    scans = []
    monkeypatch.setattr(registry, "cut_scan", lambda g: scans.append(g) or cut_scan(g))
    for g, _, tau in exact_cuts:
        half = g.n // 2
        for x in (Fraction(1), Fraction(4, 3), Fraction(3, 2), Fraction(half, half + 1)):
            for name, want in (("tau_ge", tau >= x), ("tau_gt", tau > x)):
                pf = Profile(g)  # fresh, so the bounds alone are tried first
                lo, hi = pf.tau_bounds
                decided = lo >= x or hi < x if name == "tau_ge" else lo > x or hi <= x
                scans.clear()
                assert getattr(pf, name)(x) == want, (g, name, x)
                assert len(scans) == (not decided), (g, name, x)


def test_check_all_on_c20_4_runs_no_cut_scan(monkeypatch):
    scans = []
    monkeypatch.setattr(registry, "cut_scan", lambda g: scans.append(g) or cut_scan(g))
    got = [v.to_record() for v in check_all(power(cycle_graph(20), 4)).verdicts]
    frozen = Path(__file__).parent / "data" / "check_all_C20_4.jsonl"
    assert got == [json.loads(line) for line in frozen.read_text().splitlines()]
    assert scans == []


def test_check_all_searches_each_pattern_once_per_profile(monkeypatch):
    # C_20^4 is 8-connected and claw-free, so every free premise is evaluated,
    # and five of them name the claw.  P_3 is settled by closed
    # neighbourhoods, without a search.
    searches = []
    monkeypatch.setattr(registry, "contains_induced",
                        lambda g, h: searches.append(h) or contains_induced(g, h))
    g = power(cycle_graph(20), 4)
    assert contains_induced(g, claw()) is None
    got = [v.to_record() for v in check_all(g).verdicts]
    frozen = Path(__file__).parent / "data" / "check_all_C20_4.jsonl"
    assert got == [json.loads(line) for line in frozen.read_text().splitlines()]
    patterns = {h for spec in catalog() for prem in spec.premises for h in prem.patterns}
    assert len(searches) == len(set(searches)) and set(searches) == patterns - {path_graph(3)}


def test_is_free_of_agrees_with_the_induced_searches():
    # alpha(G) < alpha(h) settles a pattern without a search; every answer,
    # settled or searched, must be both searches' own.
    patterns = {h for spec in catalog() for prem in spec.premises for h in prem.patterns}
    patterns |= {star(4), cycle_graph(5), complete(4), path_graph(4)}
    alphas = {h: invariants.independence_number(h)[0] for h in patterns}
    graphs = oracle_corpus() + [g for n in range(7, 15) for p in (0.5, 0.7, 0.85)
                                for g in seeded_gnp(n, p, 4, 1900 + 97 * n + int(100 * p))]
    # P_3-free graphs are disjoint unions of cliques; the last one is not.
    graphs += [edgeless(3), disjoint_union([complete(1), complete(2), complete(4)]),
               disjoint_union([complete(3), complete(2), path_graph(3)])]
    settled = searched = 0
    for g in graphs:
        pf = Profile(g)
        for h in patterns:
            free = contains_induced(g, h) is None
            assert free == (backtracking_contains_induced(g, h) is None), (g, h)
            assert pf.is_free_of(h) == free, (g, h)
            if pf.alpha < alphas[h]:
                settled += 1
            else:
                searched += 1
    assert settled and searched


def test_check_all_searches_no_pattern_of_larger_alpha(monkeypatch):
    # The complement of C_7 and K_8 minus a perfect matching have alpha = 2
    # and kappa >= 2, so check_all asks about every forbidden pattern but
    # N_{0,0,3} (its theorem needs n >= 10), and those of alpha 3 (the claw,
    # P_6 and the nets) need no search.
    asked, searches = [], []
    is_free_of = Profile.is_free_of
    monkeypatch.setattr(Profile, "is_free_of", lambda pf, h: asked.append(h) or is_free_of(pf, h))
    monkeypatch.setattr(registry, "contains_induced",
                        lambda g, h: searches.append(h) or contains_induced(g, h))
    patterns = {h for spec in catalog() for prem in spec.premises for h in prem.patterns}
    alpha3 = {h for h in patterns if invariants.independence_number(h)[0] == 3}
    assert claw() in alpha3 and len(alpha3) == 5
    for g in (complement(cycle_graph(7)), complement(disjoint_union([complete(2)] * 4))):
        pf = Profile(g)
        assert pf.alpha == 2 and pf.kappa >= 2
        asked.clear()
        searches.clear()
        check_all(g)
        assert alpha3 - {net(0, 0, 3)} <= set(asked), g
        assert not alpha3 & set(searches), g


def test_profile_tau_reuses_its_kappa_and_alpha(monkeypatch):
    cases = []
    for g in oracle_corpus():
        pf = Profile(g)
        pf.kappa, pf.alpha  # what a Profile has computed before it needs tau
        cases.append((pf, cut_scan(g)))

    def recomputed(g):
        raise AssertionError("cut_scan recomputed kappa or alpha")

    monkeypatch.setattr(invariants, "connectivity", recomputed)
    monkeypatch.setattr(invariants, "independence_number", recomputed)
    for pf, want in cases:
        assert cut_scan(pf) == want, pf.g
        assert pf.tau == want[0], pf.g


def test_check_rejects_lambda_below_one():
    pf = Profile(petersen())
    for spec_id in ("Thm14", "Thm36", "Thm44", "g1"):
        for lam in (-3, -1, 0):
            with pytest.raises(ValueError, match="lambda must be >= 1"):
                check(pf, get(spec_id), lam=lam)
        assert check(pf, get(spec_id), lam=1).kind != "VIOLATED"


def test_residual_bound_enumeration_hits_the_ceiling():
    start = time.perf_counter()
    pf = Profile(complete_bipartite(9, 12))  # n = 21, c = 18
    verdicts = [check(pf, get(spec_id)) for spec_id in ("T11", "T12")]
    assert time.perf_counter() - start < 10
    for v in verdicts:
        assert v.kind == "ceiling"
        assert "capped at 20 vertices" in v.detail and "n=21" in v.detail


def test_one_vertex_cap_is_read_at_call_time(monkeypatch):
    # Patching the one public cap moves every check: the residual bound,
    # the search budget and the listing.
    g = complete_bipartite(7, 9)  # n = 16, c = 14
    assert check(Profile(g), get("T12")).kind == "holds"
    monkeypatch.setattr(cycles, "ENUMERATION_CEILING", 15)
    v = check(Profile(g), get("T12"))
    assert v.kind == "ceiling"
    assert "capped at 15 vertices" in v.detail and "n=16" in v.detail
    assert cycles._search_budget(16) is None
    with pytest.raises(cycles.CeilingError):
        list(cycles.all_longest_cycles(g))


def test_longest_cycle_answers_on_k79_match_the_construction():
    # K_{7,9} has no Hamilton cycle, and a longest cycle alternates sides,
    # so it spans the 7-side and seven of the 9-side.  The two vertices it
    # leaves off are nonadjacent: p_bar = 0 and c_bar = 1 for every one.
    g = complete_bipartite(7, 9)
    pf = Profile(g)
    c, witness = circumference(g)
    assert pf.c == c == 14
    small = (1 << 7) - 1
    want = sorted(small | sum(1 << v for v in big) for big in combinations(range(7, 16), 7))
    assert sorted(pf.cycles.cycle_sets(c)) == want
    for t in want:
        off = g.full_mask ^ t
        assert (pf.cycles.p_bar(off), pf.cycles.c_bar(off)) == (0, 1)
    # Dominating and PD hold for every longest cycle and CD(lam) for lam >= 2.
    # CD(1) fails for the first longest cycle, and for every cycle, since
    # each leaves a vertex off (c_bar >= 1).
    for prop, lam in [("dominating", None)] + [(p, lam) for p in ("PD", "CD") for lam in range(1, 5)]:
        fixed = (lambda pf, _lam, lam=lam: lam) if lam else None
        ok = prop != "CD" or lam > 1
        out = EveryLongestProp(prop, fixed).check(pf, None)
        assert (out.ok, out.witness) == (ok, None if ok else witness), (prop, lam)
        out = ExistsProp(prop, fixed).check(pf, None)
        assert (out.ok, out.witness) == (ok, witness if ok else None), (prop, lam)
    for lam in range(1, 5):
        for label, bound in RESIDUAL_BOUNDS.items():
            out = ResidualBound(label, bound).check(pf, lam)
            assert (out.ok, out.witness) == naive_residual(pf, c, [(witness, 0, 1)], bound, lam)
    for spec_id in ("T11", "T12"):
        assert check(pf, get(spec_id)).kind == "holds"
    assert not check_all(g).violated


# -- the invariant report as a view over Profile -------------------------


def invariant_corpus():
    """Named graphs plus seeded G(n,p), n = 1..13: the input behind the frozen
    ``tests/data/invariants.{txt,jsonl}``, written when the report still
    computed every invariant by its own calls."""
    named = [
        complete(0),
        complete(1),
        complete(2),
        complete(6),
        edgeless(4),
        petersen(),
        complete_bipartite(5, 6),
        disjoint_union([complete(5), complete(5), complete(1)]),
        build("H", a=1, b=2, t=4, k=3),
    ]
    return named + [
        g
        for n in range(1, 14)
        for p in (0.2, 0.4, 0.6, 0.8)
        for g in seeded_gnp(n, p, 3, 1000 * n + int(100 * p))
    ]


@pytest.mark.parametrize("flags, frozen", [((), "invariants.txt"), (("--json",), "invariants.jsonl")])
def test_invariants_command_matches_frozen_output(tmp_path, capsys, flags, frozen):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("".join(encode_graph6(g) + "\n" for g in invariant_corpus()))
    assert cli.main(["invariants", *flags, str(corpus)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (Path(__file__).parent / "data" / frozen).read_text()


def test_invariant_report_scans_only_for_the_printed_tau(monkeypatch):
    scans = []
    monkeypatch.setattr(registry, "cut_scan", lambda g: scans.append(g) or cut_scan(g))
    for n in (0, 1, 2, 18):
        assert invariant_report(complete(n)).tau == INF
    assert scans == []
    pf = Profile(power(cycle_graph(20), 4))
    rep = invariant_report(pf)
    assert len(scans) == 1 and rep.tau == pf.tau and rep.kappa == 8
