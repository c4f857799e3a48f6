"""Catalog completeness and the spec-level cross-theorem properties."""

import ast
import dis
import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

from cyclekit import cli
from cyclekit.catalog import catalog, get
from cyclekit.graph import complete_bipartite, cycle_graph, power
from cyclekit.exact import INF
from cyclekit.registry import (
    Bound,
    Premise,
    Profile,
    ResidualBound,
    audit_sharpness,
    check,
    numeric,
)
from conftest import mixed_corpus, oracle_corpus, seeded_gnp
from oracles import BOUNDS, LAMBDA_PREMISES, PREMISES

DATA = Path(__file__).parent / "data"


def test_catalog_size_and_ids():
    cat = catalog()
    assert len(cat) >= 60
    ids = [s.id for s in cat]
    assert len(ids) == len(set(ids))
    for i in range(1, 20):
        assert f"T{i}" in ids
    for i in range(1, 58):
        assert f"Thm{i}" in ids
    for extra in ("Ore", "Fan", "g1", "g4", "f1", "f2"):
        assert extra in ids


def test_equal_statements_share_one_definition():
    """An entry that restates an earlier entry's statement is an alias of it:
    the same conclusion and premise objects, not a copy.  Apart from its id,
    its title and the sharpness cases, the one change an alias may name,
    every field is the base's own object."""
    first = {}
    aliases = 0
    for spec in catalog():
        base = first.setdefault(spec.statement, spec)
        if base is spec:
            continue
        aliases += 1
        assert spec.conclusion is base.conclusion, spec.id
        assert list(map(id, spec.premises)) == list(map(id, base.premises)), spec.id
        kept = set(vars(spec)) - {"id", "title", "sharpness"}
        assert [f for f in sorted(kept) if getattr(spec, f) is not getattr(base, f)] == [], spec.id
        assert (spec.id, spec.title) != (base.id, base.title)
    assert aliases >= 9


def test_catalog_command_matches_frozen_output(capsys):
    assert cli.main(["catalog", "--json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (DATA / "catalog.jsonl").read_text()


def test_sharpness_audits_match_frozen_results():
    """Every audit case's verdict, detail and warnings, byte for byte."""
    got = "".join(
        json.dumps({"id": spec.id, "case": r.case, "graph": r.graph_label, "passed": r.passed,
                    "detail": r.detail, "warnings": r.warnings}) + "\n"
        for spec in catalog()
        for r in audit_sharpness(spec)
    )
    assert got == (DATA / "audits.jsonl").read_text()


def test_quarantine_membership_is_data():
    quarantined = {s.id for s in catalog() if s.quarantined}
    assert quarantined == {"T7"}


def test_n_floors():
    assert get("Thm8").n_floor == 11
    assert get("Thm23").n_floor == 10
    assert get("T1").n_floor == 3


def test_lookup_unknown_id():
    with pytest.raises(KeyError):
        get("Thm99")


def test_parameterized_entries():
    for tid in ("T17", "Thm14", "Thm36", "Thm42", "Thm43", "Thm44", "Thm51", "Thm57", "g1"):
        assert get(tid).lambdas is not None, tid
    for tid in ("T1", "Thm6", "Thm31"):
        assert get(tid).lambdas is None, tid


def test_chain_inequalities():
    """kappa <= delta <= sigma_2/2 <= sigma_3/3 and delta <= delta_2 (connected)."""
    for g in seeded_gnp(8, 0.4, 60, seed=101) + seeded_gnp(7, 0.7, 60, seed=102):
        pf = Profile(g)
        if not pf.connected:
            continue
        assert pf.kappa <= pf.delta
        if pf.sigma2 != float("inf"):
            assert Fraction(pf.delta) <= pf.sigma2 / 2
        if pf.sigma2 != float("inf") and pf.sigma3 != float("inf"):
            assert pf.sigma2 / 2 <= pf.sigma3 / 3
        if pf.delta2 != float("inf"):
            assert pf.delta <= pf.delta2


def test_bound_dominance():
    """T3's min{n, sigma_2} >= T2's min{n, 2delta}; T15 >= T5 likewise."""
    for g in seeded_gnp(9, 0.5, 80, seed=103):
        pf = Profile(g)
        if pf.kappa >= 2:
            assert min(pf.n, pf.sigma2) >= min(pf.n, 2 * pf.delta)
        if pf.kappa >= 3:
            assert min(pf.n, pf.sigma3 - pf.kappa) >= min(pf.n, 3 * pf.delta - pf.kappa)


def test_monotone_applicability_thm21_thm22():
    """P_3-free implies {claw, P_6}-free: wherever Thm21 applies, so does Thm22."""
    from cyclekit.graph import complete

    t21, t22 = get("Thm21"), get("Thm22")
    corpus = seeded_gnp(7, 0.6, 120, seed=104) + seeded_gnp(8, 0.8, 60, seed=105)
    corpus += [complete(k) for k in range(4, 9)]  # the P_3-free 2-connected graphs
    seen_applicable = 0
    for g in corpus:
        pf = Profile(g)
        v21 = check(pf, t21)
        if v21.kind == "holds":
            seen_applicable += 1
            assert check(pf, t22).kind == "holds", g
    assert seen_applicable > 0  # the comparison must actually trigger


def test_forbidden_pair_entries_sound_on_2connected_corpus():
    """Theorem B audit: the {claw,S}-free entries never report VIOLATED on
    2-connected graphs of order >= 10."""
    specs = [get(tid) for tid in ("Thm21", "Thm22", "Thm23", "Thm24", "Thm25")]
    corpus = [
        g
        for g in seeded_gnp(10, 0.55, 120, seed=106) + seeded_gnp(11, 0.5, 80, seed=107)
        if Profile(g).kappa >= 2
    ]
    assert len(corpus) >= 50
    for g in corpus:
        pf = Profile(g)
        for spec in specs:
            assert check(pf, spec).kind != "VIOLATED", (g, spec.id)


def _bounds(conclusion):
    """The Bound and ResidualBound parts of a conclusion, disjuncts included."""
    if isinstance(conclusion, (Bound, ResidualBound)):
        yield conclusion
    for inner in (getattr(conclusion, "first", None), getattr(conclusion, "second", None),
                  getattr(conclusion, "inner", None)):
        if inner is not None:
            yield from _bounds(inner)


def _relaxation(case):
    """The relaxed premise of a premise-tight case, else None."""
    return inspect.getclosurevars(case.run).nonlocals.get("relaxed")


def _parts(spec):
    """Every numeric premise, relaxed premise and circumference bound of a spec."""
    parts = [prem for prem in spec.premises if prem.kind == "numeric"]
    parts += [r for r in map(_relaxation, spec.sharpness) if r is not None]
    return parts + list(_bounds(spec.conclusion))


def _function(part):
    if isinstance(part, Premise):
        return part.fn
    return part.expr if isinstance(part, Bound) else part.bound


def _exact_value(x) -> bool:
    """An int, a Fraction or +inf: no bool and no finite float."""
    return type(x) in (int, Fraction) or x == INF and type(x) is float


def test_premises_are_bools_and_bounds_stay_exact():
    """Every numeric premise gives a bool and every circumference bound an
    int, a Fraction or +inf, at every lambda a spec iterates."""
    specs = catalog()
    bounded = [(spec, list(_bounds(spec.conclusion))) for spec in specs]
    assert sum(len(b) for _, b in bounded) >= 30
    checked = 0
    for g in oracle_corpus():
        pf = Profile(g)
        for spec, bounds in bounded:
            lams = list(spec.lambdas(pf)) if spec.lambdas is not None else [None]
            for lam in lams:
                for prem in spec.premises:
                    if prem.kind == "numeric":
                        try:
                            val = prem.fn(pf, lam)
                        except ZeroDivisionError:
                            continue
                        assert type(val) is bool, (g, spec.id, prem.label, lam, val)
                for bound in bounds:
                    try:
                        if isinstance(bound, Bound):
                            values = [bound.expr(pf, lam)]
                        else:
                            values = [bound.bound(pf, p, c, lam)
                                      for p in range(pf.n) for c in range(1, pf.n + 1)]
                    except ZeroDivisionError:  # Thm38's n/ceil(alpha/kappa) at kappa = 0
                        continue
                    for x in values:
                        assert _exact_value(x), (g, spec.id, bound.label, lam, x)
                        checked += 1
    assert checked > 10_000


def test_cross_multiplied_lambda_premises_match_their_quotients():
    """Every lambda a spec iterates is at least 1, so multiplying out a
    lambda-dependent denominator keeps each premise's answer."""
    uses = [
        (spec, prem.label, prem.fn)
        for spec in catalog() if spec.lambdas is not None
        for prem in spec.premises if prem.label in LAMBDA_PREMISES
    ]
    # The relaxed CD premise of the Thm36/g1 premise-tight case.
    relaxed = numeric("delta >= (n+1)/(lambda+1)+lambda-2").fn
    uses += [(spec, "delta >= (n+1)/(lambda+1)+lambda-2", relaxed)
             for spec in (get("Thm36"), get("g1"))]
    assert {label for _, label, _ in uses} == set(LAMBDA_PREMISES)
    assert {spec.id for spec, _, _ in uses} == {"Thm14", "Thm36", "g1", "Thm44"}
    checked = 0
    for g in oracle_corpus():
        pf = Profile(g)
        for spec, label, fn in uses:
            for lam in spec.lambdas(pf):
                assert fn(pf, lam) == LAMBDA_PREMISES[label](pf, lam), (g, spec.id, label, lam)
                checked += 1
    assert checked > 5_000


def test_no_true_division_on_the_verdict_path():
    """int / int is a float; the modules that decide verdicts use Fractions."""
    import cyclekit

    for name in ("catalog", "registry", "exact", "invariants", "cycles", "structure"):
        source = (Path(cyclekit.__file__).parent / f"{name}.py").read_text()
        divisions = [node.lineno for node in ast.walk(ast.parse(source))
                     if isinstance(getattr(node, "op", None), ast.Div)]
        assert divisions == [], (name, divisions)


def test_no_compiled_label_divides():
    """A compiled label cross-multiplies or builds a Fraction; it never
    divides, so it never makes a float."""
    for spec in catalog():
        for part in _parts(spec):
            divisions = [i for i in dis.get_instructions(_function(part)) if i.argrepr == "/"]
            assert divisions == [], (spec.id, part.label)


def test_every_statement_mentions_its_bound():
    # light well-formedness: statements are nonempty and titles carry a source
    for spec in catalog():
        assert spec.statement and spec.title


def test_jung_bound_agrees_with_the_exact_toughness():
    """T13 settles min{n, (tau+1)(delta+1)-1} from kappa/alpha where it can;
    its outcome must equal the one computed from the exact tau."""
    exact = Bound("", lambda pf, lam: min(Fraction(pf.n), (pf.tau + 1) * (pf.delta + 1) - 1))
    t13 = get("T13").conclusion
    graphs = mixed_corpus(seed=67, per_cell=3, ns=range(3, 11)) + [power(cycle_graph(12), 3)]
    # K_{4,9}: kappa/2 = 2 would put the bound at n = 13, but tau = 4/9 keeps it at 56/9
    graphs += [complete_bipartite(a, b) for a in range(2, 6) for b in range(a, 10)]
    for g in graphs:
        got, want = t13.check(Profile(g), None), exact.check(Profile(g), None)
        assert (got.ok, got.detail, got.witness) == (want.ok, want.detail, want.witness), g


def _outcome(fn, *args):
    """The type and value fn returns, or the ZeroDivisionError it raises."""
    try:
        x = fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError
    return type(x), x


def test_compiled_labels_match_their_hand_written_oracles():
    """Every premise, relaxed premise and bound compiled from its label
    gives its oracle's value, of the same type, at every lambda its spec
    iterates; residual bounds at every residual pair."""
    uses = [
        (spec, part, (PREMISES if isinstance(part, Premise) else BOUNDS)[part.label])
        for spec in catalog() for part in _parts(spec) if part.given is None
    ]
    assert {part.label for _, part, _ in uses} == set(PREMISES) | set(BOUNDS)
    checked = 0
    for g in oracle_corpus():
        pf = Profile(g)
        residuals = [(p, c) for p in range(pf.n) for c in range(1, pf.n + 1)]
        for spec, part, oracle in uses:
            fn = _function(part)
            for lam in spec.lambdas(pf) if spec.lambdas is not None else [None]:
                if isinstance(part, ResidualBound):
                    got = [_outcome(fn, pf, p, c, lam) for p, c in residuals]
                    want = [_outcome(oracle, pf, p, c, lam) for p, c in residuals]
                else:
                    got, want = _outcome(fn, pf, lam), _outcome(oracle, pf, lam)
                assert got == want, (g, spec.id, part.label, lam)
                checked += 1
    assert checked > 100_000


# The entries that keep an explicit function: their labels are outside the
# grammar, apart from T13's, whose function settles the bound from
# kappa/alpha without the exact tau where it can.
EXPLICIT = {
    ("Thm2", "q > max{(n-delta)(n-delta-1)/2+delta^2, ...}"),
    ("Thm31", "q <= 8 (delta=2) / (3(delta-1)(delta+2)-1)/2 (delta>=3)"),
    ("Thm42", "q > t*C(lambda,2)+C(r+1,2)"),
    ("Thm43", "q > max{f(n,2,lambda), f(n,floor(lambda/2),lambda)}"),
    ("Thm17", "b(G) >= (3a-2)/(2a-1)"),
    ("T13", "c >= min{n, (tau+1)(delta+1)-1}"),
    ("T14", "c >= (cbar+1)kappa(delta+2)/(cbar+kappa+1) when cbar >= kappa for every longest cycle"),
    ("Thm41", "c >= (cbar+1)kappa(delta+2)/(cbar+kappa+1), else (cbar+1)cbar(delta+2)/(2cbar+1) "
              "for every longest cycle"),
}


def _compiled(part):
    """The part's label compiled afresh, without its explicit function."""
    if isinstance(part, Premise):
        return numeric(part.label).fn
    return Bound(part.term).expr if isinstance(part, Bound) else ResidualBound(part.term).bound


def test_explicit_functions_only_where_the_label_does_not_compile():
    explicit = [(spec.id, part) for spec in catalog() for part in _parts(spec)
                if part.given is not None]
    assert {(spec_id, part.label) for spec_id, part in explicit} == EXPLICIT
    for spec_id, part in explicit:
        if spec_id == "T13":
            _compiled(part)
        else:
            with pytest.raises(ValueError):
                _compiled(part)


@pytest.mark.parametrize("label", [
    "t >= 1",  # unknown names
    "delta >= (3a-2)/(2a-1)",
    "q > max{(n-delta)(n-delta-1)/2+delta^2, ...}",
    "q > f(n,2,lambda)",  # unknown function
    "q >= n^delta",  # non-constant exponent
    "q >= (n+1)/ 2 when delta >= 3",
])
def test_labels_outside_the_grammar_raise_value_error(label):
    with pytest.raises(ValueError):
        numeric(label).fn
