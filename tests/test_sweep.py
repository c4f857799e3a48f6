"""Sweep determinism and reporting."""

import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from cyclekit import cli, registry
from cyclekit import sweep as sweep_module
from cyclekit.catalog import catalog
from cyclekit.exact import fmt_exact
from cyclekit.families import build
from cyclekit.formats import encode_graph6
from cyclekit.graph import GraphError, complete_bipartite, cycle_graph, petersen, power
from cyclekit.registry import Bound, EveryLongestProp, Profile, TheoremSpec, check
from cyclekit.sweep import gnp, random_bipartite, random_regular, sweep
from conftest import mixed_corpus, seeded_gnp, sweep_outcome
from oracles import decide as reference_decide

DATA = Path(__file__).parent / "data"


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


def test_sweep_raises_the_alarm_and_counts_the_cap():
    # c <= n refutes n+1 everywhere; K_{10,11} lies above the 20-vertex cap
    # of the every-longest check, and Petersen's longest cycles dominate.
    specs = [
        TheoremSpec("false", "forged", "c >= n+1", Bound("n+1")),
        TheoremSpec("dom", "forged", "every longest cycle dominates",
                    EveryLongestProp("dominating")),
    ]
    rep = sweep([petersen(), complete_bipartite(10, 11)], specs)
    false, dom = rep.tallies["false"], rep.tallies["dom"]
    assert (false.graphs, false.violated, false.holds) == (2, 2, 0)
    assert (dom.graphs, dom.holds, dom.ceiling, dom.violated) == (2, 1, 1, 0)
    assert [(g6, v.theorem_id, v.kind) for g6, v in rep.violated] == [
        (encode_graph6(petersen()), "false", "VIOLATED"),
        (encode_graph6(complete_bipartite(10, 11)), "false", "VIOLATED"),
    ]
    assert not rep.ok


# c <= n refutes n+1 everywhere, so every graph has one VIOLATED verdict
FORGED = TheoremSpec("false", "forged", "c >= n+1", Bound("n+1"))


def checked_outcome(graphs, specs) -> tuple:
    """``sweep_outcome`` of a sweep, built from one ``check`` per (graph,
    theorem) pair on a fresh Profile per graph, with each slack recomputed
    from its Bound's expression."""
    records, violated = [], []
    tallies = {s.id: [0] * 8 for s in specs}
    kinds = ("holds", "vacuous", "inapplicable", "ceiling", "VIOLATED")
    for g in graphs:
        g6, pf = encode_graph6(g), Profile(g)
        for spec in specs:
            v, t = check(pf, spec), tallies[spec.id]
            records.append((g6, spec.id, v.lam, v.kind, None if v.witness is None else str(v.witness)))
            t[0] += 1
            t[1 + kinds.index(v.kind)] += 1
            if v.kind == "holds" and isinstance(spec.conclusion, Bound) and spec.lambdas is None:
                t[6] += pf.c - spec.conclusion.expr(pf, None)
                t[7] += 1
            if v.kind == "VIOLATED":
                violated.append((g6, v.to_record()))
    return records, {tid: tuple(t) for tid, t in tallies.items()}, violated


def test_a_sweep_equals_a_loop_of_check_calls():
    # The sweep tallies decisions and builds a Verdict only for a VIOLATED
    # one; a check of every pair must give the same records, tallies, slack
    # sums and VIOLATED verdicts.  K_{10,11} is past the 20-vertex cap of
    # the every-longest-cycle checks, so it reads ceiling there.
    graphs = mixed_corpus(seed=31, per_cell=3, ns=range(1, 11)) + [
        petersen(), complete_bipartite(10, 11)
    ]
    specs = catalog() + [FORGED]
    rep = sweep(graphs, specs, include_quarantined=True)
    outcome = sweep_outcome(rep)
    assert outcome == checked_outcome(graphs, specs)
    records, tallies, violated = outcome
    refuted = len(graphs) - 2 * 4 * 3  # orders 1 and 2 lie below the floor of 3
    assert len(violated) == tallies["false"][5] == refuted
    assert sum(t[4] for t in tallies.values()) > 0  # ceiling verdicts on K_{10,11}
    assert {kind for _, _, _, kind, _ in records} == {
        "holds", "vacuous", "inapplicable", "ceiling", "VIOLATED"
    }


def test_a_sweep_decides_each_statement_once_per_graph(monkeypatch):
    # An alias shares its base's premises, conclusion, lambda domain and
    # order floor, so the sweep's plan decides the pair once and records the
    # decision under both ids: 72 decisions per graph for the 81 entries
    # that are not quarantined, each ended by one clock read after the
    # graph's first.  Each conclusion is checked exactly as often as the
    # reference decision of every entry but the aliases checks it, and no
    # premise is tested twice on one graph at one lambda.  Records, tallies
    # and slack sums equal a loop that decides every entry on its own.
    # Three forged entries share a conclusion object with a catalog entry
    # but differ in the order floor, the premises or the lambda domain, so
    # each is decided on its own.
    graphs = mixed_corpus(seed=41, per_cell=2, ns=range(3, 10)) + [petersen()]
    specs = [s for s in catalog() if not s.quarantined]
    assert len(specs) == 81
    first = {}
    aliases = {s.id for s in specs if first.setdefault(s.statement, s) is not s}
    assert len(aliases) == 9
    base = next(s for s in specs if s.premises and s.lambdas is None)
    ranged = next(s for s in specs if s.lambdas is not None)
    specs += [
        TheoremSpec("floor", "forged", "from 7 vertices", base.conclusion, base.premises, n_floor=7),
        TheoremSpec("bare", "forged", "without premises", base.conclusion, (), base.n_floor),
        TheoremSpec("lam1", "forged", "lambda = 1 only", ranged.conclusion, ranged.premises,
                    ranged.n_floor, lambda pf: [1]),
    ]
    reads, tested, checks = [], [], Counter()
    clock = registry.perf_counter
    monkeypatch.setattr(registry, "perf_counter", lambda: reads.append(1) or clock())
    for prem in {p for s in specs for p in s.premises if p.fn is not None}:
        monkeypatch.setitem(vars(prem), "fn", lambda pf, lam, prem=prem, fn=prem.fn:
                            tested.append((pf, prem, lam)) or fn(pf, lam))
    for conclusion in {id(s.conclusion): s.conclusion for s in specs}.values():
        monkeypatch.setitem(vars(conclusion), "check", lambda pf, lam, key=id(conclusion),
                            real=conclusion.check: checks.update((key,)) or real(pf, lam))
    rep = sweep(graphs, specs)
    assert len(reads) == (72 + 3 + 1) * len(graphs)
    assert len(tested) == len(set(tested))
    swept = +checks
    checks.clear()
    for g in graphs:
        pf = Profile(g)
        for spec in specs:
            if spec.id not in aliases:
                reference_decide(pf, spec)
    assert swept == +checks
    assert any(checks[id(s.conclusion)] for s in specs if s.id in aliases)
    records, tallies = [], {s.id: [0] * 8 for s in specs}
    kinds = ("holds", "vacuous", "inapplicable", "ceiling", "VIOLATED")
    for g in graphs:
        g6, pf = encode_graph6(g), Profile(g)
        for spec in specs:
            kind, lam, witness, why = reference_decide(pf, spec)
            records.append((g6, spec.id, lam, kind, None if witness is None else str(witness)))
            t = tallies[spec.id]
            t[0] += 1
            t[1 + kinds.index(kind)] += 1
            if kind == "holds" and isinstance(spec.conclusion, Bound) and spec.lambdas is None:
                t[6] += why.c - why.bound
                t[7] += 1
    assert sweep_outcome(rep) == (records, {tid: tuple(t) for tid, t in tallies.items()}, [])


def test_a_sweep_formats_no_detail_of_a_verdict_it_keeps_no_verdict_for(monkeypatch):
    # Bound details format the bound with fmt_exact, and only when read: a
    # sweep with no VIOLATED verdict never reads one.
    def refuse(x):
        raise AssertionError("a detail was formatted")

    monkeypatch.setattr(registry, "fmt_exact", refuse)
    graphs = mixed_corpus(seed=37, per_cell=2, ns=range(3, 11)) + [petersen()]
    rep = sweep(graphs, include_quarantined=True)
    assert rep.ok and rep.tallies["T1"].slack_count > 0
    with pytest.raises(AssertionError, match="a detail was formatted"):
        sweep([petersen()], [FORGED])


def test_dirac_rate_on_regular_half_degree():
    rep = sweep(random_regular(12, 6, 8, seed=4), keep_records=False)
    t = rep.tallies["Thm6"]
    assert t.applicable_rate == 1.0 and t.holds_rate == 1.0


# -- frozen sweep and check output ------------------------------------------
#
# The files under tests/data/ named below were written by the functions in
# this section and hold every byte that the sweep, its tallies (slack sums
# included) and ``check --json`` print on fixed seeded corpora.  Any change
# to the verdict path must leave them unchanged.

# (frozen file, CLI arguments); the sweeps print their table or records
SWEEP_RUNS = (
    ("sweep_gnp.txt", ["sweep", "--n", "8", "--p", "0.5", "--count", "30", "--seed", "5"]),
    ("sweep_regular.txt", ["sweep", "--model", "regular", "--n", "8", "--d", "4", "--count", "6",
                           "--seed", "3", "--include-quarantined"]),
    ("sweep_bipartite.txt", ["sweep", "--model", "bipartite", "--a", "3", "--b", "4", "--p", "0.7",
                             "--count", "10", "--seed", "2"]),
    ("sweep_gnp_records.jsonl", ["sweep", "--json", "--n", "7", "--p", "0.5", "--count", "10",
                                 "--seed", "5"]),
)
# (frozen file, extra arguments, exit code); asserting interval on the
# non-interval graphs makes Keil's theorem (Thm26) VIOLATED on one of them
CHECK_RUNS = (
    ("check.jsonl", [], 0),
    ("check_lambda2.jsonl", ["--lambda", "2"], 0),
    ("check_assume_interval.jsonl", ["--assume", "interval"], 1),
)


def frozen_sweep_corpus():
    """Seeded G(n, p) on 3..12 vertices plus named graphs of 7 to 16
    vertices, all within the 20-vertex cap, so no verdict is ``ceiling``."""
    return mixed_corpus(seed=1010, per_cell=2, ns=range(3, 13)) + frozen_check_corpus()


def frozen_check_corpus():
    return [
        petersen(),
        complete_bipartite(3, 4),
        power(cycle_graph(12), 2),
        complete_bipartite(7, 9),
        build("moon-moser-cut", quarter=4),
    ] + [g for n in (6, 8, 10) for g in seeded_gnp(n, 0.6, 1, seed=2020 + n)]


def _graph6_lines(graphs) -> str:
    return "".join(encode_graph6(g) + "\n" for g in graphs)


def frozen_tallies(graphs) -> str:
    rep = sweep(graphs, include_quarantined=True, keep_records=False)
    return "".join(
        json.dumps({"theorem": tid, "graphs": t.graphs, "holds": t.holds, "vacuous": t.vacuous,
                    "inapplicable": t.inapplicable, "ceiling": t.ceiling, "violated": t.violated,
                    "slackSum": fmt_exact(t.slack_sum), "slackCount": t.slack_count}) + "\n"
        for tid, t in rep.tallies.items()
    ) + rep.table() + "\n"


def cli_output(args, code: int = 0) -> str:
    """stdout of one in-process CLI run; sweep records lose their timing."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(args) == code
    if "sweep" in args and "--json" in args:
        return "".join(
            json.dumps({k: v for k, v in json.loads(line).items() if k != "timing"}) + "\n"
            for line in out.getvalue().splitlines()
        )
    return out.getvalue()


def test_frozen_corpora_are_the_seeded_ones():
    assert (DATA / "sweep_corpus.g6").read_text() == _graph6_lines(frozen_sweep_corpus())
    assert (DATA / "check_corpus.g6").read_text() == _graph6_lines(frozen_check_corpus())


def test_sweep_tallies_and_slack_sums_match_frozen_output():
    assert frozen_tallies(frozen_sweep_corpus()) == (DATA / "sweep_tallies.txt").read_text()


@pytest.mark.parametrize("name, args", SWEEP_RUNS)
def test_sweep_command_matches_frozen_output(name, args):
    assert cli_output(args) == (DATA / name).read_text()


@pytest.mark.parametrize("name, extra, code", CHECK_RUNS)
def test_check_json_matches_frozen_output(name, extra, code):
    args = ["check", "--json", *extra, str(DATA / "check_corpus.g6")]
    assert cli_output(args, code) == (DATA / name).read_text()
