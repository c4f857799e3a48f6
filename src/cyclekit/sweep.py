"""Randomized soundness sweeps over seeded graph ensembles.

A sweep generates graphs deterministically from a seed, runs the whole
catalog on each, and aggregates per-theorem applicability and holds
rates plus average slack for circumference bounds.  Any VIOLATED verdict
is a defect alarm: the report keeps the offending graph6 string and the
full verdict transcript.

Records and tallies are read off the ``registry.Plan`` of the swept
theorems (``plan_of``, built once per list of theorems), which formats no
detail: building a ``Verdict`` for every (graph, theorem) pair cost more
than deciding it, and only a VIOLATED verdict's detail is kept.  That
verdict is built by ``check``, which decides it again.  The plan tests
each premise at most once per graph and lambda and decides each statement
once per graph: an alias shares its base's premises, conclusion, lambda
domain and order floor, so the base's decision is recorded and tallied
under both ids, each record with that decision's time as its ``timing``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Sequence

from .formats import encode_graph6
from .graph import Graph, GraphError, from_edge_list
from .registry import Bound, Profile, TheoremSpec, Verdict, check, plan_of


# -- ensemble generators --------------------------------------------------


def gnp(n: int, p: float, count: int, seed: int) -> Iterator[Graph]:
    """Erdos-Renyi G(n,p), deterministic for a fixed seed."""
    rng = random.Random(seed)
    for _ in range(count):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        yield from_edge_list(n, edges)


def random_regular(n: int, d: int, count: int, seed: int) -> Iterator[Graph]:
    """d-regular graphs by the pairing model with rejection, seeded."""
    if n * d % 2 or not 0 <= d < n:
        raise GraphError("random regular needs n*d even and 0 <= d < n")
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            produced += 1
            yield from_edge_list(n, sorted(edges))


def random_bipartite(a: int, b: int, p: float, count: int, seed: int) -> Iterator[Graph]:
    """Bipartite G(a,b,p) on sides {0..a-1} and {a..a+b-1}, seeded."""
    if a < 0 or b < 0:
        raise GraphError("random bipartite needs sides a, b >= 0")
    rng = random.Random(seed)
    for _ in range(count):
        edges = [
            (u, a + w)
            for u in range(a)
            for w in range(b)
            if rng.random() < p
        ]
        yield from_edge_list(a + b, edges)


# -- sweep report ---------------------------------------------------------


class SweepRecord:
    """One verdict of a sweep, as ``sweep --json`` prints it.  ``timing`` is
    the seconds its decision took in the sweep's plan, from the end of the
    graph's previous decision (one clock read per decision), so a premise
    tested once for several theorems counts toward the first; an alias and
    its base, decided once, carry the same ``timing``."""

    __slots__ = ("graph6", "theorem", "lam", "verdict", "witness", "timing")

    def __init__(self, graph6: str, theorem: str, lam: int | None, verdict: str,
                 witness: str | None, timing: float):
        self.graph6 = graph6
        self.theorem = theorem
        self.lam = lam
        self.verdict = verdict
        self.witness = witness
        self.timing = timing

    def to_record(self) -> dict:
        rec = {
            "graph6": self.graph6,
            "theoremId": self.theorem,
            "verdict": self.verdict,
            "timing": round(self.timing, 6),
        }
        if self.lam is not None:
            rec["lambda"] = self.lam
        if self.witness is not None:
            rec["witness"] = self.witness
        return rec


class TheoremTally:
    """One theorem's verdict counts over a sweep, and its summed slack."""

    __slots__ = ("graphs", "holds", "vacuous", "inapplicable", "ceiling", "violated",
                 "slack_sum", "slack_count")

    def __init__(self) -> None:
        self.graphs = self.holds = self.vacuous = self.inapplicable = 0
        self.ceiling = self.violated = self.slack_count = 0
        self.slack_sum: int | Fraction = 0

    @property
    def applicable(self) -> int:
        return self.holds + self.violated

    @property
    def applicable_rate(self) -> float:
        return self.applicable / self.graphs if self.graphs else 0.0

    @property
    def holds_rate(self) -> float:
        return self.holds / self.applicable if self.applicable else 0.0

    @property
    def mean_slack(self) -> float | None:
        if not self.slack_count:
            return None
        return float(Fraction(self.slack_sum, self.slack_count))


class SweepReport:
    """A sweep's records, per-theorem tallies and VIOLATED verdicts."""

    def __init__(self, tallies: dict[str, TheoremTally]) -> None:
        self.records: list[SweepRecord] = []
        self.tallies = tallies
        self.violated: list[tuple[str, Verdict]] = []  # (graph6, verdict)

    @property
    def ok(self) -> bool:
        return not self.violated

    def table(self) -> str:
        """Human-readable per-theorem tally table."""
        lines = [f"{'theorem':8s} {'graphs':>6s} {'applic':>6s} {'holds':>6s} "
                 f"{'vacuous':>7s} {'inappl':>6s} {'ceiling':>7s} {'VIOL':>4s} {'slack':>8s}"]
        for tid, t in self.tallies.items():
            slack = f"{t.mean_slack:.3f}" if t.mean_slack is not None else "-"
            lines.append(
                f"{tid:8s} {t.graphs:6d} {t.applicable:6d} {t.holds:6d} "
                f"{t.vacuous:7d} {t.inapplicable:6d} {t.ceiling:7d} {t.violated:4d} {slack:>8s}"
            )
        return "\n".join(lines)


def _has_slack(spec: TheoremSpec) -> bool:
    """A circumference bound without lambda: per-lambda bounds have no
    single slack."""
    return isinstance(spec.conclusion, Bound) and spec.lambdas is None


def sweep(
    graphs: Iterator[Graph] | Sequence[Graph],
    specs: Sequence[TheoremSpec] | None = None,
    include_quarantined: bool = False,
    keep_records: bool = True,
) -> SweepReport:
    """Run the catalog over an ensemble and aggregate verdicts."""
    if specs is None:
        from .catalog import catalog

        specs = catalog()
    specs = [s for s in specs if include_quarantined or not s.quarantined]
    report = SweepReport({s.id: TheoremTally() for s in specs})
    plan = plan_of(tuple(specs))
    entries = [(spec, report.tallies[spec.id], _has_slack(spec)) for spec in specs]
    record = report.records.append
    for g in graphs:
        g6 = encode_graph6(g)
        pf = Profile(g)
        for (spec, tally, has_slack), ((kind, lam, witness, why), dt) in zip(entries, plan.decide(pf)):
            tally.graphs += 1
            if kind == "holds":
                tally.holds += 1
                if has_slack:  # why is the Bound's outcome
                    tally.slack_sum += why.c - why.bound
                    tally.slack_count += 1
            elif kind == "vacuous":
                tally.vacuous += 1
            elif kind == "inapplicable":
                tally.inapplicable += 1
            elif kind == "ceiling":
                tally.ceiling += 1
            else:
                tally.violated += 1
                report.violated.append((g6, check(pf, spec)))
            if keep_records:
                record(SweepRecord(
                    g6, spec.id, lam, kind, None if witness is None else str(witness), dt,
                ))
    return report
