"""Randomized soundness sweeps over seeded graph ensembles.

A sweep generates graphs deterministically from a seed, runs the whole
catalog on each, and aggregates per-theorem applicability and holds
rates plus average slack for circumference bounds.  Any VIOLATED verdict
is a defect alarm: the report keeps the offending graph6 string and the
full verdict transcript.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .formats import encode_graph6
from .graph import Graph, GraphError, from_edge_list
from .registry import Bound, Profile, TheoremSpec, Verdict, check


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


MODELS: dict[str, Callable[..., Iterator[Graph]]] = {
    "gnp": gnp,
    "regular": random_regular,
    "bipartite": random_bipartite,
}


# -- sweep report ---------------------------------------------------------


class SweepRecord:
    """One verdict of a sweep, as ``sweep --json`` prints it."""

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


def _bound_slack(spec: TheoremSpec, pf: Profile) -> int | Fraction | None:
    """Slack c - bound of a spec that ``_has_slack``, where it holds."""
    try:
        bound = spec.conclusion.expr(pf, None)  # type: ignore[attr-defined]
    except ZeroDivisionError:
        return None
    return pf.c - bound


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
    plan = [(spec, report.tallies[spec.id], _has_slack(spec)) for spec in specs]
    for g in graphs:
        g6 = encode_graph6(g)
        pf = Profile(g)
        for spec, tally, has_slack in plan:
            t0 = time.perf_counter()
            v = check(pf, spec)
            dt = time.perf_counter() - t0
            kind = v.kind
            tally.graphs += 1
            if kind == "holds":
                tally.holds += 1
                if has_slack:
                    slack = _bound_slack(spec, pf)
                    if slack is not None:
                        tally.slack_sum += slack
                        tally.slack_count += 1
            elif kind == "vacuous":
                tally.vacuous += 1
            elif kind == "inapplicable":
                tally.inapplicable += 1
            elif kind == "ceiling":
                tally.ceiling += 1
            else:
                tally.violated += 1
                report.violated.append((g6, v))
            if keep_records:
                report.records.append(SweepRecord(
                    g6, spec.id, v.lam, kind,
                    str(v.witness) if v.witness is not None else None, dt,
                ))
    return report
