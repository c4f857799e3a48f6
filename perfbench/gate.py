"""Correctness gate: which benchmark operations failed, and why.

An operation fails on an exception, a VIOLATED verdict, a witness that
does not validate against its graph, a circumference that differs from
the known value of a named graph, a failed sharpness case, a CLI pipeline
that exits non-zero or disagrees with in-process ``check_all``, or an
invariant that disagrees with networkx.  ``failed_share`` is failed
operations over attempted ones.
"""

from __future__ import annotations

import dataclasses

from cyclekit.cycles import CertificateError, CycleCert, PathCert


class Gate:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[object, str] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def fail(self, op: object, reason: str) -> None:
        """Mark one operation failed; an operation counts once however it fails."""
        self.failures.setdefault(op, reason)

    # -- checks shared by the workloads -----------------------------------

    def check_witness(self, op: object, g, witness) -> None:
        """Validate a certificate object, or a cycle printed as vertex numbers."""
        if witness is None:
            return
        if isinstance(witness, str):
            witness = CycleCert(tuple(int(t) for t in witness.split()))
        if not isinstance(witness, (CycleCert, PathCert)):
            return
        try:
            witness.validate(g)
        except CertificateError as exc:
            self.fail(op, f"witness {witness} does not validate: {exc}")

    def check_verdicts(self, op: object, g, verdicts) -> None:
        for v in verdicts:
            if v.kind == "VIOLATED":
                self.fail(op, f"{v.theorem_id} VIOLATED: {v.detail}")
            self.check_witness(op, g, v.witness)

    def check_sweep(self, ops: list, graphs: list, encoded: list[str], report) -> None:
        """Gate one ``sweep`` report; ``ops[i]`` names ``graphs[i]``."""
        index = {g6: i for i, g6 in enumerate(encoded)}
        for g6, v in report.violated:
            self.fail(ops[index[g6]], f"{v.theorem_id} VIOLATED on {g6}: {v.detail}")
        for rec in report.records:
            if rec.witness is not None:
                i = index[rec.graph6]
                self.check_witness(ops[i], graphs[i], rec.witness)


def oracle_kappa_alpha(g) -> tuple[int, int]:
    """Vertex connectivity and independence number computed by networkx."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    kappa = nx.node_connectivity(h)
    alpha = max(len(c) for c in nx.find_cliques(nx.complement(h)))
    return kappa, alpha


def self_test() -> list[str]:
    """Show that injected failures raise ``failed_share`` and clean input does not.

    Raises AssertionError when the gate misses an injected failure.
    """
    from cyclekit import check_all, encode_graph6, petersen
    from cyclekit.sweep import sweep

    g = petersen()
    g6 = encode_graph6(g)
    verdicts = check_all(g).verdicts
    lines = []

    def expect(label: str, want_failed: bool, check) -> None:
        gate = Gate()
        gate.attempted = 1
        check(gate)
        if (gate.failed_share > 0) != want_failed:
            raise AssertionError(f"gate self-test: {label}: failed_share={gate.failed_share}")
        lines.append(f"gate self-test: {label}: failed_share = {gate.failed}/{gate.attempted}")

    expect("clean check_all on Petersen", False, lambda gate: gate.check_verdicts("petersen", g, verdicts))

    i = next(i for i, v in enumerate(verdicts) if isinstance(v.witness, CycleCert))
    vs = verdicts[i].witness.vertices
    corrupted = list(verdicts)
    corrupted[i] = dataclasses.replace(verdicts[i], witness=CycleCert(vs[:-1] + vs[:1]))
    expect("corrupted certificate", True, lambda gate: gate.check_verdicts("petersen", g, corrupted))

    forged = list(verdicts)
    forged[0] = dataclasses.replace(verdicts[0], kind="VIOLATED", witness=None)
    expect("forged VIOLATED verdict", True, lambda gate: gate.check_verdicts("petersen", g, forged))

    report = sweep([g])
    rec = next(r for r in report.records if r.witness is not None)
    rec.witness = " ".join(rec.witness.split()[:-1] + rec.witness.split()[:1])
    expect("corrupted sweep witness", True, lambda gate: gate.check_sweep(["petersen"], [g], [g6], report))

    forged_sweep = sweep([g])
    forged_sweep.violated.append((g6, forged[0]))
    expect("forged VIOLATED in a sweep", True,
           lambda gate: gate.check_sweep(["petersen"], [g], [g6], forged_sweep))
    return lines
