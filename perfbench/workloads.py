"""The three workloads: inputs made from the seed, one pass of timed calls,
and the untimed correctness checks.

Every workload runs in passes.  A pass is a fixed list of operations
that depends only on the seed and the pass index, so a traced replay of
the first k passes makes the same calls in the same order as the
untraced run did.  Only the calls into cyclekit are timed; gate checks
between them are not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from cyclekit import catalog, cli, cycles, registry, sweep
from cyclekit.families import build
from cyclekit.formats import encode_graph6
from cyclekit.graph import Graph, cycle_graph, from_edge_list, petersen, power

from gate import Gate, oracle_kappa_alpha
from tracing import load_from_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Median time of calibration_kernel() on the reference machine (2 vCPUs,
# Python 3.11.7); it only scales reported rates and times to that speed.
CALIBRATION_REFERENCE_S = 0.0125


def calibration_kernel(reps: int = 4500) -> int:
    """Fixed pure-Python work shaped like cyclekit's kernels: breadth-first
    closures over bitmask rows of a 16-vertex circulant.  It belongs to the
    benchmark, so no change to cyclekit can move it."""
    rows = [(1 << (v + 1) % 16) | (1 << (v - 1) % 16) | (1 << (v + 5) % 16) for v in range(16)]
    total = 0
    for r in range(reps):
        seen = frontier = 1 << r % 16
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= rows[low.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
        total += seen.bit_count()
    return total


class Calibrator:
    """Samples the calibration kernel between timed operations.

    The machine's speed drifts by tens of percent within minutes; it moves
    the kernel and cyclekit alike.  A speed factor is kernel time over the
    reference time, above 1 on a slow machine; dividing a call's time by
    the factor around it gives its time at the reference speed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the kernel once; return the sample's index."""
        t0 = perf_counter()
        calibration_kernel()
        self.samples.append(perf_counter() - t0)
        return len(self.samples) - 1

    @property
    def factor(self) -> float:
        return statistics.median(self.samples) / CALIBRATION_REFERENCE_S

    def local_factor(self, i: int) -> float:
        """Speed factor around a call: the mean of the samples just before and
        just after it, over the reference time."""
        around = self.samples[i:i + 2]
        return sum(around) / len(around) / CALIBRATION_REFERENCE_S


@dataclass
class Timed:
    """One timed call: ``cal`` is the calibration sample taken just before it."""

    part: str
    label: str
    seconds: float
    graphs: int
    cal: int


@dataclass
class Pass:
    """The timed calls of one pass; ``outcome`` is compared between the
    untraced run and its traced replay."""

    timed: list[Timed] = field(default_factory=list)
    outcome: list = field(default_factory=list)

    def add(self, part: str, label: str, seconds: float, graphs: int, cal: int) -> None:
        self.timed.append(Timed(part, label, seconds, graphs, cal))

    def seconds(self, part: str | None = None) -> float:
        return sum(t.seconds for t in self.timed if part in (None, t.part))

    def graphs(self, part: str | None = None) -> int:
        return sum(t.graphs for t in self.timed if part in (None, t.part))

    def scaled(self, calibrator: "Calibrator", local: bool) -> "Pass":
        """The same pass with every call's time scaled to the reference speed,
        by the factor around each call or by the run's factor."""
        timed = [replace(t, seconds=t.seconds / (calibrator.local_factor(t.cal) if local else calibrator.factor))
                 for t in self.timed]
        return Pass(timed, self.outcome)


def _report_exception(op, exc: BaseException) -> None:
    print(f"operation {op} raised:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


class Workload:
    """Inputs made from the seed in set-up, then passes of timed calls."""

    name = ""
    # Scale each call by the calibration samples just around it, rather than
    # by the median of all the run's samples.
    local_scaling = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.specs = catalog()
        self.tracer = None  # set by the runner around the traced replay
        self.calibrator = Calibrator()
        self.child_traces: list[tuple[str, dict]] = []  # spans sent back by traced child processes

    def paused(self):
        """Context in which gate checks run without adding spans."""
        return contextlib.nullcontext() if self.tracer is None else self.tracer.pause()

    def describe(self) -> list[str]:
        raise NotImplementedError

    def digest(self) -> str:
        """SHA-256 of the ordered input list, comparable across runs and commits."""
        return "sha256:" + hashlib.sha256("\n".join(self.describe()).encode()).hexdigest()

    def run_pass(self, i: int, gate: Gate) -> Pass:
        raise NotImplementedError

    def final_checks(self, gate: Gate) -> None:
        """Untimed checks that need an oracle; run once after measuring."""


# -- soundness_mix ------------------------------------------------------------

LABELLED_PER_PASS = 24
CELLS = [(n, p) for n in range(7, 15) for p in (0.2, 0.5, 0.8)]
BANDS = (("small", range(0, 9)), ("mid", range(9, 12)), ("large", range(12, 65)))
SOUNDNESS_PASSES = 128
_PAIRS6 = list(itertools.combinations(range(6), 2))


def labelled6(code: int) -> Graph:
    """The labelled 6-vertex graph whose edge set is the 15-bit ``code``."""
    rows = [0] * 6
    for i, (u, v) in enumerate(_PAIRS6):
        if code >> i & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(6, tuple(rows))


def gnp(rng: random.Random, n: int, p: float) -> Graph:
    """G(n,p) drawn from the benchmark's own RNG, independent of cyclekit.sweep."""
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


class SoundnessMix(Workload):
    """Criterion-1 corpus slice through ``sweep.sweep``, one sweep per size band.

    A pass holds 24 uniformly drawn labelled 6-vertex graphs and one
    G(n,p) per cell n = 7..14, p in {0.2, 0.5, 0.8}, so every pass has the
    same size mix.  128 passes are drawn in set-up; a run longer than
    that starts over from the first.
    """

    name = "soundness_mix"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(f"{self.name}/{seed}")
        self.passes = []
        for _ in range(SOUNDNESS_PASSES):
            graphs = [labelled6(rng.getrandbits(15)) for _ in range(LABELLED_PER_PASS)]
            graphs += [gnp(rng, n, p) for n, p in CELLS]
            bands = []
            for band, sizes in BANDS:
                members = [g for g in graphs if g.n in sizes]
                bands.append((band, members, [encode_graph6(g) for g in members]))
            self.passes.append(bands)

    def describe(self) -> list[str]:
        return [g6 for bands in self.passes for _, _, encoded in bands for g6 in encoded]

    def run_pass(self, i: int, gate: Gate) -> Pass:
        out = Pass()
        for band, graphs, encoded in self.passes[i % SOUNDNESS_PASSES]:
            ops = [(i, band, j) for j in range(len(graphs))]
            gate.attempted += len(graphs)
            cal = self.calibrator.sample()
            t0 = perf_counter()
            try:
                report = sweep.sweep(graphs, self.specs)
            except Exception as exc:
                out.add(band, band, perf_counter() - t0, len(graphs), cal)
                _report_exception(ops, exc)
                for op in ops:
                    gate.fail(op, f"exception: {exc!r}")
                out.outcome.append((band, "exception", repr(exc)))
                continue
            out.add(band, band, perf_counter() - t0, len(graphs), cal)
            gate.check_sweep(ops, graphs, encoded, report)
            tallies = tuple(
                (tid, t.holds, t.vacuous, t.inapplicable, t.ceiling, t.violated)
                for tid, t in report.tallies.items()
            )
            out.outcome.append((band, tallies, len(report.records)))
        return out

    def final_checks(self, gate: Gate) -> None:
        """kappa and alpha of every graph of the first pass against networkx."""
        for band, graphs, encoded in self.passes[0]:
            for j, g in enumerate(graphs):
                pf = registry.Profile(g)
                got = (pf.kappa, pf.alpha)
                want = oracle_kappa_alpha(g)
                if got != want:
                    gate.fail((0, band, j), f"{encoded[j]}: (kappa, alpha) = {got}, networkx {want}")


# -- extremal_corpus ----------------------------------------------------------

KNOWN_CIRCUMFERENCE = {"Petersen": 9, "K_{6,7}": 12, "moon-moser-cut quarter=6": 12}
EXTREMAL_DESCRIBED_PASSES = 8


class ExtremalCorpus(Workload):
    """Named graphs that each isolate one mechanism, plus every sharpness audit.

    Operations run in an order shuffled per pass from the seed; the
    graphs themselves are fixed.
    """

    name = "extremal_corpus"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.ops = [
            ("check_all", "Petersen", petersen()),
            ("check_all", "K_{5,6}", build("Kdd1", delta=5)),
            ("check_all", "C_12^2", power(cycle_graph(12), 2)),
            ("check_all", "C_20^4", power(cycle_graph(20), 4)),
            ("check_all", "2K_6+K_1", build("join2Kd-K1", delta=6)),
            ("check_all", "H(1,2,4,3)", build("H", a=1, b=2, t=4, k=3)),
            ("solve", "K_{6,7}", build("Kdd1", delta=6)),
            ("solve", "moon-moser-cut quarter=6", build("moon-moser-cut", quarter=6)),
        ]
        self.ops += [("audit", spec.id, spec) for spec in self.specs if spec.sharpness]
        self.keys = [
            f"{kind} {label} {obj.id if kind == 'audit' else encode_graph6(obj)}"
            for kind, label, obj in self.ops
        ]

    def order(self, i: int) -> list[int]:
        order = list(range(len(self.ops)))
        random.Random(f"{self.name}/{self.seed}/{i}").shuffle(order)
        return order

    def describe(self) -> list[str]:
        return [self.keys[k] for i in range(EXTREMAL_DESCRIBED_PASSES) for k in self.order(i)]

    def run_pass(self, i: int, gate: Gate) -> Pass:
        out = Pass()
        for k in self.order(i):
            kind, label, obj = self.ops[k]
            op = (i, k)
            gate.attempted += 1
            cal = self.calibrator.sample()
            t0 = perf_counter()
            try:
                if kind == "check_all":
                    pf = registry.Profile(obj)
                    result = registry.check_all(pf)
                elif kind == "solve":
                    result = cycles.circumference(obj)
                else:
                    result = registry.audit_sharpness(obj)
            except Exception as exc:
                out.add(kind, label, perf_counter() - t0, 1, cal)
                _report_exception(label, exc)
                gate.fail(op, f"{label}: exception {exc!r}")
                out.outcome.append((k, "exception", repr(exc)))
                continue
            out.add(kind, label, perf_counter() - t0, len(result) if kind == "audit" else 1, cal)
            with self.paused():
                if kind == "check_all":
                    gate.check_verdicts(op, obj, result.verdicts)
                    if label in KNOWN_CIRCUMFERENCE and pf.c != KNOWN_CIRCUMFERENCE[label]:
                        gate.fail(op, f"{label}: c = {pf.c}, known {KNOWN_CIRCUMFERENCE[label]}")
                    out.outcome.append((k, tuple(v.kind for v in result.verdicts)))
                elif kind == "solve":
                    c, cert = result
                    gate.check_witness(op, obj, cert)
                    if cert.length != c or c != KNOWN_CIRCUMFERENCE[label]:
                        gate.fail(op, f"{label}: c = {c} (cycle of {cert.length}), known {KNOWN_CIRCUMFERENCE[label]}")
                    out.outcome.append((k, c))
                else:
                    for r in result:
                        if not r.passed:
                            gate.fail(op, f"{label} [{r.case}] {r.graph_label}: {r.detail}")
                    out.outcome.append((k, tuple((r.case, r.graph_label, r.passed) for r in result)))
        return out


# -- cli_pipeline -------------------------------------------------------------

CLI_FAMILIES = [
    ("petersen", {}),
    ("Kdd1", {"delta": 4}),
    ("join2Kd-K1", {"delta": 4}),
    ("H", {"a": 1, "b": 2, "t": 4, "k": 3}),
    ("L", {"delta": 3}),
    ("theta", {"i": 3, "j": 4, "k": 5}),
]
CLI_DESCRIBED_ROUNDS = 64
PIPELINE_TIMEOUT_S = 120


def program_env() -> dict[str, str]:
    """Environment in which child interpreters import cyclekit from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class CliPipeline(Workload):
    """One closed-loop client running ``construct <family> | check --json``.

    Each pass runs every family once, in an order shuffled per pass from
    the seed; at most the two processes of one pipeline are alive.
    """

    name = "cli_pipeline"
    # Pipeline latency is mostly process start-up.  The few kernel samples
    # around one pipeline do not track it (scaling by them doubled the
    # spread); the median of the whole run's samples does.
    local_scaling = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.env = program_env()
        self.graphs = [build(fam, **params) for fam, params in CLI_FAMILIES]
        self.encoded = [encode_graph6(g) for g in self.graphs]
        self.seen: dict[tuple[int, int], list[tuple[str, str]]] = {}

    def order(self, i: int) -> list[int]:
        order = list(range(len(CLI_FAMILIES)))
        random.Random(f"{self.name}/{self.seed}/{i}").shuffle(order)
        return order

    def describe(self) -> list[str]:
        return [self.encoded[k] for i in range(CLI_DESCRIBED_ROUNDS) for k in self.order(i)]

    def command(self) -> list[str]:
        if self.tracer is None:
            return [sys.executable, "-m", "cyclekit.cli"]
        return [sys.executable, str(HERE / "tracing.py")]

    def run_pass(self, i: int, gate: Gate) -> Pass:
        out = Pass()
        for k in self.order(i):
            fam, params = CLI_FAMILIES[k]
            argv = [fam] + [x for key, val in params.items() for x in (f"--{key}", str(val))]
            op = (i, k)
            gate.attempted += 1
            cal = self.calibrator.sample()
            t0 = perf_counter()
            codes, stdout, errs = self._pipeline(argv)
            out.add("pipeline", fam, perf_counter() - t0, 1, cal)
            if codes != (0, 0):
                gate.fail(op, f"construct {' '.join(argv)} | check --json exited {codes}: {errs[1][-500:]}")
            try:
                recs = [json.loads(line) for line in stdout.splitlines() if line.strip()]
                kinds = [(r["theorem"], r["verdict"]) for r in recs]
                if any(r["graph6"] != self.encoded[k] for r in recs):
                    gate.fail(op, f"{fam}: pipeline graph6 differs from in-process build")
            except (ValueError, KeyError) as exc:
                gate.fail(op, f"{fam}: unreadable check output: {exc!r}")
                kinds = []
            self.seen[op] = kinds
            out.outcome.append((k, codes, tuple(kinds)))
            if self.tracer is not None:
                for side, err in zip(("construct", "check"), errs):
                    dump = load_from_child(err)
                    if dump is None:
                        gate.fail(op, f"{fam}: traced {side} process left no spans")
                    else:
                        self.child_traces.append((f"pass {i} {fam} {side}", dump))
        return out

    def _pipeline(self, argv: list[str]) -> tuple[tuple[int, int], str, tuple[str, str]]:
        cmd = self.command()
        kw = dict(cwd=ROOT, env=self.env, stderr=subprocess.PIPE, text=True)
        producer = subprocess.Popen(cmd + ["construct"] + argv, stdout=subprocess.PIPE, **kw)
        try:
            consumer = subprocess.Popen(cmd + ["check", "--json"], stdin=producer.stdout,
                                        stdout=subprocess.PIPE, **kw)
        except BaseException:
            producer.kill()
            producer.wait()
            raise
        producer.stdout.close()
        try:
            stdout, check_err = consumer.communicate(timeout=PIPELINE_TIMEOUT_S)
            construct_err = producer.stderr.read()
            producer.wait(timeout=PIPELINE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stdout, check_err, construct_err = "", "timeout", ""
        finally:
            for proc in (consumer, producer):
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            producer.stderr.close()
        return (producer.returncode, consumer.returncode), stdout, (construct_err, check_err)

    def final_checks(self, gate: Gate) -> None:
        """Every pipeline's verdict kinds against in-process ``check_all``."""
        want = [[(v.theorem_id, v.kind) for v in registry.check_all(g).verdicts] for g in self.graphs]
        for (i, k), kinds in self.seen.items():
            if kinds != want[k]:
                diff = next((a, b) for a, b in itertools.zip_longest(kinds, want[k]) if a != b)
                gate.fail((i, k), f"{CLI_FAMILIES[k][0]}: pipeline says {diff[0]}, check_all says {diff[1]}")

    def startup_ms(self, repeats: int = 5) -> float:
        """Median wall time of an interpreter that imports cyclekit.cli and exits."""
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "import cyclekit.cli"], cwd=ROOT, env=self.env,
                           check=True, timeout=PIPELINE_TIMEOUT_S)
            times.append((perf_counter() - t0) * 1e3)
        return sorted(times)[len(times) // 2]

    def check_ms(self, repeats: int = 3) -> float:
        """Median over repeats of the mean in-process ``cli.main(["check", "--json"])``
        time per family graph."""
        rounds = []
        saved = sys.stdin
        try:
            for _ in range(repeats):
                total = 0.0
                for g6 in self.encoded:
                    sys.stdin = io.StringIO(g6 + "\n")
                    with contextlib.redirect_stdout(io.StringIO()):
                        t0 = perf_counter()
                        code = cli.main(["check", "--json"])
                        total += perf_counter() - t0
                    if code != 0:
                        raise RuntimeError(f"in-process check on {g6} exited {code}")
                rounds.append(total / len(self.encoded) * 1e3)
        finally:
            sys.stdin = saved
        return sorted(rounds)[len(rounds) // 2]


WORKLOADS = {cls.name: cls for cls in (SoundnessMix, ExtremalCorpus, CliPipeline)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
