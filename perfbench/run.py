"""Layered benchmark for cyclekit.

    python3 perfbench/run.py --workload soundness_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout; cyclekit is imported from ``src/`` of that
checkout.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced replay with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("soundness_mix", "extremal_corpus", "cli_pipeline")
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 120


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="show that the correctness gate catches injected failures, then exit")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cyclekit" / "__init__.py").is_file():
        print(f"error: no cyclekit sources under {ROOT / 'src'}; run from a cyclekit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        import gate

        print("\n".join(gate.self_test()))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_child:
        t0 = perf_counter()
        import workloads

        workloads.make(args.workload, args.seed)
        print(perf_counter() - t0)
        return 0
    return run(args)


# -- measuring ----------------------------------------------------------------


def measure(wl, gate, seconds: float | None = None, passes: int | None = None):
    """Run whole passes until ``seconds`` of wall time have gone, or ``passes`` passes."""
    out = []
    t0 = perf_counter()
    while True:
        out.append(wl.run_pass(len(out), gate))
        if len(out) == passes or (passes is None and perf_counter() - t0 >= seconds):
            return out


def setup_seconds(workload: str, seed: int, calibrator) -> float:
    """Median set-up time over fresh interpreters: import, catalog(), inputs.

    Adds calibration samples between the interpreters to ``calibrator``."""
    times = []
    for _ in range(SETUP_REPEATS):
        calibrator.sample()
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-child", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        times.append(float(res.stdout.split()[-1]))
    calibrator.sample()
    return statistics.median(times)


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(samples)[rank - 1]


def rate(passes, part: str | None = None) -> float:
    """Median over passes of graphs per second, overall or within one part."""
    return statistics.median(p.graphs(part) / p.seconds(part) for p in passes)


def e2e_lines(name: str, scaled, raw) -> list[str]:
    """The workload-specific end-to-end metrics, printed by name with units:
    the value at the reference speed, then the raw measurement."""
    med = statistics.median
    out = []

    def line(label: str, fn, unit: str, note: str) -> None:
        out.append(f"{label} {fn(scaled):.6g} {unit}  [raw {fn(raw):.6g}]  ({note})")

    line("graphs_per_s", rate, "1/s", "median over passes")
    if name == "soundness_mix":
        line("small_graphs_per_s", lambda ps: rate(ps, "small"), "1/s", "n <= 8, median over passes")
        line("large_graphs_per_s", lambda ps: rate(ps, "large"), "1/s", "n >= 12, median over passes")
        line("pooled_graphs_per_s", lambda ps: sum(p.graphs() for p in ps) / sum(p.seconds() for p in ps),
             "1/s", "all graphs over all timed seconds")
    elif name == "extremal_corpus":
        for kind in ("check_all", "solve", "audit"):
            line(f"{kind}_s", lambda ps: med(p.seconds(kind) for p in ps), "s", "per pass, median over passes")
        for label in sorted({t.label for t in raw[0].timed}):
            line(f"  op {label}", lambda ps: med(t.seconds for p in ps for t in p.timed if t.label == label),
                 "s", "median over passes")
    else:
        def lat(ps):
            return [t.seconds * 1e3 for p in ps for t in p.timed]

        n = len(lat(raw))
        line("pipeline_p50_ms", lambda ps: med(lat(ps)), "ms", f"{n} pipelines")
        t = tail(lat(raw))
        if t is None:
            out.append("pipeline_tail_ms n/a (needs more than 10 pipelines)")
        else:
            beyond = n - math.ceil(t[0] * n / 100)
            line("pipeline_tail_ms", lambda ps: tail(lat(ps))[1], "ms", f"p{t[0]} of {n}, {beyond} beyond")
    return out


# -- per-layer metrics from spans -------------------------------------------

# (metric, unit) of the result line: only layers that all three workloads call,
# so no time reads 0 on every run.
PER_LAYER = (
    ("invariants.cut_scan_s", "s/pass"),
    ("invariants.cut_scan_calls", "calls/pass"),
    ("invariants.binding_number_s", "s/pass"),
    ("invariants.other_s", "s/pass"),
    ("invariants.self_s", "s/pass"),
    ("cycles.longest_cycle_s", "s/pass"),
    ("cycles.enumerate_s", "s/pass"),
    ("cycles.enumerate_calls", "calls/pass"),
    ("cycles.self_s", "s/pass"),
    ("structure.is_planar_s", "s/pass"),
    ("structure.contains_induced_s", "s/pass"),
    ("structure.self_s", "s/pass"),
    ("registry.profile_s", "s/pass"),
    ("registry.check_self_s", "s/pass"),
    ("registry.checks", "calls/pass"),
    ("registry.decided_share", "share"),
    ("registry.profiles_per_graph", "count"),
    ("registry.self_s", "s/pass"),
    ("trace.overhead_share", "share"),
)


def layer_values(summ, passes: int, graphs: int, untraced_s: float, traced_s: float) -> dict:
    """Every per-layer figure, printed-only ones included."""
    own = summ.self
    checks = summ.calls.get("registry.check", 0)
    v = {
        "invariants.cut_scan_s": own.get("invariants.cut_scan", 0.0) / passes,
        "invariants.cut_scan_calls": summ.calls.get("invariants.cut_scan", 0) / passes,
        "invariants.binding_number_s": own.get("invariants.binding_number", 0.0) / passes,
        "invariants.other_s": own.get("invariants.other", 0.0) / passes,
        "cycles.longest_cycle_s": own.get("cycles.longest_cycle", 0.0) / passes,
        "cycles.enumerate_s": own.get("cycles.enumerate", 0.0) / passes,
        "cycles.enumerate_calls": summ.calls.get("cycles.enumerate", 0) / passes,
        "cycles.longest_path_s": own.get("cycles.longest_path", 0.0) / passes,
        "structure.is_planar_s": own.get("structure.is_planar", 0.0) / passes,
        "structure.contains_induced_s": own.get("structure.contains_induced", 0.0) / passes,
        "registry.profile_s": summ.incl.get("registry.profile", 0.0) / passes,
        "registry.check_self_s": own.get("registry.check", 0.0) / passes,
        "registry.checks": checks / passes,
        "registry.decided_share": summ.counts.get("registry.holds", 0) / checks if checks else 0.0,
        "registry.profiles_per_graph": summ.counts.get("registry.profiles", 0) / graphs,
        "registry.audit_s": summ.incl.get("registry.audit", 0.0) / passes,
        "formats.graph6_s": own.get("formats.graph6", 0.0) / passes,
        "trace.overhead_s": (traced_s - untraced_s) / passes,
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
    }
    from tracing import MODULES

    for module in MODULES:
        v[f"{module}.self_s"] = summ.module_self(module) / passes
    return v


def write_spans(name: str, seed: int, processes: list[tuple[str, list]]) -> Path:
    """Write every recorded span to perfbench/out/ as gzipped JSON."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{name}-seed{seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump({"workload": name, "seed": seed, "span_fields": ["name", "start", "end", "parent", "nested"],
                   "processes": [{"label": label, "spans": spans} for label, spans in processes]}, fh)
    return path


# -- one run ------------------------------------------------------------------


def run(args) -> int:
    import gate as gates
    import workloads

    wl = workloads.make(args.workload, args.seed)
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    lines += gates.self_test()
    lines.append(f"input_digest {wl.digest()}")
    gate = gates.Gate()

    if args.trace == 0:
        t0 = perf_counter()
        raw = measure(wl, gate, seconds=args.seconds)
        wall = perf_counter() - t0
        cal = wl.calibrator
        cal.sample()
        passes = [p.scaled(cal, wl.local_scaling) for p in raw]
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_pipeline" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024
        setup_raw = setup_seconds(args.workload, args.seed, cal)
        setup_s = setup_raw / cal.factor
        wl.final_checks(gate)
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "graphs_per_s": (rate(passes), "1/s"),
        }
        lines.append(f"passes {len(raw)}  graphs {sum(p.graphs() for p in raw)}  "
                     f"timed {sum(p.seconds() for p in raw):.2f} s  wall {wall:.2f} s")
        lines.append(f"speed_factor {cal.factor:.4f}  (median of {len(cal.samples)} calibration samples "
                     f"{cal.factor * workloads.CALIBRATION_REFERENCE_S * 1e3:.2f} ms, "
                     f"reference {workloads.CALIBRATION_REFERENCE_S * 1e3:.2f} ms)")
        lines.append(f"setup_s {setup_s:.6g} s  [raw {setup_raw:.6g}]  "
                     f"(median of {SETUP_REPEATS} fresh interpreters, divided by speed_factor)")
        lines.append(f"peak_rss_mb {rss_mb:.6g} MB")
        lines += e2e_lines(args.workload, passes, raw)
        correct = True
    else:
        import tracing

        untraced = measure(wl, gate, seconds=args.seconds / 2)
        replay_gate = gates.Gate()
        tr = tracing.Tracer()
        wl.tracer = tr
        with tr:
            traced = measure(wl, replay_gate, passes=len(untraced))
        wl.tracer = None
        cal = wl.calibrator
        cal.sample()
        untraced, traced = ([p.scaled(cal, wl.local_scaling) for p in ps] for ps in (untraced, traced))
        untraced_s = sum(p.seconds() for p in untraced)
        traced_s = sum(p.seconds() for p in traced)
        correct = ([p.outcome for p in untraced] == [p.outcome for p in traced]
                   and (gate.attempted, gate.failed) == (replay_gate.attempted, replay_gate.failed))
        summ = tracing.Summary()
        summ.add(tr.spans, tr.calls, tr.counts)
        processes = [("benchmark process", tr.spans)]
        for label, dump in wl.child_traces:
            summ.add(dump["spans"], dump["calls"], dump["counts"])
            processes.append((label, dump["spans"]))
        k = len(traced)
        values = layer_values(summ, k, sum(p.graphs() for p in traced), untraced_s, traced_s)
        if args.workload == "cli_pipeline":
            values["cli.startup_ms"] = wl.startup_ms()
            values["cli.check_ms"] = wl.check_ms()
        wl.final_checks(gate)
        path = write_spans(args.workload, args.seed, processes)
        lines.append(f"traced replay of {k} passes: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
                     f"overhead {traced_s - untraced_s:+.3f} s ({values['trace.overhead_share']:+.2%}); "
                     f"{summ.spans} spans written to {path.relative_to(ROOT)}")
        lines.append("verdict tallies and counters of the replay "
                     + ("equal the untraced run" if correct else "DIFFER from the untraced run"))
        lines.append("per-module self time (s/pass):  "
                     + "  ".join(f"{m} {values[f'{m}.self_s']:.4f}" for m in tracing.MODULES))
        lines.append("calls per pass:  " + "  ".join(
            f"{name} {n / k:.1f}" for name, n in sorted(summ.calls.items()) if n))
        lines += [f"{name} {val:.6g}" for name, val in sorted(values.items())]
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}

    lines.append(f"failed_share {gate.failed}/{gate.attempted} = {gate.failed_share:.6g}")
    for op, reason in list(gate.failures.items())[:20]:
        lines.append(f"  FAILED {op}: {reason}")
    print("\n".join(lines))
    result = {
        "correct": correct and gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
