"""The benchmark's span tracer still finds every name it patches.

``perfbench/tracing.py`` wraps cyclekit functions by module attribute, so
renaming one of them breaks ``perfbench/run.py --trace 1``; this test
makes such a rename fail here first.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from cyclekit import cli, cycles, registry, sweep  # noqa: E402
from cyclekit.catalog import catalog  # noqa: E402
from cyclekit.families import build  # noqa: E402
from cyclekit.graph import petersen  # noqa: E402
from cyclekit.registry import Bound, TheoremSpec  # noqa: E402
from conftest import mixed_corpus, sweep_outcome  # noqa: E402


def test_tracer_records_spans_and_restores_patches():
    owners = (cli, cycles, registry, sweep, registry.Profile)
    before = {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}
    tr = tracing.Tracer()
    with tr:
        assert registry.check is not before[registry, "check"]
        registry.check_all(petersen())
    names = {span[0] for span in tr.spans}
    assert {"cycles.longest_cycle", "registry.check"} <= names
    # K_{5,6} is not hamiltonian, so its longest cycles are enumerated
    with tracing.Tracer() as tr2:
        registry.check_all(build("Kdd1", delta=5))
    assert "cycles.enumerate" in {span[0] for span in tr2.spans}
    assert tr2.calls["cycles.enumerate"] > 0
    changed = [attr for (owner, attr), value in before.items() if vars(owner).get(attr) is not value]
    assert changed == []


def test_a_traced_sweep_reports_what_an_untraced_one_does():
    # ``run.py --trace 1`` replays soundness_mix's sweeps under the tracer.
    # A sweep builds a Verdict through ``sweep.check`` only for a VIOLATED
    # verdict, so a forged bound that fails everywhere makes those calls.
    forged = TheoremSpec("false", "forged", "c >= n+1", Bound("n+1"))
    graphs = mixed_corpus(seed=41, per_cell=2, ns=range(3, 11)) + [petersen()]
    specs = catalog() + [forged]
    plain = sweep_outcome(sweep.sweep(graphs, specs))
    with tracing.Tracer() as tr:
        traced = sweep_outcome(sweep.sweep(graphs, specs))
    assert traced == plain
    assert {"sweep.sweep", "registry.check", "formats.graph6"} <= {span[0] for span in tr.spans}
    assert tr.calls["registry.check"] == len(plain[2]) == len(graphs)
    assert tr.calls["formats.graph6"] == len(graphs)
