"""The package's public names, the modules each process loads, and the
demos and README's library tour that use both.

``cyclekit`` re-exports its names lazily and the CLI imports every module
but ``formats`` and ``graph`` inside the subcommands that use it; the
catalog imports ``families`` only when an audit first builds a graph, so
``construct`` loads no ``registry`` and ``check`` neither ``families`` nor
``sweep``.  No module creates a
dataclass but ``registry.Verdict``.  These tests run in fresh
interpreters, since what a process has imported depends on everything it
imported before.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cyclekit

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(cyclekit.__file__).resolve().parents[1])

# every public name ``cyclekit`` exported when its ``__init__`` imported
# each submodule eagerly
EXPORTED = (
    "ASSERTABLE_CLASSES", "CaseResult", "CeilingError", "CertificateError", "CycleCert",
    "ENUMERATION_CEILING", "Exact", "FAMILIES", "FormatError", "Graph", "GraphError", "INF",
    "InvariantReport", "KuratowskiCert", "LongestCycles", "PathCert", "Profile", "Report",
    "RotationCert", "SUPPORTED_CLASSES", "TheoremSpec", "Verdict", "all_longest_cycles",
    "audit_sharpness", "binding_number", "build", "catalog", "check", "check_all",
    "circumference", "class_predicates", "claw", "complement", "complete", "complete_bipartite",
    "connectivity", "contains_induced", "cut_scan", "cycle_graph", "cycles_of_length", "delta_t",
    "disjoint_union", "edgeless", "encode_graph6", "every_longest_cycle_satisfies",
    "exists_cycle_satisfying", "fmt_exact", "from_edge_list", "get", "hamiltonian",
    "independence_number", "induced_subgraph", "invariant_report", "is_CD_cycle", "is_PD_cycle",
    "is_dominating_cycle", "is_free", "is_planar", "join", "list_families", "longest_path",
    "net", "parse_any", "parse_dimacs", "parse_edge_list", "parse_exact", "parse_graph6",
    "path_graph", "pattern", "petersen", "planarity_certificate", "residual_params", "sigma_t",
    "toughness",
)
# the submodules that importing the eager package bound as its attributes
SUBMODULES = ("cycles", "exact", "families", "formats", "graph", "invariants", "registry",
              "structure")


def python(*args: str, stdin: str = "") -> subprocess.CompletedProcess:
    """A fresh interpreter that imports cyclekit from this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def fresh(code: str):
    """Run ``code`` in a fresh interpreter and return the JSON it prints last."""
    return json.loads(python("-c", code).stdout.splitlines()[-1])


# -- public names --------------------------------------------------------------


def test_every_exported_name_resolves_to_one_object_both_ways():
    names = json.dumps(EXPORTED)
    for first in ("from", "attribute"):
        same = fresh(f"""
import json, sys
import cyclekit
names = {names}
ns = {{}}
if {first == "from"}:
    for name in names:
        exec(f"from cyclekit import {{name}}", ns)
got = [getattr(cyclekit, name) for name in names]
for name in names:
    exec(f"from cyclekit import {{name}}", ns)
mods = {{m: getattr(cyclekit, m) is sys.modules["cyclekit." + m] for m in {list(SUBMODULES)}}}
print(json.dumps([[n for n, v in zip(names, got) if ns[n] is not v], mods]))
""")
        assert same == [[], {m: True for m in SUBMODULES}], first


def test_dir_lists_every_exported_name_and_the_version_is_unchanged():
    listed, version = fresh("import json, cyclekit\n"
                            "print(json.dumps([dir(cyclekit), cyclekit.__version__]))")
    assert set(EXPORTED) | set(SUBMODULES) <= set(listed)
    assert version == "0.1.0"
    assert sorted(cyclekit.__all__) == sorted(EXPORTED)


def test_catalog_stays_the_function_in_every_import_order():
    is_function = "print(json.dumps(callable(cyclekit.catalog) and len(cyclekit.catalog()) == 82))"
    for before in (
        "import cyclekit.catalog, cyclekit",
        "import cyclekit; import cyclekit.catalog",
        "from cyclekit.catalog import get; import cyclekit",
        "from cyclekit import cli; cli.main(['catalog'])",
    ):
        assert fresh(f"import json\n{before}\nimport cyclekit\n{is_function}") is True, before
    assert fresh("import json\nimport cyclekit.catalog as m\nprint(json.dumps(callable(m)))") is True
    # and in this process, whatever ran before
    assert cyclekit.catalog is sys.modules["cyclekit.catalog"].catalog


def test_check_subcommand_leaves_catalog_the_function():
    assert fresh("""
import io, json, sys, contextlib
import cyclekit
from cyclekit import cli
sys.stdin = io.StringIO("IheA@GUAo\\n")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["check"])
print(json.dumps([code, callable(cyclekit.catalog)]))
""") == [0, True]


def test_no_private_name_is_imported_across_modules():
    """A module imports only public names from its siblings.  The one
    exception is ``registry``'s ``_longest_cycle``, which ``registry`` no
    longer calls: it is only the benchmark tracer's patch target there."""
    imported = set()
    for path in sorted(Path(SRC, "cyclekit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported |= {(path.stem, alias.name) for alias in node.names
                             if alias.name.startswith("_")}
    assert imported == {("registry", "_longest_cycle")}


def test_no_dead_helper():
    """Every top-level function and class of the package, and every method,
    is referenced by name (or by a string, as the lazy exports and the class
    predicates are) somewhere in the source, tests, demos or benchmark."""
    defined = set()
    for path in Path(SRC, "cyclekit").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined |= {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
    used = set()
    for top in ("src", "tests", "demos", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    assert {name for name in defined - used if not re.fullmatch(r"__\w+__", name)} == set()


# -- modules each process loads ------------------------------------------------


def loaded_by(*argv: str, stdin: str = "") -> set[str]:
    """The modules a ``cyclekit`` process imports, read from ``-X
    importtime``; the command module itself runs as ``__main__``."""
    err = python("-X", "importtime", "-m", "cyclekit.cli", *argv, stdin=stdin).stderr
    return set(re.findall(r"\|\s*([\w.]+)\s*$", err, re.M))


def test_construct_loads_only_the_graph_code():
    loaded = loaded_by("construct", "petersen")
    assert {m for m in loaded if m.split(".")[0] == "cyclekit"} == {
        "cyclekit", "cyclekit.graph", "cyclekit.formats", "cyclekit.families"}
    assert not loaded & {"dataclasses", "fractions", "ast", "inspect"}


def test_solve_and_free_load_no_theorem_code():
    # C_6 is hamiltonian, so the cycle search needs none of its cuts
    loaded = loaded_by("solve", "circumference", stdin="EhEG\n")
    assert "cyclekit.cycles" in loaded
    assert not loaded & {"cyclekit.registry", "cyclekit.invariants", "cyclekit.structure",
                         "cyclekit.catalog"}
    loaded = loaded_by("free", "--patterns", "claw", stdin="IheA@GUAo\n")
    assert "cyclekit.structure" in loaded
    assert not loaded & {"cyclekit.registry", "cyclekit.catalog"}


def test_check_loads_neither_families_nor_sweep():
    loaded = loaded_by("check", "--json", stdin="IheA@GUAo\n")
    assert "cyclekit.catalog" in loaded
    assert not loaded & {"cyclekit.families", "cyclekit.sweep"}


def test_verdict_is_the_only_dataclass():
    """Creating a dataclass costs about ten times a NamedTuple, in every
    process that imports it, so records are NamedTuples or plain classes.
    ``Verdict`` stays a dataclass because ``perfbench/gate.py`` forges
    verdicts with ``dataclasses.replace``."""
    assert fresh("""
import importlib, json, pkgutil, sys
import cyclekit
for mod in pkgutil.iter_modules(cyclekit.__path__):
    importlib.import_module("cyclekit." + mod.name)
print(json.dumps(sorted(f"{name}.{cls.__name__}" for name, module in sys.modules.items()
                        if name.startswith("cyclekit.") for cls in vars(module).values()
                        if isinstance(cls, type) and cls.__module__ == name
                        and "__dataclass_fields__" in vars(cls))))
""") == ["cyclekit.registry.Verdict"]


def test_catalog_compiles_no_label():
    """Premise and bound labels compile on first use, so a process pays only
    for the ones its checks reach."""
    assert fresh("""
import inspect, json
from cyclekit.catalog import catalog

def parts(c):
    for inner in (getattr(c, "first", None), getattr(c, "second", None), getattr(c, "inner", None)):
        if inner is not None:
            yield from parts(inner)
    yield c

compiled = []
for spec in catalog():
    objs = list(spec.premises) + list(parts(spec.conclusion))
    relaxed = (inspect.getclosurevars(case.run).nonlocals.get("relaxed") for case in spec.sharpness)
    objs += [r for r in relaxed if r is not None]
    compiled += [[spec.id, o.label] for o in objs if {"fn", "expr", "bound"} & set(vars(o))]
print(json.dumps(compiled))
""") == []


def test_bare_import_loads_no_submodule():
    assert fresh("import json, sys, cyclekit\n"
                 "print(json.dumps([m for m in sys.modules if m.startswith('cyclekit.')]))") == []


def test_the_tracer_patches_and_counts_the_lazily_loaded_cli(monkeypatch):
    """``cli`` serves ``check`` from its module ``__getattr__``.  The
    benchmark tracer still finds every name it patches there right after
    ``import cyclekit.cli``, counts each ``registry.check`` call once, in
    process and in its traced children, and a ``check`` run after the
    tracer exits adds no span and no call to it."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import load_from_child

    script = str(ROOT / "perfbench" / "tracing.py")
    patched, traced, after = fresh(f"""
import contextlib, io, json, sys
from cyclekit import cli
sys.path.insert(0, {str(ROOT / 'perfbench')!r})
import tracing

def run_check():
    sys.stdin = io.StringIO("IheA@GUAo\\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", "--json"]) == 0

with tracing.Tracer() as tr:
    patched = sorted(attr for owner, attr, _ in tr._patches if owner is cli)
    run_check()
traced = [len(tr.spans), tr.calls["registry.check"]]
run_check()
print(json.dumps([patched, traced, [len(tr.spans), tr.calls["registry.check"]]]))
""")
    assert "main" in patched and "check" in patched
    assert traced[1] == 82 and after == traced
    names = json.dumps(patched)
    assert fresh(f"import json\nimport cyclekit.cli as cli\n"
                 f"print(json.dumps([n for n in {names} if not hasattr(cli, n)]))") == []
    child = python(script, "check", "--json", stdin="IheA@GUAo\n")
    assert load_from_child(child.stderr)["calls"]["registry.check"] == 82
    child = python(script, "construct", "petersen")
    assert child.stdout == "IheA@GUAo\n"
    assert load_from_child(child.stderr)["calls"]["cli.main"] == 1


# -- demos and the library tour ------------------------------------------------


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    assert python(str(ROOT / "demos" / demo)).stdout


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    python("-c", re.search(r"## Library tour\s+```python\n(.*?)```", readme, re.S).group(1))
