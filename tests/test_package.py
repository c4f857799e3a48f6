"""The package's public names, the modules each process loads, and the
demos and README's library tour that use both.

``cyclekit`` re-exports its names lazily and the CLI imports ``catalog``,
``families`` and ``sweep`` inside the subcommands that use them.  These
tests run in fresh interpreters, since what a process has imported
depends on everything it imported before.
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
    exception is ``registry``'s ``_longest_cycle``, which the benchmark's
    tracer patches there under that name."""
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
    """The cyclekit modules a ``cyclekit`` process imports, read from
    ``-X importtime``; the command module itself runs as ``__main__``."""
    err = python("-X", "importtime", "-m", "cyclekit.cli", *argv, stdin=stdin).stderr
    return set(re.findall(r"\|\s*(cyclekit(?:\.\w+)*)\s*$", err, re.M))


def test_construct_loads_neither_catalog_nor_sweep():
    loaded = loaded_by("construct", "petersen")
    assert "cyclekit.families" in loaded
    assert not loaded & {"cyclekit.catalog", "cyclekit.sweep"}


def test_check_does_not_load_sweep():
    loaded = loaded_by("check", "--json", stdin="IheA@GUAo\n")
    assert "cyclekit.catalog" in loaded
    assert "cyclekit.sweep" not in loaded


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


def test_cli_has_every_attribute_the_tracer_patches_right_after_import():
    missing, patched = fresh(f"""
import json, sys
import cyclekit.cli as cli
before = set(vars(cli))
sys.path.insert(0, {str(ROOT / 'perfbench')!r})
import tracing
with tracing.Tracer() as tr:
    patched = sorted(attr for owner, attr, _ in tr._patches if owner is cli)
print(json.dumps([sorted(set(patched) - before), patched]))
""")
    assert missing == []
    assert "main" in patched and "check" in patched


# -- demos and the library tour ------------------------------------------------


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    assert python(str(ROOT / "demos" / demo)).stdout


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    python("-c", re.search(r"## Library tour\s+```python\n(.*?)```", readme, re.S).group(1))
