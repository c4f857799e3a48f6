"""cyclekit: exact combinatorics of large cycles in graphs.

Bitmask graph core, exact invariants (connectivity, toughness,
independence, binding number, degree sums), certified cycle solvers,
deterministic extremal families and a declarative theorem catalog with a
verification and sharpness-audit engine.

The names below are loaded on first use (PEP 562), so ``import cyclekit``
loads no submodule and each ``cyclekit`` command imports only the
modules it runs.
"""

import importlib
import sys
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "catalog": ("catalog", "get"),
    "cycles": (
        "CeilingError",
        "CertificateError",
        "CycleCert",
        "ENUMERATION_CEILING",
        "LongestCycles",
        "PathCert",
        "all_longest_cycles",
        "circumference",
        "cycles_of_length",
        "every_longest_cycle_satisfies",
        "exists_cycle_satisfying",
        "hamiltonian",
        "is_CD_cycle",
        "is_PD_cycle",
        "is_dominating_cycle",
        "longest_path",
        "residual_params",
    ),
    "exact": ("Exact", "INF", "fmt_exact", "parse_exact"),
    "families": ("FAMILIES", "build", "list_families"),
    "formats": (
        "FormatError",
        "encode_graph6",
        "parse_any",
        "parse_dimacs",
        "parse_edge_list",
        "parse_graph6",
    ),
    "graph": (
        "Graph",
        "GraphError",
        "complement",
        "complete",
        "complete_bipartite",
        "cycle_graph",
        "disjoint_union",
        "edgeless",
        "from_edge_list",
        "induced_subgraph",
        "join",
        "path_graph",
        "petersen",
    ),
    "invariants": (
        "binding_number",
        "connectivity",
        "cut_scan",
        "delta_t",
        "independence_number",
        "sigma_t",
        "toughness",
    ),
    "registry": (
        "ASSERTABLE_CLASSES",
        "SUPPORTED_CLASSES",
        "CaseResult",
        "InvariantReport",
        "Profile",
        "Report",
        "TheoremSpec",
        "Verdict",
        "audit_sharpness",
        "check",
        "check_all",
        "class_predicates",
        "invariant_report",
    ),
    "structure": (
        "KuratowskiCert",
        "RotationCert",
        "claw",
        "contains_induced",
        "is_free",
        "is_planar",
        "net",
        "pattern",
        "planarity_certificate",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _EXPORTS:  # a submodule reached as an attribute
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN, *_EXPORTS})


class _Package(ModuleType):
    """Importing a submodule binds it on its package; ``catalog`` names the
    catalog function, so the ``catalog`` submodule is never bound over it."""

    def __setattr__(self, name: str, value) -> None:
        if name == "catalog" and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
