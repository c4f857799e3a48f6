"""cyclekit: exact combinatorics of large cycles in graphs.

Bitmask graph core, exact invariants (connectivity, toughness,
independence, binding number, degree sums), certified cycle solvers,
deterministic extremal families and a declarative theorem catalog with a
verification and sharpness-audit engine.
"""

from .catalog import catalog, get
from .cycles import (
    CeilingError,
    CertificateError,
    CycleCert,
    ENUMERATION_CEILING,
    LongestCycles,
    PathCert,
    all_longest_cycles,
    circumference,
    cycles_of_length,
    every_longest_cycle_satisfies,
    exists_cycle_satisfying,
    hamiltonian,
    is_CD_cycle,
    is_PD_cycle,
    is_dominating_cycle,
    longest_path,
    residual_params,
)
from .exact import Exact, INF, fmt_exact, parse_exact
from .families import FAMILIES, build, list_families
from .formats import (
    FormatError,
    encode_graph6,
    parse_any,
    parse_dimacs,
    parse_edge_list,
    parse_graph6,
)
from .graph import (
    Graph,
    GraphError,
    complement,
    complete,
    complete_bipartite,
    cycle_graph,
    disjoint_union,
    edgeless,
    from_edge_list,
    induced_subgraph,
    join,
    path_graph,
    petersen,
)
from .invariants import (
    binding_number,
    connectivity,
    cut_scan,
    delta_t,
    independence_number,
    sigma_t,
    toughness,
)
from .registry import (
    ASSERTABLE_CLASSES,
    SUPPORTED_CLASSES,
    CaseResult,
    InvariantReport,
    Profile,
    Report,
    TheoremSpec,
    Verdict,
    audit_sharpness,
    check,
    check_all,
    class_predicates,
    invariant_report,
)
from .structure import (
    KuratowskiCert,
    RotationCert,
    claw,
    contains_induced,
    is_free,
    is_planar,
    net,
    pattern,
    planarity_certificate,
)

__version__ = "0.1.0"
