"""The declarative theorem catalog.

Every entry records premises, conclusion and parameter domain exactly as
printed, with strict/non-strict inequalities preserved.  A numeric premise
or circumference bound is written once, as its printed label, which the
registry compiles into exact arithmetic on first use.  An explicit
function is given only where the label is outside that grammar (Thm2's
"...", Thm31's case split, Woodall's and Fan's counts, T14's "when",
Thm41's "else", Thm17's relaxation in a) or where it saves work (T13's
bound, settled from kappa/alpha when it can).  Entries whose printed form
is known to need a repair (a missing connectivity floor, an undefined
quotient) carry the repair plus a note; the one entry subject to known
literature corrections (T7) is flagged quarantined and excluded from the
soundness alarm.  An entry that restates another's statement is an alias
of it: the same premise and conclusion objects under its own id, title
and sharpness cases.
"""

from __future__ import annotations

from fractions import Fraction as F
from functools import cache

from .cycles import CycleCert, UpperCert, is_CD_cycle, is_dominating_cycle, residual_params
from .graph import Graph, path_graph
from .registry import (
    Bound,
    CaseResult,
    Disjunction,
    EveryLongestProp,
    ExistsProp,
    Ham,
    NamedGraphEscape,
    Profile,
    ResidualBound,
    TheoremSpec,
    conclusion_tight_case,
    custom_case,
    free_of,
    in_class,
    numeric,
    premise_tight_case,
)
from .structure import claw, net


# -- shared premise and bound builders ------------------------------------


_K2 = numeric("kappa >= 2")
_K3 = numeric("kappa >= 3")
_K4 = numeric("kappa >= 4")
_TAU1 = numeric("tau >= 1")
_TAU_GT_1 = numeric("tau > 1")
_TAU_GT_4_3 = numeric("tau > 4/3")
_TAU_GE_3_2 = numeric("tau >= 3/2")
_DELTA_GE_ALPHA = numeric("delta >= alpha")
_DELTA_N_3 = numeric("delta >= n/3")
_DELTA_N2_3 = numeric("delta >= (n+2)/3")
_DELTA_N6_4 = numeric("delta >= (n+6)/4")
_BALANCED = in_class("balanced_bipartite")
_K_LAMBDA_1 = numeric("kappa >= lambda+1")
# T18's bound, which Thm52's and Thm56's audits read on 4K_3+K_3
_T18_BOUND = Bound("min{n, 4delta-kappa-4}")

# Nikoghosyan's CD_lambda premises (Thm36, g1), over _cd_lambdas
_CD_PREMISES = [numeric("kappa >= lambda"), numeric("delta >= (n+2)/(lambda+1)+lambda-2")]


def _lambdas_below_kappa(pf: Profile) -> range:
    return range(1, max(1, pf.kappa))


def _cd_lambdas(pf: Profile) -> range:
    return range(1, pf.kappa + 1)


def _cd_order(pf: Profile, lam) -> int:
    return max(1, min(lam, pf.delta - lam + 1))


def _jung_bound(pf: Profile, lam) -> int | F:
    """T13's min{n, (tau+1)(delta+1)-1}: n itself when tau's lower bound
    kappa/alpha already reaches n, so the exact tau is not needed."""
    if (pf.tau_bounds[0] + 1) * (pf.delta + 1) - 1 >= pf.n:
        return pf.n
    return min(pf.n, (pf.tau + 1) * (pf.delta + 1) - 1)


# -- sharpness plumbing ---------------------------------------------------


def _parse_range(param_range: str | None, default: range) -> range:
    if param_range is None:
        return default
    lo, hi = param_range.split("..")
    return range(int(lo), int(hi) + 1)


def _family(name: str, **params: int) -> Graph:
    """``families.build``, imported on first use: only audits build graphs,
    so a ``check`` process never loads ``families``."""
    from .families import build

    return build(name, **params)


@cache
def _kept(name: str, **params: int) -> Graph:
    """A fixed sharpness graph, built at most once per process."""
    return _family(name, **params)


def _fixed(label: str, name: str, **params: int):
    """One family member under ``label``, built by the first audit that reads it."""
    def graphs(param_range):
        return [(label, _kept(name, **params))]

    return graphs


def _per_delta(fmt: str, make, default: range):
    def graphs(param_range):
        return [(fmt.format(d=d), make(d)) for d in _parse_range(param_range, default)]

    return graphs


# (label format, builder) of the per-delta families that several cases use
_PD_K1_2KD = ("K_1+2K_{d} delta={d}", lambda d: _family("tKa-join-Kb", t=2, a=d, b=1))
_PD_2KD_K1 = ("2K_{d}+K_1 delta={d}", lambda d: _family("join2Kd-K1", delta=d))
_PD_3KD1_K2 = ("3K_{{d-1}}+K_2 delta={d}", lambda d: _family("tKa-join-Kb", t=3, a=d - 1, b=2))


def _kappa_tight(k: int, label: str, graphs, conclusion_fails=None):
    """The premise-tight case for kappa >= k with kappa >= k-1 as its relaxation."""
    return premise_tight_case(label, graphs, f"kappa >= {k}", numeric(f"kappa >= {k - 1}"),
                              conclusion_fails=conclusion_fails)


def _not_hamiltonian_case(label: str, graphs, stronger: str = "'hamiltonian'", lam=None):
    """The conclusion-tight case whose stronger conclusion, named by
    ``stronger``, asks for a Hamilton cycle, which the graph lacks."""
    return conclusion_tight_case(label, graphs, lam=lam, stronger_fails=lambda pf: (
        not pf.is_hamiltonian, f"c={pf.c} < n={pf.n}, so {stronger} fails"))


def _hub_cycle(t: int, a: int, b: int) -> CycleCert:
    """Explicit cycle through all b hubs and b of the t cliques of tK_a+K_b."""
    seq: list[int] = []
    for i in range(b):
        seq.append(t * a + i)
        seq.extend(range(i * a, (i + 1) * a))
    return CycleCert(tuple(seq))


def _pinned_circumference(g: Graph, t: int, a: int, b: int) -> tuple[CycleCert, int]:
    """The circumference of g = tK_a+K_b, pinned exactly by a witness cycle
    that meets the hub cut's ``UpperCert`` (no search needed)."""
    cyc = _hub_cycle(t, a, b)
    cyc.validate(g)
    UpperCert(((1 << b) - 1) << (t * a), cyc.length).validate(g)  # the b hubs follow the cliques
    return cyc, cyc.length


def _missed_clique_fails(t: int, b: int, prop: str, lam: int | None):
    """Conclusion-failure witness for universal conclusions on tK_a+K_b
    (t > b), with a read off n = t*a+b: the pinned longest cycle misses a
    whole clique.  The cut bound pins c without enumeration, so family
    members above the 20-vertex ``ENUMERATION_CEILING`` need no search."""

    def fails(pf: Profile) -> tuple[bool, str]:
        a = (pf.n - b) // t
        cyc, c = _pinned_circumference(pf.g, t, a, b)
        if prop == "dominating":
            bad = not is_dominating_cycle(pf.g, cyc)
        else:
            bad = not is_CD_cycle(pf.g, cyc, lam)  # type: ignore[arg-type]
        return bad, f"longest cycle (length {c}) misses a K_{a} block, not {prop}"

    return fails


# -- catalog construction -------------------------------------------------

_CATALOG: list[TheoremSpec] | None = None
_BY_ID: dict[str, TheoremSpec] = {}


def catalog() -> list[TheoremSpec]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build()
        for spec in _CATALOG:
            _BY_ID[spec.id] = spec
    return _CATALOG


def get(theorem_id: str) -> TheoremSpec:
    catalog()
    if theorem_id not in _BY_ID:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    return _BY_ID[theorem_id]


def _build() -> list[TheoremSpec]:
    entries: list[TheoremSpec] = []

    def add(spec: TheoremSpec) -> TheoremSpec:
        entries.append(spec)
        return spec

    def alias(base: TheoremSpec, id: str, title: str, sharpness=None) -> TheoremSpec:
        """base's statement, premises and conclusion under another id and
        title, with base's sharpness cases unless others are given."""
        return add(TheoremSpec(
            id, title, base.statement, base.conclusion, base.premises, base.n_floor, base.lambdas,
            base.sharpness if sharpness is None else sharpness, base.notes, base.quarantined,
        ))

    # sharpness graphs used by more than one case
    h1243 = _fixed("H(1,2,4,3)", "H", a=1, b=2, t=4, k=3)
    h1254 = _fixed("H(1,2,5,4)", "H", a=1, b=2, t=5, k=4)
    petersen = _fixed("petersen", "petersen")
    four_k3_k3 = _fixed("4K_3+K_3", "tKa-join-Kb", t=4, a=3, b=3)
    two_k3_k1 = _fixed("2K_3+K_1", "join2Kd-K1", delta=3)
    bridge = _fixed("bridge-gadget", "bridge-gadget")
    kdd1 = _per_delta("K_{{{d},{d}+1}}", lambda d: _family("Kdd1", delta=d), range(2, 5))

    # sharpness cases shared by more than one entry
    petersen_tau = premise_tight_case(
        "the Petersen graph defeats tau = 4/3",
        petersen,
        "tau > 4/3",
        numeric("tau >= 4/3"),
    )
    residual_equality = custom_case(
        "equality on (kappa+1)K_{delta-kappa+1}+K_kappa",
        "residual-equality", _residual_equality_runner,
    )

    # ---- the pure-relation list T1..T19 ----

    t1 = add(TheoremSpec(
        "T1", "Dirac, 1952", "c >= delta+1",
        Bound("delta+1"),
    ))
    t2 = add(TheoremSpec(
        "T2", "Dirac, 1952", "kappa >= 2 implies c >= min{n, 2delta}",
        Bound("min{n, 2delta}"),
        [_K2],
    ))
    add(TheoremSpec(
        "T3", "Bondy, 1971", "kappa >= 2 implies c >= min{n, sigma_2}",
        Bound("min{n, sigma_2}"),
        [_K2],
    ))
    t4 = add(TheoremSpec(
        "T4", "Jung, 1978", "kappa >= 3, delta >= alpha imply c >= min{n, 3delta-3}",
        Bound("min{n, 3delta-3}"),
        [_K3, _DELTA_GE_ALPHA],
    ))
    t5 = add(TheoremSpec(
        "T5", "Nikoghosyan, 1981", "kappa >= 3 implies c >= min{n, 3delta-kappa}",
        Bound("min{n, 3delta-kappa}"),
        [_K3],
    ))
    add(TheoremSpec(
        "T6", "Fan, 1984", "kappa >= 2 implies c >= min{n, 2delta_2}",
        Bound("min{n, 2delta_2}"),
        [_K2],
    ))
    add(TheoremSpec(
        "T7", "Fan, 1985", "kappa >= 3, delta-regular imply c >= min{n, 3delta}",
        Bound("min{n, 3delta}"),
        [_K3, in_class("regular")],
        quarantined=True,
        notes="Included as printed; subject to known literature corrections, "
              "so it is quarantined from the soundness alarm.",
    ))
    add(TheoremSpec(
        "T8", "Nikoghosyan, 1985", "kappa >= 4, delta >= alpha imply c >= min{n, 4delta-2kappa}",
        Bound("min{n, 4delta-2kappa}"),
        [_K4, _DELTA_GE_ALPHA],
    ))
    t9 = add(TheoremSpec(
        "T9", "Bauer and Schmeichel, 1986", "tau >= 1 implies c >= min{n, 2delta+2}",
        Bound("min{n, 2delta+2}"),
        [_TAU1],
    ))
    add(TheoremSpec(
        "T10", "Bauer and Schmeichel, 1986", "tau >= 1 implies c >= min{n, sigma_2+2}",
        Bound("min{n, sigma_2+2}"),
        [_TAU1],
    ))
    t11 = add(TheoremSpec(
        "T11", "Nikoghosyan, 1998", "c >= (p+2)(delta-p) for every longest cycle",
        ResidualBound("(p+2)(delta-p)"),
    ))
    t12 = add(TheoremSpec(
        "T12", "Nikoghosyan, 1998", "c >= (cbar+1)(delta-cbar+1) for every longest cycle",
        ResidualBound("(cbar+1)(delta-cbar+1)"),
    ))
    add(TheoremSpec(
        "T13", "Jung, 1999", "kappa >= 2 implies c >= min{n, (tau+1)(delta+1)-1}",
        Bound("min{n, (tau+1)(delta+1)-1}", _jung_bound),
        [_K2],
    ))
    add(TheoremSpec(
        "T14", "Nikoghosyan, 2000",
        "kappa >= 2: cbar >= kappa implies c >= (cbar+1)kappa(delta+2)/(cbar+kappa+1)",
        ResidualBound(
            "(cbar+1)kappa(delta+2)/(cbar+kappa+1) when cbar >= kappa",
            lambda pf, p, c, lam: (
                F((c + 1) * pf.kappa * (pf.delta + 2), c + pf.kappa + 1)
                if c >= pf.kappa else 0
            ),
        ),
        [_K2],
        notes="Printed without a connectivity premise; kappa >= 2 restored from "
              "the source form (Thm41), without which c=2 paths give counterexamples.",
    ))
    add(TheoremSpec(
        "T15", "Yamashita, 2007", "kappa >= 3 implies c >= min{n, sigma_3-kappa}",
        Bound("min{n, sigma_3-kappa}"),
        [_K3],
    ))
    add(TheoremSpec(
        "T16", "Mingchu Li, 2009", "kappa >= 3, claw-free imply c >= min{n, 6delta-15}",
        Bound("min{n, 6delta-15}"),
        [_K3, free_of("G is claw-free", claw())],
        notes="Printed as a one-element min{6delta-15}; read as min{n, 6delta-15} "
              "by analogy with its neighbours.",
    ))
    t17 = add(TheoremSpec(
        "T17", "Nikoghosyan, 2009",
        "kappa >= lambda+2, delta >= alpha+lambda-1 imply c >= min{n, (lambda+2)(delta-lambda)}",
        Bound("min{n, (lambda+2)(delta-lambda)}"),
        [
            numeric("kappa >= lambda+2"),
            numeric("delta >= alpha+lambda-1"),
        ],
        lambdas=lambda pf: range(1, max(1, pf.kappa - 1)),
    ))
    t18 = add(TheoremSpec(
        "T18", "Nikoghosyan, 2011", "kappa >= 4, delta >= alpha imply c >= min{n, 4delta-kappa-4}",
        _T18_BOUND,
        [_K4, _DELTA_GE_ALPHA],
    ))
    add(TheoremSpec(
        "T19", "Nikoghosyan, 2012",
        "tau > 1 implies c >= min{n, 2delta+5} or G is the Petersen graph",
        NamedGraphEscape(Bound("min{n, 2delta+5}")),
        [_TAU_GT_1],
    ))

    # ---- Hamilton cycle theorems 1..30 ----

    add(TheoremSpec(
        "Thm1", "Erdos and Gallai, 1959", "q >= (n^2-3n+5)/2 implies hamiltonian",
        Ham(),
        [numeric("q >= (n^2-3n+5)/2")],
        sharpness=[premise_tight_case(
            "K_{n-1} with a pendant vertex defeats the relaxed size bound",
            _per_delta("clique-plus-pendant n={d}", lambda d: _family("clique-plus-pendant", n=d), range(5, 9)),
            "q >= (n^2-3n+5)/2",
            numeric("q >= (n^2-3n+4)/2"),
        )],
    ))
    add(TheoremSpec(
        "Thm2", "Erdos, 1962",
        "1 <= delta <= n/2 and q above the two-term max imply hamiltonian",
        Ham(),
        [
            numeric("1 <= delta <= n/2"),
            numeric(
                "q > max{(n-delta)(n-delta-1)/2+delta^2, ...}",
                lambda pf, lam: 2 * pf.q > max(
                    (pf.n - pf.delta) * (pf.n - pf.delta - 1) + 2 * pf.delta ** 2,
                    (pf.n - (pf.n - 1) // 2) * (pf.n - (pf.n - 1) // 2 - 1)
                    + 2 * ((pf.n - 1) // 2) ** 2,
                ),
            ),
        ],
    ))
    add(TheoremSpec(
        "Thm3", "Moon and Moser, 1963",
        "balanced bipartite, q >= (n^2-2n+5)/4 imply hamiltonian",
        Ham(),
        [_BALANCED, numeric("q >= (n^2-2n+5)/4")],
    ))
    add(TheoremSpec(
        "Thm4", "Moon and Moser, 1963",
        "balanced bipartite, q > n(n-2delta)/4+delta^2 imply hamiltonian",
        Ham(),
        [_BALANCED, numeric("q > n(n-2delta)/4+delta^2")],
    ))
    add(TheoremSpec(
        "Thm5", "Nikoghosyan, 2011", "q <= delta^2+delta-1 implies hamiltonian",
        Ham(),
        [numeric("q <= delta^2+delta-1")],
        sharpness=[premise_tight_case(
            "K_1+2K_delta defeats the relaxed size bound",
            _per_delta(*_PD_K1_2KD, range(2, 6)),
            "q <= delta^2+delta-1",
            numeric("q <= delta^2+delta"),
        )],
    ))
    add(TheoremSpec(
        "Thm6", "Dirac, 1952", "delta >= n/2 implies hamiltonian",
        Ham(),
        [numeric("delta >= n/2")],
        sharpness=[premise_tight_case(
            "2K_delta+K_1 defeats the relaxed degree bound",
            _per_delta(*_PD_2KD_K1, range(2, 6)),
            "delta >= n/2",
            numeric("delta >= (n-1)/2"),
        )],
    ))
    add(TheoremSpec(
        "Thm7", "Moon and Moser, 1963",
        "balanced bipartite, delta >= (n+1)/4 imply hamiltonian",
        Ham(),
        [_BALANCED, numeric("delta >= (n+1)/4")],
        sharpness=[premise_tight_case(
            "three-path gadget (theta(3,3,3)) defeats delta >= n/4",
            _fixed("theta(3,3,3)", "theta", i=3, j=3, k=3),
            "delta >= (n+1)/4",
            numeric("delta >= n/4"),
        )],
    ))
    add(TheoremSpec(
        "Thm8", "Jung, 1978",
        "n >= 11, tau >= 1, delta >= (n-4)/2 imply hamiltonian",
        Ham(),
        [
            numeric("n >= 11"),
            _TAU1,
            numeric("delta >= (n-4)/2"),
        ],
        n_floor=11,
        sharpness=[premise_tight_case(
            "the Petersen graph needs the order floor",
            petersen,
            "n >= 11",
        )],
    ))
    add(TheoremSpec(
        "Thm9", "Nikoghosyan, 2012",
        "tau > 4/3, delta >= (n-5)/2 imply hamiltonian",
        Ham(),
        [
            _TAU_GT_4_3,
            numeric("delta >= (n-5)/2"),
        ],
        sharpness=[
            petersen_tau,
            premise_tight_case(
                "the K_5/K_{5,2} gadget defeats delta >= (n-6)/2",
                bridge,
                "delta >= (n-5)/2",
                numeric("delta >= (n-6)/2"),
                waive=("tau > 4/3",),
            ),
        ],
        notes="The printed delta-sharpness gadget has tau = 6/5 < 4/3, so its "
              "toughness premise is waived in the audit and reported as a warning.",
    ))
    add(TheoremSpec(
        "Thm10", "Nikoghosyan, 1981",
        "kappa >= 2, delta >= (n+kappa)/3 imply hamiltonian",
        Ham(),
        [_K2, numeric("delta >= (n+kappa)/3")],
        sharpness=[
            premise_tight_case(
                "2K_delta+K_1 needs the connectivity premise",
                _per_delta(*_PD_2KD_K1, range(2, 5)),
                "kappa >= 2",
            ),
            premise_tight_case(
                "H(1,delta-kappa+1,delta,kappa) defeats the relaxed degree bound",
                _fixed("H(1,2,3,2)", "H", a=1, b=2, t=3, k=2),
                "delta >= (n+kappa)/3",
                numeric("delta >= (n+kappa-1)/3"),
            ),
        ],
    ))
    add(TheoremSpec(
        "Thm11", "Bauer and Schmeichel, 1991",
        "tau >= 1, delta >= (n+kappa-2)/3 imply hamiltonian",
        Ham(),
        [_TAU1, numeric("delta >= (n+kappa-2)/3")],
    ))
    add(TheoremSpec(
        "Thm12", "Nash-Williams, 1971",
        "kappa >= 2, delta >= max{(n+2)/3, alpha} imply hamiltonian",
        Ham(),
        [_K2, numeric("delta >= max{(n+2)/3, alpha}")],
        sharpness=[premise_tight_case(
            "H(lambda,lambda+1,lambda+3,lambda+2) at lambda=1 defeats delta >= alpha-1",
            h1243,
            "delta >= max{(n+2)/3, alpha}",
            numeric("delta >= max{(n+2)/3, alpha-1}"),
        )],
    ))
    add(TheoremSpec(
        "Thm13", "Bigalke and Jung, 1979",
        "tau >= 1, delta >= max{n/3, alpha-1} imply hamiltonian",
        Ham(),
        [_TAU1, numeric("delta >= max{n/3, alpha-1}")],
    ))
    add(TheoremSpec(
        "Thm14", "Fraisse, 1986",
        "kappa >= lambda+1, delta >= max{(n+2)/(lambda+2)+lambda-1, alpha+lambda-1} imply hamiltonian",
        Ham(),
        [
            _K_LAMBDA_1,
            numeric("delta >= max{(n+2)/(lambda+2)+lambda-1, alpha+lambda-1}"),
        ],
        lambdas=_lambdas_below_kappa,
    ))
    add(TheoremSpec(
        "Thm15", "Yamashita, 2008",
        "kappa >= 3, delta >= max{(n+kappa+3)/4, alpha} imply hamiltonian",
        Ham(),
        [_K3, numeric("delta >= max{(n+kappa+3)/4, alpha}")],
        sharpness=[
            premise_tight_case(
                "H(1,2,kappa+1,kappa) defeats delta >= alpha-1",
                h1243,
                "delta >= max{(n+kappa+3)/4, alpha}",
                numeric("delta >= max{(n+kappa+3)/4, alpha-1}"),
            ),
            premise_tight_case(
                "H(2,n-3delta+3,delta-1,kappa) defeats the relaxed quarter bound",
                _fixed("H(2,2,3,3)", "H", a=2, b=2, t=3, k=3),
                "delta >= max{(n+kappa+3)/4, alpha}",
                numeric("delta >= max{(n+kappa+2)/4, alpha}"),
            ),
        ],
    ))
    add(TheoremSpec(
        "Thm16", "Chvatal and Erdos, 1972", "kappa >= alpha implies hamiltonian",
        Ham(),
        [numeric("kappa >= alpha")],
        sharpness=[premise_tight_case(
            "K_{delta,delta+1} defeats kappa >= alpha-1",
            kdd1,
            "kappa >= alpha",
            numeric("kappa >= alpha-1"),
        )],
    ))
    add(TheoremSpec(
        "Thm17", "Woodall, 1973", "b(G) >= 3/2 implies hamiltonian",
        Ham(),
        [numeric("b(G) >= 3/2")],
        sharpness=[premise_tight_case(
            "aK_2 joined to an independent (a-1)-set sits just under 3/2",
            _per_delta("aK_2+Kbar_{{a-1}} a={d}", lambda d: _family("aK2-join-Kbar", a=d), range(2, 5)),
            "b(G) >= 3/2",
            numeric("b(G) >= (3a-2)/(2a-1)", lambda pf, lam: pf.binding >= F(
                3 * ((pf.n + 1) // 3) - 2, 2 * ((pf.n + 1) // 3) - 1)),
        )],
        notes="The family has b = (3a-2)/(2a-1), approaching 3/2 from below.",
    ))
    add(TheoremSpec(
        "Thm18", "Fleischner, 1974",
        "the square of every 2-connected graph is hamiltonian",
        Ham(),
        [in_class("square_of_2connected")],
        notes="Being a square of a 2-connected graph is not recognizable from "
              "the graph alone here; assert via --assume square_of_2connected.",
    ))
    add(TheoremSpec(
        "Thm19", "Tutte, 1956", "4-connected planar implies hamiltonian",
        Ham(),
        [_K4, in_class("planar")],
    ))
    add(TheoremSpec(
        "Thm20", "Thomas and Yu, 1994", "4-connected projective-plane implies hamiltonian",
        Ham(),
        [_K4, in_class("projective_planar")],
    ))
    add(TheoremSpec(
        "Thm21", "Faudree and Gould, 1997 (= Theorem C)",
        "2-connected P_3-free implies hamiltonian",
        Ham(),
        [_K2, free_of("G is P3-free", path_graph(3))],
    ))
    add(TheoremSpec(
        "Thm22", "Broersma and Veldman, 1997 (= Theorem A)",
        "2-connected {claw, P_6}-free implies hamiltonian",
        Ham(),
        [_K2, free_of("G is {claw,P6}-free", claw(), path_graph(6))],
    ))
    add(TheoremSpec(
        "Thm23", "Faudree, Gould, Ryjacek and Schiermeyer, 1997",
        "2-connected {claw, N_{0,0,3}}-free with n >= 10 implies hamiltonian",
        Ham(),
        [_K2, free_of("G is {claw,N_{0,0,3}}-free", claw(), net(0, 0, 3))],
        n_floor=10,
    ))
    add(TheoremSpec(
        "Thm24", "Bedrossian, 1997",
        "2-connected {claw, N_{0,1,2}}-free implies hamiltonian",
        Ham(),
        [_K2, free_of("G is {claw,N_{0,1,2}}-free", claw(), net(0, 1, 2))],
    ))
    add(TheoremSpec(
        "Thm25", "Duffus, Jakobson and Gould, 1997",
        "2-connected {claw, N_{1,1,1}}-free implies hamiltonian",
        Ham(),
        [_K2, free_of("G is {claw,N_{1,1,1}}-free", claw(), net(1, 1, 1))],
    ))
    add(TheoremSpec(
        "Thm26", "Keil, 1985", "1-tough interval implies hamiltonian",
        Ham(), [_TAU1, in_class("interval")],
    ))
    add(TheoremSpec(
        "Thm27", "Kratsch, Lehel and Muller, 1996", "3/2-tough split implies hamiltonian",
        Ham(), [_TAU_GE_3_2, in_class("split")],
    ))
    add(TheoremSpec(
        "Thm28", "Deogun, Kratsch and Steiner, 1997",
        "1-tough cocomparability implies hamiltonian",
        Ham(), [_TAU1, in_class("cocomparability")],
    ))
    add(TheoremSpec(
        "Thm29", "Bohme, Harant and Tkac, 1999",
        "chordal planar with tau > 1 implies hamiltonian",
        Ham(), [_TAU_GT_1, in_class("chordal"), in_class("planar")],
    ))
    add(TheoremSpec(
        "Thm30", "Kaiser, Kral and Stacho, 2007", "3/2-tough spider implies hamiltonian",
        Ham(), [_TAU_GE_3_2, in_class("spider")],
    ))

    # ---- dominating-cycle theorems 31..34 ----

    add(TheoremSpec(
        "Thm31", "Nikoghosyan, 2011",
        "kappa >= 2 and the size bound imply every longest cycle dominating",
        EveryLongestProp("dominating"),
        [_K2, numeric(
            "q <= 8 (delta=2) / (3(delta-1)(delta+2)-1)/2 (delta>=3)",
            lambda pf, lam: (
                pf.q <= 8 if pf.delta == 2
                else 2 * pf.q <= 3 * (pf.delta - 1) * (pf.delta + 2) - 1
            ),
        )],
        sharpness=[
            _kappa_tight(2, "K_1+2K_delta defeats kappa >= 1", _per_delta(*_PD_K1_2KD, range(2, 5))),
            premise_tight_case(
                "the 9-edge v_1..v_8 graph defeats q <= 9",
                _fixed("v1..v8 (theta(3,3,3))", "theta", i=3, j=3, k=3),
                "q <= 8 (delta=2) / (3(delta-1)(delta+2)-1)/2 (delta>=3)",
                numeric("q <= 9"),
            ),
            _not_hamiltonian_case("K_2+3K_1 satisfies the premises but is not hamiltonian",
                                  _fixed("K_2+3K_1", "tKa-join-Kb", t=3, a=1, b=2)),
        ],
        notes="The printed delta>=3 analogues K_2+3K_{delta-1} and "
              "K_delta+(delta+1)K_1 overshoot the size bound (q=16 vs 29/2; "
              "q=15 vs 29/2 at delta=3), so only the delta=2 trio plus the "
              "K_1+2K_delta family are audited.",
    ))
    add(TheoremSpec(
        "Thm32", "Nash-Williams, 1971",
        "kappa >= 2, delta >= (n+2)/3 imply every longest cycle dominating",
        EveryLongestProp("dominating"),
        [_K2, _DELTA_N2_3],
        sharpness=[
            _kappa_tight(2, "2K_3+K_1 defeats kappa >= 1", two_k3_k1),
            premise_tight_case(
                "3K_{delta-1}+K_2 defeats the relaxed degree bound",
                _per_delta(*_PD_3KD1_K2, range(3, 7)),
                "delta >= (n+2)/3",
                numeric("delta >= (n+1)/3"),
                conclusion_fails=_missed_clique_fails(3, 2, "dominating", None),
            ),
            _not_hamiltonian_case("H(1,2,4,3) satisfies the premises but is not hamiltonian",
                                  h1243),
        ],
    ))
    add(TheoremSpec(
        "Thm33", "Bigalke and Jung, 1979",
        "tau >= 1, delta >= n/3 imply every longest cycle dominating",
        EveryLongestProp("dominating"),
        [_TAU1, _DELTA_N_3],
    ))
    add(TheoremSpec(
        "Thm34", "Yamashita, 2008",
        "kappa >= 3, delta >= (n+kappa+3)/4 imply every longest cycle dominating",
        EveryLongestProp("dominating"),
        [_K3, numeric("delta >= (n+kappa+3)/4")],
        sharpness=[
            _kappa_tight(3, "3K_{delta-1}+K_2 defeats kappa >= 2",
                         _per_delta(*_PD_3KD1_K2, range(4, 7)),
                         conclusion_fails=_missed_clique_fails(3, 2, "dominating", None)),
            _not_hamiltonian_case("H(1,2,kappa+1,kappa) satisfies the premises but is not hamiltonian",
                                  h1243),
        ],
    ))

    # ---- CD_lambda theorems 35..36 ----

    add(TheoremSpec(
        "Thm35", "Jung, 1990",
        "kappa >= 3, delta >= (n+6)/4 imply every longest cycle is a CD_3-cycle",
        EveryLongestProp("CD", lambda pf, lam: 3),
        [_K3, _DELTA_N6_4],
        sharpness=[
            _kappa_tight(3, "(lambda+1)K_{delta-lambda+1}+K_lambda at lambda=3, delta=5 defeats kappa >= 2",
                         _fixed("3K_4+K_2", "tKa-join-Kb", t=3, a=4, b=2),
                         conclusion_fails=_missed_clique_fails(3, 2, "CD", 3)),
            premise_tight_case(
                "4K_3+K_3 defeats the relaxed quarter bound",
                four_k3_k3,
                "delta >= (n+6)/4",
                numeric("delta >= (n+5)/4"),
                conclusion_fails=_missed_clique_fails(4, 3, "CD", 3),
            ),
        ],
    ))
    add(TheoremSpec(
        "Thm36", "Nikoghosyan, 2009",
        "kappa >= lambda, delta >= (n+2)/(lambda+1)+lambda-2 imply every "
        "longest cycle is a CD_{min{lambda,delta-lambda+1}}-cycle",
        EveryLongestProp("CD", _cd_order),
        _CD_PREMISES,
        lambdas=_cd_lambdas,
        sharpness=[
            premise_tight_case(
                "lambda K_{lambda+1}+K_{lambda-1} at lambda=2 defeats kappa >= lambda-1",
                two_k3_k1,
                "kappa >= lambda",
                numeric("kappa >= lambda-1"),
                lam=2,
            ),
            premise_tight_case(
                "(lambda+1)K_{delta-lambda+1}+K_lambda at lambda=2 defeats the relaxed bound",
                _per_delta(*_PD_3KD1_K2, range(3, 6)),
                "delta >= (n+2)/(lambda+1)+lambda-2",
                numeric("delta >= (n+1)/(lambda+1)+lambda-2"),
                lam=2,
                conclusion_fails=_missed_clique_fails(3, 2, "CD", 2),
            ),
            _not_hamiltonian_case("H(lambda-1,lambda,lambda+2,lambda+1) at lambda=2: CD_2 holds, CD_1 fails",
                                  h1243, "the CD_1 strengthening", lam=2),
        ],
        notes="The effective CD order min{lambda, delta-lambda+1} is clamped to >= 1.",
    ))

    # ---- long-cycle theorems 37..54 ----

    alias(t1, "Thm37", "Dirac, 1952")
    add(TheoremSpec(
        "Thm38", "Kouider, 1994", "kappa >= 1: c >= n/ceil(alpha/kappa)",
        Bound("n/ceil(alpha/kappa)"),
        [numeric("kappa >= 1")],
        notes="Printed for every graph; kappa >= 1 restored since the quotient "
              "is undefined on disconnected graphs.",
    ))
    alias(t11, "Thm39", "Nikoghosyan, 1998", sharpness=[residual_equality])
    alias(t12, "Thm40", "Nikoghosyan, 2000", sharpness=[residual_equality])
    add(TheoremSpec(
        "Thm41", "Nikoghosyan, 2000",
        "kappa >= 2: residual bound with cases cbar >= kappa / cbar < kappa",
        ResidualBound(
            "(cbar+1)kappa(delta+2)/(cbar+kappa+1), else (cbar+1)cbar(delta+2)/(2cbar+1)",
            lambda pf, p, c, lam: (
                F((c + 1) * pf.kappa * (pf.delta + 2), c + pf.kappa + 1)
                if c >= pf.kappa
                else F((c + 1) * c * (pf.delta + 2), 2 * c + 1)
            ),
        ),
        [_K2],
    ))
    add(TheoremSpec(
        "Thm42", "Woodall, 1976",
        "q > t*C(lambda,2)+C(r+1,2) implies c > lambda, with n = t(lambda-1)+r+1",
        Bound("lambda", strict=True),
        [numeric(
            "q > t*C(lambda,2)+C(r+1,2)",
            lambda pf, lam: pf.q > _woodall_bound(pf.n, lam),
        )],
        lambdas=lambda pf: range(2, max(2, pf.n)),
    ))
    add(TheoremSpec(
        "Thm43", "Fan, Lv and Wang, 2004",
        "kappa >= 2, q > max{f(n,2,lambda), f(n,floor(lambda/2),lambda)} imply c > lambda",
        Bound("lambda", strict=True),
        [_K2, numeric(
            "q > max{f(n,2,lambda), f(n,floor(lambda/2),lambda)}",
            lambda pf, lam: pf.q > max(_fan_f(pf.n, 2, lam), _fan_f(pf.n, lam // 2, lam)),
        )],
        lambdas=lambda pf: range(2, max(2, pf.n)),
        notes="f(n,t,lambda) evaluated as printed even where floor(lambda/2) < 2.",
    ))
    add(TheoremSpec(
        "Thm44", "Alon, 1986", "delta >= n/(lambda+1) implies c >= n/lambda",
        Bound("n/lambda"),
        [numeric("delta >= n/(lambda+1)")],
        lambdas=lambda pf: range(1, pf.n + 1),
    ))
    alias(t2, "Thm45", "Dirac, 1952")
    add(TheoremSpec(
        "Thm46", "Kaneko and Yoshimoto",
        "2-connected balanced bipartite implies c >= min{n, 4delta-2}",
        Bound("min{n, 4delta-2}"),
        [_K2, _BALANCED],
        notes="Dated 1952 in the source with a 2004-era citation; the "
              "citation key is what this entry records.",
    ))
    alias(t9, "Thm47", "Bauer and Schmeichel, 1987", sharpness=[premise_tight_case(
        "K_{delta,delta+1} defeats the relaxed toughness bound",
        kdd1,
        "tau >= 1",
        numeric("tau >= delta/(delta+1)"),
    )])
    add(TheoremSpec(
        "Thm48", "Nikoghosyan, 2012", "tau > 4/3 implies c >= min{n, 2delta+5}",
        Bound("min{n, 2delta+5}"),
        [_TAU_GT_4_3],
        sharpness=[
            petersen_tau,
            conclusion_tight_case(
                "the K_5/K_{5,2} gadget meets c = 2delta+5 exactly",
                bridge,
                equality=lambda pf: (
                    pf.c == 2 * pf.delta + 5 and pf.c < pf.n,
                    f"c={pf.c} = 2delta+5={2 * pf.delta + 5} < n={pf.n}, "
                    "so c >= 2delta+6 would fail",
                ),
                waive=("tau > 4/3",),
            ),
        ],
        notes="The printed bound gadget has tau = 6/5 < 4/3; its toughness "
              "premise is waived in the audit and reported as a warning.",
    ))
    alias(t5, "Thm49", "Nikoghosyan, 1981", sharpness=[
        _kappa_tight(3, "3K_{delta-1}+K_2 defeats kappa >= 2",
                     _per_delta(*_PD_3KD1_K2, range(3, 6))),
        conclusion_tight_case(
            "H(1,delta-kappa+1,delta,kappa) meets c = 3delta-kappa exactly",
            h1243,
            equality=lambda pf: (
                pf.c == 3 * pf.delta - pf.kappa and pf.c < pf.n,
                f"c={pf.c} = 3delta-kappa={3 * pf.delta - pf.kappa} < n={pf.n}",
            ),
        ),
    ])
    alias(t4, "Thm50", "Jung, 1978")
    alias(t17, "Thm51", "Nikoghosyan, 2009")
    alias(t18, "Thm52", "M.Zh. Nikoghosyan and Zh.G. Nikoghosyan, 2011", sharpness=[
        _kappa_tight(4, "4K_{delta-2}+K_3 defeats kappa >= 3",
                     four_k3_k3,
                     conclusion_fails=_thm52_gap_fails),
        premise_tight_case(
            "H(1,2,kappa+1,kappa) defeats delta >= alpha-1",
            h1254,
            "delta >= alpha",
            numeric("delta >= alpha-1"),
        ),
    ])
    add(TheoremSpec(
        "Thm53", "Bauer, Morgana, Schmeichel and Veldman, 1989",
        "kappa >= 2, delta >= (n+2)/3 imply c >= min{n, n+delta-alpha}",
        Bound("min{n, n+delta-alpha}"),
        [_K2, _DELTA_N2_3],
    ))
    add(TheoremSpec(
        "Thm54", "Bauer, Schmeichel and Veldman, 1988",
        "tau >= 1, delta >= n/3 imply c >= min{n, n+delta-alpha+1}",
        Bound("min{n, n+delta-alpha+1}"),
        [_TAU1, _DELTA_N_3],
    ))

    # ---- disjunction theorems 55..57 ----

    add(TheoremSpec(
        "Thm55", "Jung, 1981",
        "kappa >= 3 implies every longest cycle dominating or c >= 3delta-3",
        Disjunction(
            Bound("3delta-3"),
            EveryLongestProp("dominating"),
        ),
        [_K3],
    ))
    add(TheoremSpec(
        "Thm56", "M.Zh. Nikoghosyan and Zh.G. Nikoghosyan, 2011",
        "kappa >= 4 implies every longest cycle dominating or c >= 4delta-kappa-4",
        Disjunction(
            Bound("4delta-kappa-4"),
            EveryLongestProp("dominating"),
        ),
        [_K4],
        sharpness=[
            _kappa_tight(4, "4K_{delta-2}+K_3 defeats kappa >= 3",
                         four_k3_k3,
                         conclusion_fails=_thm56_both_fail),
            _not_hamiltonian_case("H(1,2,kappa+1,kappa): dominating branch holds, hamiltonian fails",
                                  h1254),
        ],
    ))
    add(TheoremSpec(
        "Thm57", "Nikoghosyan, 2009",
        "kappa >= lambda+1 implies every longest cycle is a "
        "CD_{min{lambda,delta-lambda}}-cycle or c >= (lambda+1)(delta-lambda+1)",
        Disjunction(
            Bound("(lambda+1)(delta-lambda+1)"),
            EveryLongestProp("CD", lambda pf, lam: max(1, min(lam, pf.delta - lam))),
        ),
        [_K_LAMBDA_1],
        lambdas=_lambdas_below_kappa,
        notes="The effective CD order min{lambda, delta-lambda} is clamped to >= 1.",
    ))

    # ---- named exemplars from the evolution sections ----

    add(TheoremSpec(
        "Ore", "Ore, 1960 (h1)", "sigma_2 >= n implies hamiltonian",
        Ham(),
        [numeric("sigma_2 >= n")],
    ))
    add(TheoremSpec(
        "Fan", "Fan, 1984 (h2)", "kappa >= 2, delta_2 >= n/2 imply hamiltonian",
        Ham(),
        [_K2, numeric("delta_2 >= n/2")],
        notes="Printed without the connectivity premise; kappa >= 2 restored "
              "from the source form, without which 2K_3 (delta_2 = +inf) is a "
              "counterexample.",
    ))
    add(TheoremSpec(
        "g1", "Nikoghosyan (g1)",
        "kappa >= lambda >= 1, delta >= (n+2)/(lambda+1)+lambda-2 imply a "
        "CD_{min{lambda,delta-lambda+1}}-cycle exists",
        ExistsProp("CD", _cd_order),
        _CD_PREMISES,
        lambdas=_cd_lambdas,
    ))
    add(TheoremSpec(
        "g4", "Jung (g4)", "kappa >= 3, delta >= (n+6)/4 imply a CD_3-cycle exists",
        ExistsProp("CD", lambda pf, lam: 3),
        [_K3, _DELTA_N6_4],
    ))
    add(TheoremSpec(
        "f1", "Nash-Williams (f1)",
        "kappa >= 2, delta >= (n+2)/3 imply a dominating cycle exists",
        ExistsProp("dominating"),
        [_K2, _DELTA_N2_3],
    ))
    add(TheoremSpec(
        "f2", "Bigalke and Jung (f2)",
        "tau >= 1, delta >= n/3 imply a dominating cycle exists",
        ExistsProp("dominating"),
        [_TAU1, _DELTA_N_3],
    ))

    return entries


# -- helpers referenced by entries above ----------------------------------


def _woodall_bound(n: int, lam: int) -> int:
    """t*C(lambda,2)+C(r+1,2); a product of two consecutive integers is even."""
    t, r = divmod(n - 1, lam - 1)
    return t * (lam * (lam - 1) // 2) + (r + 1) * r // 2


def _fan_f(n: int, t: int, lam: int) -> int:
    """C(lambda+1-t,2)+t(n-lambda-1+t); a product of two consecutive integers is even."""
    return (lam + 1 - t) * (lam - t) // 2 + t * (n - lam - 1 + t)




def _thm52_gap_fails(pf: Profile) -> tuple[bool, str]:
    _, c = _pinned_circumference(pf.g, 4, 3, 3)
    bound = _T18_BOUND.expr(pf, None)
    return c < bound, f"c={c} (pinned by cut bound) < min{{n, 4delta-kappa-4}}={bound}"


def _thm56_both_fail(pf: Profile) -> tuple[bool, str]:
    cyc, c = _pinned_circumference(pf.g, 4, 3, 3)
    bound = _T18_BOUND.expr(pf, None)
    not_dom = not is_dominating_cycle(pf.g, cyc)
    return (
        c < bound and not_dom,
        f"c={c} < bound {bound} and the pinned longest cycle misses a K_3 block",
    )


def _residual_equality_runner(param_range: str | None) -> list[CaseResult]:
    """Equality audit for the Thm39/40 family (kappa+1)K_{delta-kappa+1}+K_kappa.

    The witness cycle through all kappa hubs and kappa cliques matches the
    hub-cut upper bound, pinning c exactly; its residual graph is a single
    K_{delta-kappa+1}, giving p = delta-kappa and cbar = delta-kappa+1, and
    both residual bounds meet c with equality.  This is also the self-check
    that fixes the units: p counts edges, cbar counts vertices.
    """
    results = []
    combos = [(1, 3, "2K_3+K_1")]
    for kappa in (2, 3):
        for delta in range(kappa + 1, kappa + 4):
            combos.append((kappa, delta, f"{kappa + 1}K_{delta - kappa + 1}+K_{kappa}"))
    for kappa, delta, label in combos:
        t, a = kappa + 1, delta - kappa + 1
        g = _family("tKa-join-Kb", t=t, a=a, b=kappa)
        cyc, c = _pinned_circumference(g, t, a, kappa)
        p_bar, c_bar = residual_params(g, cyc)
        eq39 = (p_bar + 2) * (delta - p_bar) == c
        eq40 = (c_bar + 1) * (delta - c_bar + 1) == c
        units_ok = p_bar == delta - kappa and c_bar == delta - kappa + 1
        passed = eq39 and eq40 and units_ok and c == kappa * (delta - kappa + 2)
        detail = (
            f"c={c}, p={p_bar}, cbar={c_bar}: "
            f"(p+2)(delta-p)={(p_bar + 2) * (delta - p_bar)}, "
            f"(cbar+1)(delta-cbar+1)={(c_bar + 1) * (delta - c_bar + 1)}"
        )
        results.append(CaseResult("residual-bound equality", label, passed, detail))
    return results
