"""Theorem verification engine: premises, conclusions, verdicts.

A TheoremSpec is a declarative record (premises, conclusion, parameter
domain, sharpness cases).  ``decide`` evaluates one theorem on one graph
and returns its verdict's kind, lambda and witness, plus what the detail
is formatted from; ``check`` formats that into a Verdict.  A sweep
throws the detail away unless the verdict is VIOLATED, and formatting
it and building the Verdict cost more than the decision itself on a
Profile that already holds its invariants, so the sweep reads decisions.
A VIOLATED verdict is reachable only through solver bugs, so the sweep
treats it as a defect alarm.  Each premise chooses its test once, on
first use, and every evaluation calls it; toughness and binding-number
thresholds compare integer bounds by cross-multiplication.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .cycles import (
    CeilingError,
    CycleCert,
    LongestCycles,
    _longest_cycle,  # not called here; kept as the name perfbench's tracer patches
    every_longest_cycle_satisfies,
    exists_cycle_satisfying,
)
from .exact import Exact, INF, fmt_exact
from .graph import Graph, mask_of, petersen
from .invariants import (
    cut_scan,
    delta_t,
    independence_number,
    binding_number,
    min_separator,
    sigma_t,
)
from .structure import (
    are_isomorphic,
    bipartition,
    contains_induced,
    is_balanced_bipartite,
    is_chordal,
    is_planar,
    is_regular,
    is_split,
)

SUPPORTED_CLASSES = (
    "bipartite",
    "balanced_bipartite",
    "regular",
    "chordal",
    "split",
    "planar",
    "connected",
)
ASSERTABLE_CLASSES = {
    "interval",
    "cocomparability",
    "spider",
    "comparability",
    "projective_planar",
    "square_of_2connected",
}


@cache
def _pattern_alpha(h: Graph) -> int:
    """alpha of a forbidden pattern, computed once per process on first use."""
    return independence_number(h)[0]


class Profile:
    """Lazily computed invariant bundle for one graph.

    Shared by every theorem checked against the same graph and by the
    invariant report, so the expensive exhaustive scans run at most once.
    """

    def __init__(self, g: Graph):
        self.g = g
        self._free: dict[Graph, bool] = {}

    def is_free_of(self, h: Graph) -> bool:
        """G has no induced h; each distinct pattern is searched at most once.

        No search is made when alpha(G) < alpha(h): an induced copy of h
        would carry an independent set of alpha(h) vertices into G, so the
        bound alone proves G h-free.  Nor for P_3, the one graph of three
        vertices and two edges: G is P_3-free iff every edge uv has
        N[u] = N[v], as an induced u-v-w has w in N[v] but not in N[u].
        """
        if h not in self._free:
            g = self.g
            if h.n == 3 and h.q == 2:
                closed = [row | 1 << v for v, row in enumerate(g.rows)]
                free = all(closed[u] == closed[v] for u, v in g.edges())
            else:
                free = self.alpha < _pattern_alpha(h) or contains_induced(g, h) is None
            self._free[h] = free
        return self._free[h]

    @cached_property
    def n(self) -> int:
        return self.g.n

    @cached_property
    def q(self) -> int:
        return self.g.q

    @cached_property
    def delta(self) -> int:
        return min(self.g.degrees(), default=0)

    @cached_property
    def Delta(self) -> int:
        return max(self.g.degrees(), default=0)

    @cached_property
    def separator(self) -> tuple[int, int]:
        """(kappa, a minimum separator as a bitmask), from one set of flows."""
        return min_separator(self.g)

    @cached_property
    def kappa(self) -> int:
        return self.separator[0]

    @cached_property
    def complete(self) -> bool:
        """Complete, K_0 and K_1 included: no vertex set disconnects G."""
        n = self.n
        return self.q == n * (n - 1) // 2

    @cached_property
    def tau(self) -> Exact:
        """Exact toughness, from the cut search bounded by this Profile's
        kappa and alpha; +inf for complete graphs, which need no search."""
        if self.complete:
            return INF
        return cut_scan(self)[0]

    @cached_property
    def tau_bounds(self) -> tuple[Exact, Exact]:
        """kappa/alpha <= tau <= kappa/2 (the upper bound is Chvatal's, 1973).

        Every cutset has at least kappa vertices and leaves at most alpha
        components; a minimum cutset leaves at least two.  A complete graph
        has tau = +inf, known without a scan.  ``_tau_cmp`` tests the same
        bounds in integers.
        """
        if self.complete:
            return INF, INF
        return Fraction(self.kappa, self.alpha), Fraction(self.kappa, 2)

    def tau_ge(self, x: Exact) -> bool:
        """tau >= x."""
        return self._tau_cmp(x, operator.ge)

    def tau_gt(self, x: Exact) -> bool:
        """tau > x."""
        return self._tau_cmp(x, operator.gt)

    def _tau_cmp(self, x: Exact, op: Callable[[int, int], bool]) -> bool:
        """op(tau, x) for op in (``operator.ge``, ``operator.gt``).  The
        bounds of ``tau_bounds`` are compared by cross-multiplying with x's
        numerator and denominator, and the exact tau is computed only when
        they straddle x."""
        if isinstance(x, float):  # INF, the one float an Exact holds
            return self.complete and op is operator.ge
        if self.complete:
            return True
        p, q = x.numerator, x.denominator
        kq = self.kappa * q
        if op(kq, p * self.alpha):
            return True
        if not op(kq, 2 * p):
            return False
        tau = self.tau
        return op(tau.numerator * q, p * tau.denominator)

    @cached_property
    def independent_set(self) -> tuple[int, list[int]]:
        """(alpha, a maximum independent set), from one branch and bound."""
        return independence_number(self.g)

    @cached_property
    def alpha(self) -> int:
        return self.independent_set[0]

    @cached_property
    def binding(self) -> Exact:
        """Woodall's binding number; +inf on K_0, where no X qualifies."""
        if self.n == 0:
            return INF
        return binding_number(self.g)[0]

    def binding_ge(self, x: Exact) -> bool:
        """b >= x.  Woodall's bound
        b <= (n - 1) / (n - delta) (1973; X = V - N(u) for u of minimum
        degree, which leaves u out of N(X)) rules x out first, compared by
        cross-multiplication.  Otherwise ``binding_number(g, x)`` decides it
        in polynomial time, by a counting bound and a max-flow test, so
        the exact b is not computed; it is compared instead when already
        held, or when an isolated vertex (delta = 0) makes it 0 at once."""
        n = self.n
        if isinstance(x, float):  # INF: b = +inf only on K_0
            return not n
        if n and (n - 1) * x.denominator < x.numerator * (n - self.delta):
            return False
        if not self.delta or "binding" in self.__dict__:
            return self.binding >= x
        return binding_number(self.g, x)[0] >= x

    @cached_property
    def sigma2(self) -> Exact:
        return sigma_t(self.g, 2)

    @cached_property
    def sigma3(self) -> Exact:
        return sigma_t(self.g, 3)

    @cached_property
    def delta2(self) -> Exact:
        return delta_t(self.g, 2)

    @cached_property
    def delta3(self) -> Exact:
        return delta_t(self.g, 3)

    @cached_property
    def cycles(self) -> LongestCycles:
        """c, its validated witness and the cycle vertex sets by length,
        shared by every longest-cycle conclusion and every lambda.  Should
        the search pass its floor budget, its cuts are this Profile's
        minimum separator and the complement of its maximum independent
        set, beside the search's own greedy cut, the complement of a
        maximal independent set grown by ascending degree."""
        g = self.g
        return LongestCycles(g, lambda: (
            self.separator[1], g.full_mask ^ mask_of(self.independent_set[1])))

    @property
    def c(self) -> int:
        return self.cycles.c

    @property
    def is_hamiltonian(self) -> bool:
        return self.c == self.n

    @cached_property
    def bipartite(self) -> bool:
        return bipartition(self.g) is not None

    @cached_property
    def balanced_bipartite(self) -> bool:
        return is_balanced_bipartite(self.g)

    @cached_property
    def regular(self) -> bool:
        return is_regular(self.g)

    @cached_property
    def chordal(self) -> bool:
        return is_chordal(self.g)

    @cached_property
    def split(self) -> bool:
        return is_split(self.g)

    @cached_property
    def planar(self) -> bool:
        return is_planar(self.g)

    @cached_property
    def connected(self) -> bool:
        return self.g.is_connected()

    @cached_property
    def is_petersen(self) -> bool:
        return are_isomorphic(self.g, petersen())


def _profile(g: Graph | Profile) -> Profile:
    return g if isinstance(g, Profile) else Profile(g)


def class_predicates(g: Graph | Profile) -> dict[str, bool]:
    """Exact class flags, in ``SUPPORTED_CLASSES`` order."""
    pf = _profile(g)
    return {name: getattr(pf, name) for name in SUPPORTED_CLASSES}


# -- invariant report -----------------------------------------------------


class InvariantReport(NamedTuple):
    n: int
    q: int
    delta: int
    Delta: int
    degree_sequence: list[int]
    kappa: int
    alpha: int
    tau: Exact
    binding: Exact
    sigma: dict[int, Exact]
    delta_dist: dict[int, Exact]
    flags: dict[str, bool]

    def to_lines(self) -> list[str]:
        """``to_record``'s fields as "name value" lines, the degrees space
        separated and the class flags last, by name, in lower case."""
        rec = self.to_record()
        rec["degrees"] = " ".join(map(str, self.degree_sequence))
        flags = [f"{name} {str(rec.pop(name)).lower()}" for name in sorted(self.flags)]
        return [f"{key} {value}" for key, value in rec.items()] + flags

    def to_record(self) -> dict:
        rec = {
            "n": self.n,
            "q": self.q,
            "delta": self.delta,
            "Delta": self.Delta,
            "degrees": self.degree_sequence,
            "kappa": self.kappa,
            "alpha": self.alpha,
            "tau": fmt_exact(self.tau),
            "binding": fmt_exact(self.binding),
        }
        rec.update({f"sigma_{t}": fmt_exact(v) for t, v in self.sigma.items()})
        rec.update({f"delta_{t}": fmt_exact(v) for t, v in self.delta_dist.items()})
        rec.update(self.flags)
        return rec


def invariant_report(g: Graph | Profile) -> InvariantReport:
    """Full invariant bundle for one graph, class flags included, read off
    one Profile: the exact tau is the only cut search, and complete graphs
    need none."""
    pf = _profile(g)
    return InvariantReport(
        n=pf.n,
        q=pf.q,
        delta=pf.delta,
        Delta=pf.Delta,
        degree_sequence=sorted(pf.g.degrees()),
        kappa=pf.kappa,
        alpha=pf.alpha,
        tau=pf.tau,
        binding=pf.binding,
        sigma={2: pf.sigma2, 3: pf.sigma3},
        delta_dist={2: pf.delta2, 3: pf.delta3},
        flags=class_predicates(pf),
    )


# -- label compiler -------------------------------------------------------
#
# A numeric premise or a circumference bound is written once, as its printed
# label, and compiled into exact Python.  Regex rules turn the printed
# notation into Python syntax for the ast module.  Every subexpression is
# carried as a numerator and a denominator: a comparison is cross-multiplied
# when each denominator is a positive constant or lambda plus a constant
# (every lambda is at least 1), and any other quotient is a Fraction.

_REWRITES = (
    (r"b\(G\)", "binding"),
    (r"\blambda\b", "lam"),
    (r"([a-z])_(\d)", r"\1\2"),  # sigma_2, delta_2
    (r"\^", "**"),
    (r"\{", "("),
    (r"\}", ")"),
    (r"(?<![\w.])(\d+)(?=[A-Za-z(])", r"\1*"),  # 2delta, 3(delta-1)
    (r"\)(?=[\w(])", ")*"),  # (p+2)(delta-p)
)
_PROFILE_NAMES = frozenset(("n", "q", "delta", "Delta", "kappa", "alpha", "tau", "binding",
                            "sigma2", "sigma3", "delta2", "delta3"))
_RELATIONS = {ast.Gt: ">", ast.GtE: ">=", ast.Lt: "<", ast.LtE: "<="}
_SUMS = {ast.Add: "+", ast.Sub: "-"}
_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "**": operator.pow}
_POSITIVE = r"[1-9]\d*|lam( \+ \d+)?"  # a positive constant or lambda plus one


def _apply(a: int | str, op: str, b: int | str) -> int | str:
    """The source of ``a op b``, folded when both are constants or a factor is 1."""
    if isinstance(a, int) and isinstance(b, int):
        return _FOLD[op](a, b)
    if op == "*" and 1 in (a, b):
        return b if a == 1 else a
    return f"({a} {op} {b})"


def _product(a: tuple, b: tuple) -> tuple:
    return _apply(a[0], "*", b[0]), _apply(a[1], "*", b[1]), a[2] and b[2]


def _compile(label: str, params: str) -> Callable:
    """``lambda <params>: <label>`` in exact arithmetic; ValueError outside the grammar."""
    source = label
    for pattern, repl in _REWRITES:
        source = re.sub(pattern, repl, source)
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError:
        raise ValueError(f"label {label!r} is outside the grammar") from None
    names = {name: name for name in params.split(", ")[1:]}
    names.update((name, f"pf.{name}") for name in _PROFILE_NAMES)
    env: dict[str, object] = {"Fraction": Fraction}

    def fail(node: ast.AST):
        raise ValueError(f"{ast.unparse(node)!r} in label {label!r} is outside the grammar")

    def value(t: tuple) -> int | str:
        num, den, _ = t
        if den == 1:
            return num
        if isinstance(num, int) and isinstance(den, int):  # a constant, built once
            env[f"_k{len(env)}"] = Fraction(num, den)
            return f"_k{len(env) - 1}"
        return f"Fraction({num}, {den})"

    def term(node: ast.expr) -> tuple:
        """(numerator, denominator, whether the denominator is known positive)."""
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value, 1, True
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id], 1, True
        if isinstance(node, ast.BinOp):
            (an, ad, ap), (bn, bd, bp) = term(node.left), term(node.right)
            if isinstance(node.op, ast.Pow) and isinstance(bn, int) and bd == 1 and bn >= 0:
                return _apply(an, "**", bn), _apply(ad, "**", bn), ap
            if isinstance(node.op, ast.Mult):
                return _product((an, ad, ap), (bn, bd, bp))
            if isinstance(node.op, ast.Div):
                pos = ap and bool(re.fullmatch(_POSITIVE, ast.unparse(node.right)))
                return _apply(an, "*", bd), _apply(ad, "*", bn), pos
            op = _SUMS.get(type(node.op)) or fail(node)
            if ad == bd:
                return _apply(an, op, bn), ad, ap
            return _apply(_apply(an, "*", bd), op, _apply(bn, "*", ad)), _apply(ad, "*", bd), ap and bp
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
            name, args = node.func.id, [term(arg) for arg in node.args]
            if name in ("min", "max") and len(args) > 1:
                return f"{name}({', '.join(str(value(t)) for t in args)})", 1, True
            if name == "ceil" and len(args) == 1:
                num, den, _ = args[0]
                return (num if den == 1 else f"(-(-{num} // {den}))"), 1, True
            if name in names and len(args) == 1:  # n(n-2delta)
                return _product(term(node.func), args[0])
        fail(node)

    def relation(left: ast.expr, op: ast.cmpop, right: ast.expr) -> list[str]:
        sym = _RELATIONS.get(type(op)) or fail(tree)
        if sym[0] == ">" and isinstance(right, ast.Call) and getattr(right.func, "id", "") == "max":
            return [part for arg in right.args for part in relation(left, op, arg)]
        r = term(right)
        if isinstance(left, ast.Name) and left.id == "tau" and sym[0] == ">":
            return [f"pf.tau_{'ge' if sym == '>=' else 'gt'}({value(r)})"]
        if isinstance(left, ast.Name) and left.id == "binding" and sym == ">=":
            return [f"pf.binding_ge({value(r)})"]
        ln, ld, lp = term(left)
        if lp and r[2]:
            return [f"{_apply(ln, '*', r[1])} {sym} {_apply(r[0], '*', ld)}"]
        return [f"{value((ln, ld, lp))} {sym} {value(r)}"]

    if isinstance(tree, ast.Compare):
        sides = [tree.left, *tree.comparators]
        body = " and ".join(part for left, op, right in zip(sides, tree.ops, sides[1:])
                            for part in relation(left, op, right))
    else:
        body = str(value(term(tree)))
    return eval(f"lambda {params}: {body}", env)


# -- premises -------------------------------------------------------------


class Premise:
    """One premise, by ``kind``: "numeric" (``given``, else the compiled
    label), "free" (no induced ``patterns``) or "class" (``cls``)."""

    def __init__(
        self,
        label: str,
        kind: str,
        given: Callable[[Profile, int | None], bool] | None = None,
        patterns: tuple[Graph, ...] = (),
        cls: str | None = None,
    ):
        self.label = label
        self.kind = kind
        self.given = given
        self.patterns = patterns
        self.cls = cls

    @cached_property
    def fn(self) -> Callable[[Profile, int | None], bool] | None:
        """The premise's test, chosen on first use: the function given or the
        compiled label, pattern freeness, the class flag, or None for an
        assertable-only class."""
        if self.kind == "numeric":
            return self.given or _compile(self.label, "pf, lam")
        if self.kind == "free":
            patterns = self.patterns
            return lambda pf, lam: all(pf.is_free_of(h) for h in patterns)
        if self.cls in ASSERTABLE_CLASSES:
            return None
        cls = self.cls
        return lambda pf, lam: getattr(pf, cls)

    def evaluate(self, pf: Profile, lam: int | None, assume: frozenset[str]) -> bool | None:
        """True/False, or None when the premise is assertable-only and unasserted."""
        if self.cls in assume:
            return True
        test = self.fn
        return None if test is None else test(pf, lam)


def numeric(label: str, fn: Callable[[Profile, int | None], bool] | None = None) -> Premise:
    """A premise on the Profile's numbers; without ``fn`` its label is
    compiled on first use."""
    return Premise(label, "numeric", given=fn)


def free_of(label: str, *patterns: Graph) -> Premise:
    return Premise(label, "free", patterns=tuple(patterns))


def in_class(cls: str) -> Premise:
    return Premise(f"G is {cls}", "class", cls=cls)


# -- conclusions ----------------------------------------------------------


class Outcome:
    """A conclusion's answer on one graph: whether it holds, why, and the witness."""

    __slots__ = ("ok", "detail", "witness")

    def __init__(self, ok: bool, detail: str, witness: object = None):
        self.ok = ok
        self.detail = detail
        self.witness = witness


class BoundOutcome:
    """An ``Outcome`` that compares c with a bound, from ``Bound`` and from
    ``ResidualBound``'s worst case.  Its detail is ``text`` filled with c
    and the bound, formatted only when read: a sweep reads it only for a
    VIOLATED verdict, and takes c - bound as its slack."""

    __slots__ = ("ok", "text", "c", "bound", "witness")

    def __init__(self, ok: bool, text: str, c: int, bound: Exact, witness: object = None):
        self.ok = ok
        self.text = text
        self.c = c
        self.bound = bound
        self.witness = witness

    @property
    def detail(self) -> str:
        return self.text.format(self.c, fmt_exact(self.bound))


class Conclusion:
    label = "conclusion"

    def check(self, pf: Profile, lam: int | None) -> Outcome:
        raise NotImplementedError


class Ham(Conclusion):
    label = "G is hamiltonian"

    def check(self, pf: Profile, lam: int | None) -> Outcome:
        if pf.is_hamiltonian:
            return Outcome(True, "hamiltonian", pf.cycles.cycle)
        return Outcome(False, f"non-hamiltonian (c={pf.c} < n={pf.n})")


class ExistsProp(Conclusion):
    """Some cycle with the given domination property exists."""

    def __init__(self, prop: str, lam_fn: Callable[[Profile, int | None], int] | None = None):
        self.prop = prop
        self.lam_fn = lam_fn
        self.label = f"G has a {prop} cycle"

    def check(self, pf: Profile, lam: int | None) -> Outcome:
        eff = self.lam_fn(pf, lam) if self.lam_fn else None
        cert = exists_cycle_satisfying(pf.cycles, self.prop, eff)
        if cert is not None:
            return Outcome(True, f"{self.prop} cycle of length {cert.length}", cert)
        return Outcome(False, f"no {self.prop} cycle exists")


class EveryLongestProp(Conclusion):
    """Every longest cycle has the given domination property."""

    def __init__(self, prop: str, lam_fn: Callable[[Profile, int | None], int] | None = None):
        self.prop = prop
        self.lam_fn = lam_fn
        self.label = f"every longest cycle is a {prop} cycle"

    def check(self, pf: Profile, lam: int | None) -> Outcome:
        eff = self.lam_fn(pf, lam) if self.lam_fn else None
        ok, counter = every_longest_cycle_satisfies(pf.cycles, self.prop, eff)
        if ok:
            return Outcome(True, f"all longest cycles (length {pf.c}) are {self.prop}")
        return Outcome(False, f"longest cycle {counter} is not {self.prop}", counter)


class Bound(Conclusion):
    """Circumference lower bound c >= expr (or strictly >); without ``expr``
    the label is compiled on first use."""

    def __init__(self, label: str, expr: Callable[[Profile, int | None], Exact] | None = None,
                 strict: bool = False):
        rel = ">" if strict else ">="
        self.label = f"c {rel} {label}"
        self.term = label
        self.given = expr
        self.strict = strict
        self.texts = (f"c={{}} not {rel} {{}}", f"c={{}} {rel} {{}}")  # by whether it holds

    @cached_property
    def expr(self) -> Callable[[Profile, int | None], Exact]:
        return self.given or _compile(self.term, "pf, lam")

    def check(self, pf: Profile, lam: int | None) -> BoundOutcome:
        bound = self.expr(pf, lam)
        c = pf.c
        if c > bound if self.strict else c >= bound:
            return BoundOutcome(True, self.texts[1], c, bound, pf.cycles.cycle)
        return BoundOutcome(False, self.texts[0], c, bound)


class ResidualBound(Conclusion):
    """Per-longest-cycle bound on c in terms of the residual parameters.

    ``bound(pf, p_bar, c_bar, lam)`` gives the claimed lower bound for a
    longest cycle with those residuals.  Spanning longest cycles carry no
    claim.  The longest cycles are not looked at whenever even the worst
    feasible residual pair cannot beat c.  Otherwise the residuals depend
    only on the off-cycle set, so each longest cycle's vertex set from the
    subset DP is checked once, and a cycle is searched for only as the
    counterexample of a failing set: the first in ``cycles_of_length``
    order.  That check is capped, as every read of the DP's cycle sets is,
    at ``cycles.ENUMERATION_CEILING`` (20) vertices.
    Without ``bound`` the label is compiled on first use.
    """

    def __init__(self, label: str,
                 bound: Callable[[Profile, int, int, int | None], Exact] | None = None):
        self.label = f"c >= {label} for every longest cycle"
        self.term = label
        self.given = bound

    @cached_property
    def bound(self) -> Callable[[Profile, int, int, int | None], Exact]:
        return self.given or _compile(self.term, "pf, p, cbar, lam")

    def check(self, pf: Profile, lam: int | None) -> Outcome:
        n, c = pf.n, pf.c
        if c == n:
            return Outcome(True, "longest cycles span; no residual claim")
        rest = n - c
        worst: Exact = 0
        for p_bar in range(rest):
            for c_bar in range(1, rest + 1):
                b = self.bound(pf, p_bar, c_bar, lam)
                if b > worst:
                    worst = b
        if c >= worst:
            return BoundOutcome(True, "c={} >= worst-case residual bound {}", c, worst)

        lc = pf.cycles

        def fails(off: int) -> bool:
            return c < self.bound(pf, lc.p_bar(off), lc.c_bar(off), lam)

        for cert in _enumerate_longest(pf, fails):
            off = pf.g.full_mask ^ cert.mask()
            p_bar, c_bar = lc.p_bar(off), lc.c_bar(off)
            return Outcome(
                False,
                f"cycle {cert}: residuals p={p_bar}, cbar={c_bar} "
                f"demand c >= {fmt_exact(self.bound(pf, p_bar, c_bar, lam))} > {c}",
                cert,
            )
        return Outcome(True, f"bound verified over all longest cycles (c={c})")


def _enumerate_longest(pf: Profile, fails: Callable[[int], bool]) -> tuple[CycleCert, ...]:
    """The first longest cycle whose off-cycle set ``fails``, if there is one."""
    cert = pf.cycles.first_cycle(pf.c, fails)
    return () if cert is None else (cert,)


class Disjunction(Conclusion):
    def __init__(self, first: Conclusion, second: Conclusion):
        self.first = first
        self.second = second
        self.label = f"({first.label}) or ({second.label})"

    def check(self, pf: Profile, lam: int | None) -> Outcome:
        a = self.first.check(pf, lam)
        if a.ok:
            return a
        b = self.second.check(pf, lam)
        if b.ok:
            return b
        return Outcome(False, f"both branches fail: {a.detail}; {b.detail}")


class NamedGraphEscape(Conclusion):
    """Disjunct of the form "... or G is the Petersen graph"."""

    def __init__(self, inner: Conclusion):
        self.inner = inner
        self.label = f"({inner.label}) or G = Petersen"

    def check(self, pf: Profile, lam: int | None) -> Outcome:
        out = self.inner.check(pf, lam)
        if out.ok:
            return out
        if pf.is_petersen:
            return Outcome(True, "G is the Petersen graph (named escape)")
        return out


# -- theorem specs and verdicts ------------------------------------------


class SharpnessCase(NamedTuple):
    label: str
    role: str  # premise-tight | conclusion-tight | premise-necessary | residual-equality
    run: Callable[["TheoremSpec", str | None], list["CaseResult"]]


class CaseResult:
    """One sharpness case's result on one graph."""

    __slots__ = ("case", "graph_label", "passed", "detail", "warnings")

    def __init__(self, case: str, graph_label: str, passed: bool, detail: str,
                 warnings: Sequence[str] = ()):
        self.case = case
        self.graph_label = graph_label
        self.passed = passed
        self.detail = detail
        self.warnings = warnings


class TheoremSpec:
    """One catalog entry: premises, conclusion, parameter domain
    (``lambdas``) and sharpness cases."""

    def __init__(
        self,
        id: str,
        title: str,
        statement: str,
        conclusion: Conclusion,
        premises: Sequence[Premise] = (),
        n_floor: int = 3,
        lambdas: Callable[[Profile], Iterable[int]] | None = None,
        sharpness: Sequence[SharpnessCase] = (),
        notes: str = "",
        quarantined: bool = False,
    ):
        self.id = id
        self.title = title
        self.statement = statement
        self.conclusion = conclusion
        self.premises = premises
        self.n_floor = n_floor
        self.lambdas = lambdas
        self.sharpness = sharpness
        self.notes = notes
        self.quarantined = quarantined


# The one dataclass in the package: perfbench's gate forges verdicts with
# ``dataclasses.replace``.  Every other record is a NamedTuple or a plain
# class, which costs far less to create at import.  Those that checks and
# audits build or read per graph are plain classes: in Python 3.11 reading
# a NamedTuple field takes about twice as long as reading an attribute.
@dataclass
class Verdict:
    theorem_id: str
    kind: str  # inapplicable | vacuous | holds | VIOLATED | ceiling
    detail: str
    lam: int | None = None
    witness: object = None

    def to_record(self) -> dict:
        rec = {"theorem": self.theorem_id, "verdict": self.kind, "detail": self.detail}
        if self.lam is not None:
            rec["lambda"] = self.lam
        if self.witness is not None:
            rec["witness"] = str(self.witness)
        return rec


_NOTHING_ASSUMED: frozenset[str] = frozenset()

# A decision: (kind, lambda, witness, why), where ``why`` is what the
# Verdict's detail is formatted from (``_detail``).
Decision = tuple[str, "int | None", object, object]


def decide(
    pf: Graph | Profile,
    spec: TheoremSpec,
    assume: Iterable[str] = (),
    lam: int | None = None,
) -> Decision:
    """Decide one theorem on one graph: (kind, lambda, witness, why).

    Premises are evaluated in order; an unsupported class premise that is
    not asserted makes the theorem inapplicable, a failing premise makes
    it vacuous, and so does an order below the spec's ``n_floor``.
    Parameterized theorems iterate their feasible lambda range unless a
    fixed lambda is given; every lambda domain starts at 1, so a fixed
    lambda below 1 is a ValueError.  Over a range, the first VIOLATED
    lambda wins, then the first ceiling, then the first inapplicable;
    several lambdas that hold are summed up as one verdict without a
    lambda, and so are several that are all vacuous.

    ``why`` is what ``check`` formats the Verdict's detail from, and
    nothing is formatted here.  A sweep reads the decision alone and
    builds a Verdict only for a VIOLATED one, so the detail of every
    other (graph, theorem) pair is never formatted.
    """
    if lam is not None and lam < 1:
        raise ValueError("lambda must be >= 1")
    pf = _profile(pf)
    if pf.n < spec.n_floor:
        return "vacuous", None, None, ("n={} below floor {}", pf.n, spec.n_floor)
    assume_set = frozenset(assume) if assume else _NOTHING_ASSUMED
    if spec.lambdas is None or lam is not None:
        return _decide_at(pf, spec, assume_set, lam)
    lams = list(spec.lambdas(pf))
    if not lams:
        return "vacuous", None, None, ("empty parameter domain",)
    results = [_decide_at(pf, spec, assume_set, lv) for lv in lams]
    kinds = [r[0] for r in results]
    for kind in ("VIOLATED", "ceiling", "inapplicable"):
        if kind in kinds:
            return results[kinds.index(kind)]
    held = [r[1] for r in results if r[0] == "holds"]
    if len(held) > 1:
        return "holds", None, None, ("holds for lambda in {}", held)
    if held:
        return results[kinds.index("holds")]
    return results[0] if len(results) == 1 else ("vacuous", None, None, results[:4])


def _decide_at(pf: Profile, spec: TheoremSpec, assume: frozenset[str], lam: int | None) -> Decision:
    for prem in spec.premises:
        try:
            val = prem.evaluate(pf, lam, assume)
        except ZeroDivisionError:
            return "vacuous", lam, None, ("premise '{}' undefined", prem.label)
        if val is None:
            return "inapplicable", lam, None, ("premise '{}' is not decidable here", prem.label)
        if not val:
            return "vacuous", lam, None, ("premise fails: {}", prem.label)
    try:
        out = spec.conclusion.check(pf, lam)
    except CeilingError as exc:
        return "ceiling", lam, None, ("{}", exc)
    return "holds" if out.ok else "VIOLATED", lam, out.witness, out


def _detail(why: object) -> str:
    """A decision's detail: from a (format, *args) tuple, from the
    decisions of every lambda of a vacuous range (the first four, each
    with its lambda), or a conclusion's ``Outcome``."""
    if isinstance(why, tuple):
        return why[0].format(*why[1:])
    if isinstance(why, list):
        return "; ".join(f"lambda={lam}: {_detail(sub)}" for _, lam, _, sub in why)
    return why.detail


def check(
    g: Graph | Profile,
    spec: TheoremSpec,
    assume: Iterable[str] = (),
    lam: int | None = None,
) -> Verdict:
    """Evaluate one theorem on one graph: ``decide``'s decision, with its
    detail formatted, as a Verdict."""
    kind, lam, witness, why = decide(g, spec, assume, lam)
    return Verdict(spec.id, kind, _detail(why), lam, witness)


class Report(NamedTuple):
    verdicts: list[Verdict]

    @property
    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for v in self.verdicts:
            tally[v.kind] = tally.get(v.kind, 0) + 1
        return tally

    @property
    def violated(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.kind == "VIOLATED"]


def check_all(
    g: Graph | Profile,
    specs: Sequence[TheoremSpec] | None = None,
    assume: Iterable[str] = (),
    include_quarantined: bool = True,
) -> Report:
    """Run the full catalog against one graph, sharing one Profile."""
    from .catalog import catalog

    pf = _profile(g)
    if specs is None:
        specs = catalog()
    verdicts = []
    for spec in specs:
        if not include_quarantined and spec.quarantined:
            continue
        verdicts.append(check(pf, spec, assume))
    return Report(verdicts)


def audit_sharpness(spec: TheoremSpec, param_range: str | None = None) -> list[CaseResult]:
    """Run every declared sharpness case for one theorem."""
    results: list[CaseResult] = []
    for case in spec.sharpness:
        results.extend(case.run(spec, param_range))
    return results


# -- sharpness case constructors ------------------------------------------

GraphList = Callable[[str | None], list[tuple[str, Graph]]]
FailCheck = Callable[[Profile], tuple[bool, str]]


def _premise_status(
    spec: TheoremSpec,
    pf: Profile,
    lam: int | None,
    skip: tuple[str, ...] = (),
    waive: tuple[str, ...] = (),
) -> tuple[bool, list[str], list[str]]:
    """Evaluate all premises except the skipped ones.

    Waived premises may fail; the failure is reported as a warning instead
    of sinking the case (used where the paper's own example contradicts a
    premise it is supposed to satisfy).
    """
    ok = True
    notes: list[str] = []
    warnings: list[str] = []
    for prem in spec.premises:
        if prem.label in skip:
            continue
        val = prem.evaluate(pf, lam, frozenset())
        if val:
            notes.append(f"{prem.label}: holds")
        elif prem.label in waive:
            warnings.append(f"premise '{prem.label}' fails on this example (waived)")
        else:
            ok = False
            notes.append(f"{prem.label}: FAILS")
    return ok, notes, warnings


def premise_tight_case(
    label: str,
    graphs: GraphList,
    target: str,
    relaxed: Premise | None = None,
    lam: int | None = None,
    waive: tuple[str, ...] = (),
    conclusion_fails: FailCheck | None = None,
) -> SharpnessCase:
    """Role (i): the target premise fails, its declared relaxation holds,
    every other premise holds, and the conclusion fails.  With no
    relaxation this is role (iii), premise-necessary: dropping the target
    premise entirely admits the example."""

    def run(spec: TheoremSpec, param_range: str | None) -> list[CaseResult]:
        results = []
        for glabel, g in graphs(param_range):
            pf = Profile(g)
            ok, notes, warnings = _premise_status(spec, pf, lam, skip=(target,), waive=waive)
            tgt = next(p for p in spec.premises if p.label == target)
            tgt_holds = bool(tgt.evaluate(pf, lam, frozenset()))
            rel_holds = relaxed is None or relaxed.fn(pf, lam)
            if conclusion_fails is not None:
                failed, fail_detail = conclusion_fails(pf)
            else:
                try:
                    out = spec.conclusion.check(pf, lam)
                except CeilingError as exc:
                    failed, fail_detail = False, f"ceiling: {exc}"
                else:
                    failed, fail_detail = not out.ok, out.detail
            passed = ok and not tgt_holds and rel_holds and failed
            if relaxed is None:
                status = (f"dropped '{target}' "
                          f"{'holds (unexpected)' if tgt_holds else 'fails as required'}")
            else:
                status = (f"original '{target}' {'holds (unexpected)' if tgt_holds else 'fails'}; "
                          f"relaxed '{relaxed.label}' {'holds' if rel_holds else 'FAILS'}")
            detail = f"{status}; conclusion: {fail_detail}; " + "; ".join(notes)
            results.append(CaseResult(label, glabel, passed, detail, warnings))
        return results

    return SharpnessCase(label, "premise-necessary" if relaxed is None else "premise-tight", run)


def conclusion_tight_case(
    label: str,
    graphs: GraphList,
    equality: FailCheck | None = None,
    stronger_fails: FailCheck | None = None,
    lam: int | None = None,
    waive: tuple[str, ...] = (),
) -> SharpnessCase:
    """Role (ii): premises hold and the bound is met with equality, or the
    declared stronger conclusion fails."""

    def run(spec: TheoremSpec, param_range: str | None) -> list[CaseResult]:
        results = []
        for glabel, g in graphs(param_range):
            pf = Profile(g)
            ok, notes, warnings = _premise_status(spec, pf, lam, waive=waive)
            passed = ok
            parts = list(notes)
            for check_fn, what in ((equality, "equality"), (stronger_fails, "stronger conclusion fails")):
                if check_fn is None:
                    continue
                good, detail = check_fn(pf)
                passed = passed and good
                parts.append(f"{what}: {detail}" + ("" if good else " [FAILS]"))
            results.append(CaseResult(label, glabel, passed, "; ".join(parts), warnings))
        return results

    return SharpnessCase(label, "conclusion-tight", run)
