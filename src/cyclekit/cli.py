"""Command-line front end.

Graphs are read from a file argument or stdin, and all reports go to
stdout.  The input's first token decides how it is read: ``p`` or ``c``
starts one DIMACS graph, a digit string one edge-list graph, and
anything else is one graph6 string per line.  ``--json`` switches every
command to line-delimited JSON records mirroring the human output
field-for-field.

Exit codes: 0 success, 1 a VIOLATED verdict or failed audit case was
found, 2 usage error or unreadable input, 3 internal error.

A process runs one subcommand, so this module imports only ``formats``
and ``graph`` and each subcommand imports the modules it runs.  With what
those import in turn, a process loads:

- ``construct``: ``families``;
- ``solve``: ``cycles``, and ``exact`` and ``invariants`` once a search
  needs its cuts;
- ``free``: ``structure`` and ``cycles``;
- ``invariants``: ``registry``, which loads ``cycles``, ``exact``,
  ``invariants`` and ``structure``;
- ``check`` and ``catalog``: ``registry`` and ``catalog``;
- ``audit``: ``registry``, ``catalog`` and, once a case builds its graph,
  ``families``;
- ``sweep``: ``registry``, ``catalog`` and ``sweep``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .formats import FormatError, encode_graph6, parse_document, parse_graph6
from .graph import Graph, GraphError

if TYPE_CHECKING:
    from .registry import TheoremSpec


def __getattr__(name: str):
    """``cli.check`` is ``registry.check``, looked up on each access (PEP
    562), for the benchmark tracer that patches it here.  ``_cmd_check``
    takes ``check`` from ``registry`` when it runs, so it never reads this
    attribute, nor the wrapper a tracer leaves bound to it."""
    if name == "check":
        from .registry import check

        return check
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The models ``_cmd_sweep`` builds graphs from, named here so that building
# the parser imports no ``sweep``
MODEL_NAMES = ("bipartite", "gnp", "regular")


class UsageError(Exception):
    pass


def _param_range(text: str) -> str:
    """Validate a nonempty ``lo..hi`` family parameter range at parse time."""
    try:
        lo, hi = map(int, text.split(".."))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: lo must not exceed hi")
    return text


def _probability(text: str) -> float:
    """An edge probability in [0, 1], checked at parse time."""
    try:
        p = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 <= p <= 1:
        raise argparse.ArgumentTypeError(f"probability must lie in [0, 1], got {text}")
    return p


def _int_at_least(low: int, name: str) -> Callable[[str], int]:
    """An argparse type: an integer >= low, checked at parse time."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {value}")
        return value

    return parse


_count = _int_at_least(0, "count")  # a graph count
_lambda = _int_at_least(1, "lambda")  # every catalog domain and PD/CD start at 1


def _theorem(theorem_id: str) -> TheoremSpec:
    """The catalog entry; an unknown id is a usage error."""
    from .catalog import get

    try:
        return get(theorem_id)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def _read_graphs(path: str | None) -> Iterator[tuple[str, Graph]]:
    """Yield (label, graph) pairs from a file or stdin.

    A DIMACS or edge-list document, told apart by ``parse_document``, is
    one graph; any other input is one graph6 string per line.
    """
    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path) as f:
            text = f.read()
    stripped = text.strip()
    g = parse_document(stripped)
    if g is not None:
        yield "input", g
        return
    for i, line in enumerate(stripped.splitlines()):
        line = line.strip()
        if not line:
            continue
        yield f"line {i + 1}", parse_graph6(line)


def _emit(args, record: dict, human: str) -> None:
    if args.json:
        print(json.dumps(record))
    else:
        print(human)


# -- subcommands ----------------------------------------------------------


def _cmd_invariants(args) -> int:
    from .registry import invariant_report

    for label, g in _read_graphs(args.graphs):
        g6 = encode_graph6(g)
        rep = invariant_report(g)
        _emit(args, {"graph": g6, **rep.to_record()},
              "\n".join([f"# {label} ({g6})", *rep.to_lines()]))
    return 0


def _cmd_solve(args) -> int:
    from .cycles import (
        CeilingError,
        circumference,
        every_longest_cycle_satisfies,
        exists_cycle_satisfying,
        hamiltonian,
        longest_path,
    )

    prob, prop = args.problem, args.prop
    for label, g in _read_graphs(args.graphs):
        g6 = encode_graph6(g)
        rec: dict = {"graph6": g6}
        try:
            if prob == "hamilton":
                cert = hamiltonian(g)
                rec["hamiltonian"] = cert is not None
                if cert is None:
                    msg = f"{g6}: non-hamiltonian"
                else:
                    rec["cycle"] = str(cert)
                    msg = f"{g6}: hamiltonian cycle {cert}"
            elif prob == "circumference":
                c, cert = circumference(g)
                rec.update(circumference=c, cycle=str(cert))
                msg = f"{g6}: c = {c}, cycle {cert}"
            elif prob == "longest-path":
                length, cert = longest_path(g)
                rec.update(longestPath=length, path=str(cert))
                msg = f"{g6}: longest path has {length} edges: {cert}"
            elif prob == "every-longest":
                ok, counter = every_longest_cycle_satisfies(g, prop, args.lam)
                rec.update(property=prop, everyLongest=ok)
                msg = f"{g6}: every longest cycle is {prop}"
                if not ok:
                    rec["counterexample"] = str(counter)
                    msg = f"{g6}: longest cycle {counter} is not {prop}"
            else:  # exists
                cert = exists_cycle_satisfying(g, prop, args.lam)
                rec.update(property=prop, exists=cert is not None)
                if cert is None:
                    msg = f"{g6}: no {prop} cycle"
                else:
                    rec["cycle"] = str(cert)
                    msg = f"{g6}: {prop} cycle of length {cert.length}: {cert}"
            if prob in ("every-longest", "exists") and args.lam is not None:
                rec["lambda"] = args.lam
        except CeilingError as exc:
            rec["ceiling"] = str(exc)
            msg = f"{g6}: ceiling: {exc}"
        _emit(args, rec, msg)
    return 0


def _cmd_free(args) -> int:
    from .structure import contains_induced, pattern

    pats = [(tok, pattern(tok)) for tok in args.patterns.split(",")]
    for label, g in _read_graphs(args.graphs):
        g6 = encode_graph6(g)
        hits = {}
        for tok, h in pats:
            emb = contains_induced(g, h)
            if emb is not None:
                hits[tok] = [emb[i] for i in range(h.n)]
        if hits:
            found = "; ".join(f"{tok} at {vs}" for tok, vs in hits.items())
            msg = f"{g6}: contains {found}"
        else:
            msg = f"{g6}: {{{args.patterns}}}-free"
        _emit(args, {"graph6": g6, "free": not hits, "embeddings": hits}, msg)
    return 0


def _cmd_construct(args) -> int:
    from .families import FAMILIES, build, list_families

    if args.family == "list":
        for fam in list_families():
            params = ", ".join(fam.params) if fam.params else "none"
            print(f"{fam.name}: params {params} -- {fam.description}")
        return 0
    if args.family not in FAMILIES:
        raise UsageError(
            f"unknown family {args.family!r}; run `cyclekit construct list`"
        )
    params: dict[str, int] = {}
    edges_out = args.edges
    rest = list(args.params)
    while rest:
        key = rest.pop(0)
        if key == "--edges":
            edges_out = True
            continue
        if key == "--graph6":
            edges_out = False
            continue
        if not key.startswith("--") or not rest:
            raise UsageError(f"family parameters look like --name value (got {key!r})")
        try:
            params[key[2:]] = int(rest.pop(0))
        except ValueError as exc:
            raise UsageError(f"parameter {key} needs an integer value") from exc
    g = build(args.family, **params)
    if edges_out:
        print(g.n, g.q)
        for u, v in g.edges():
            print(u, v)
    else:
        print(encode_graph6(g))
    return 0


def _cmd_check(args) -> int:
    from .catalog import catalog
    from .registry import ASSERTABLE_CLASSES, Profile, check

    specs = [_theorem(args.theorem)] if args.theorem else catalog()
    assume = args.assume or []
    for cls in assume:
        if cls not in ASSERTABLE_CLASSES:
            raise UsageError(
                f"--assume takes one of: {', '.join(sorted(ASSERTABLE_CLASSES))}"
            )
    bad = 0
    for label, g in _read_graphs(args.graphs):
        g6 = encode_graph6(g)
        pf = Profile(g)
        for spec in specs:
            v = check(pf, spec, assume, lam=args.lam)
            rec = {"graph6": g6, **v.to_record()}
            if assume:
                rec["assumed"] = assume
            suffix = f" [assumed: {', '.join(assume)}]" if assume else ""
            _emit(args, rec, f"{g6} {spec.id}: {v.kind} ({v.detail}){suffix}")
            bad += v.kind == "VIOLATED"
    return 1 if bad else 0


def _cmd_audit(args) -> int:
    from .registry import audit_sharpness

    spec = _theorem(args.theorem)
    results = audit_sharpness(spec, args.range)
    failed = 0
    for r in results:
        failed += not r.passed
        rec = {
            "theorem": spec.id,
            "case": r.case,
            "graph": r.graph_label,
            "passed": r.passed,
            "detail": r.detail,
            "warnings": r.warnings,
        }
        status = "PASS" if r.passed else "FAIL"
        warn = f" (warnings: {'; '.join(r.warnings)})" if r.warnings else ""
        _emit(args, rec, f"{spec.id} [{r.case}] {r.graph_label}: {status}{warn}")
        if not r.passed and not args.json:
            print(f"  {r.detail}")
    if not spec.sharpness:
        _emit(args, {"theorem": spec.id, "cases": 0},
              f"{spec.id}: no sharpness cases declared")
    return 1 if failed else 0


def _cmd_sweep(args) -> int:
    from .sweep import gnp, random_bipartite, random_regular, sweep

    if args.model == "gnp":
        gen = gnp(args.n, args.p, args.count, args.seed)
    elif args.model == "regular":
        if args.d is None:
            raise UsageError("--model regular needs --d")
        gen = random_regular(args.n, args.d, args.count, args.seed)
    else:
        if args.a is None or args.b is None:
            raise UsageError("--model bipartite needs --a and --b")
        gen = random_bipartite(args.a, args.b, args.p, args.count, args.seed)
    rep = sweep(gen, keep_records=args.json,
                include_quarantined=args.include_quarantined)
    if args.json:
        for r in rep.records:
            print(json.dumps(r.to_record()))
    else:
        print(rep.table())
    for g6, v in rep.violated:
        line = {"graph6": g6, **v.to_record()}
        print(json.dumps(line) if args.json else f"VIOLATED on {g6}: {line}",
              file=sys.stderr)
    return 1 if rep.violated else 0


def _cmd_catalog(args) -> int:
    from .catalog import catalog

    for spec in catalog():
        rec = {
            "id": spec.id,
            "title": spec.title,
            "statement": spec.statement,
            "nFloor": spec.n_floor,
            "parameterized": spec.lambdas is not None,
            "sharpnessCases": len(spec.sharpness),
            "quarantined": spec.quarantined,
        }
        if spec.notes:
            rec["notes"] = spec.notes
        quar = " [quarantined]" if spec.quarantined else ""
        _emit(args, rec, f"{spec.id:6s} {spec.title}: {spec.statement}{quar}")
    return 0


# -- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cyclekit",
        description="Exact invariants, cycle solvers and theorem checking for large-cycle graph theory.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, graphs=True):
        p.add_argument("--json", action="store_true",
                       help="line-delimited JSON records instead of human output")
        if graphs:
            p.add_argument("graphs", nargs="?", default=None,
                           help="input file (graph6 lines, edge list or DIMACS); default stdin")

    p = sub.add_parser("invariants", help="exact invariant report per graph")
    common(p)
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("solve", help="cycle and path solvers with certificates")
    p.add_argument("problem", choices=[
        "hamilton", "circumference", "longest-path", "every-longest", "exists"])
    # No choices: for the problems that take no property, a lone second
    # positional is the input file, which main() moves to graphs.
    p.add_argument("prop", nargs="?", metavar="{dominating,PD,CD}",
                   help="property for every-longest / exists")
    p.add_argument("--lambda", dest="lam", type=_lambda, default=None,
                   help="parameter for PD/CD properties")
    common(p)
    p.set_defaults(fn=_cmd_solve, solve_error=p.error)

    p = sub.add_parser("free", help="forbidden induced subgraph test")
    p.add_argument("--patterns", required=True,
                   help="comma-separated tokens, e.g. claw,P6,N_1_1_1,K33")
    common(p)
    p.set_defaults(fn=_cmd_free)

    p = sub.add_parser("construct", help="build a named extremal family member")
    p.add_argument("--edges", action="store_true",
                   help="emit edge-list text instead of graph6")
    p.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("family", help="family name, or 'list' to enumerate")
    p.add_argument("params", nargs=argparse.REMAINDER,
                   help="family parameters as --name value pairs")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("check", help="check catalog theorems against graphs")
    p.add_argument("--theorem", default=None, help="single theorem id (default: all)")
    p.add_argument("--assume", action="append", default=None,
                   help="assert an assertable-only class premise (repeatable)")
    p.add_argument("--lambda", dest="lam", type=_lambda, default=None,
                   help="fix the parameter of a parameterized theorem")
    common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("audit", help="run a theorem's declared sharpness cases")
    p.add_argument("--theorem", required=True)
    p.add_argument("--range", type=_param_range, default=None,
                   help="family parameter range, e.g. 3..6")
    common(p, graphs=False)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("sweep", help="seeded random-ensemble soundness sweep")
    p.add_argument("--model", choices=MODEL_NAMES, default="gnp")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--p", type=_probability, default=0.5)
    p.add_argument("--d", type=int, default=None, help="degree for --model regular")
    p.add_argument("--a", type=int, default=None, help="left side for --model bipartite")
    p.add_argument("--b", type=int, default=None, help="right side for --model bipartite")
    p.add_argument("--count", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--include-quarantined", action="store_true")
    common(p, graphs=False)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("catalog", help="list all theorem entries")
    common(p, graphs=False)
    p.set_defaults(fn=_cmd_catalog)

    return top


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code; internal errors propagate."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    props = ("dominating", "PD", "CD")
    if args.command == "solve" and args.prop is not None and args.prop not in props:
        if args.problem in ("every-longest", "exists") or args.graphs is not None:
            args.solve_error(f"argument prop: invalid choice: {args.prop!r} "
                             f"(choose from {', '.join(map(repr, props))})")
        args.prop, args.graphs = None, args.prop
    if args.command == "solve" and args.prop is not None and args.problem not in (
            "every-longest", "exists"):
        args.solve_error(f"solve {args.problem} takes no property argument")
    if args.command == "solve" and args.problem in ("every-longest", "exists"):
        if args.prop is None:
            parser.error(f"solve {args.problem} needs a property argument")
        if args.prop in ("PD", "CD") and args.lam is None:
            parser.error(f"solve {args.problem} {args.prop} needs --lambda")
    try:
        return args.fn(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (GraphError, FormatError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except OSError as exc:  # unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(argv: Sequence[str] | None = None) -> int:
    """The process entry point: ``main``, but an uncaught internal error is
    reported on one stderr line and exits 3, so that exit 1 still means
    VIOLATED."""
    try:
        return main(argv)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(run())
