"""In-memory span tracer that wraps cyclekit's layer boundaries from outside.

A span is ``[name, start, end, parent, nested]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``nested`` marks a span opened
while another span of the same name was open, so inclusive totals count
each interval once.  Spans wrap the functions that each consuming module
imported (for example the ``cut_scan`` that ``registry`` calls), so the
program runs the same calls in the same order with or without tracing;
no wrapper ever computes anything the program would not have computed.

Run as a script, this module executes ``cyclekit.cli.main`` under the
tracer and writes its spans to stderr as one ``PERFBENCH_TRACE`` line;
the benchmark uses that to trace the processes of the CLI pipeline.
"""

from __future__ import annotations

import contextlib
import json
import sys
from functools import cached_property
from time import perf_counter

TRACE_MARK = "PERFBENCH_TRACE "

# Span names are "<module>.<boundary>"; these are the modules reported on.
MODULES = ("invariants", "cycles", "structure", "registry", "sweep", "formats", "cli")


class Tracer:
    """Span recorder plus the monkey-patches that feed it.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original attributes.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.paused = False

    # -- recording --------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        depth = self._open.get(name, 0)
        self._open[name] = depth + 1
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, depth > 0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    @contextlib.contextmanager
    def pause(self):
        """Run calls inside the block untraced and uncounted."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def wrap(self, name: str, fn, on_result=None):
        calls = self.calls
        calls.setdefault(name, 0)

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            calls[name] += 1
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """For a function returning a generator: one call per invocation,
        one span for the invocation and one per resumption."""
        calls = self.calls
        calls.setdefault(name, 0)

        def resume(it):
            while True:
                idx = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                yield item

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            calls[name] += 1
            idx = self._enter(name)
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                self._exit(idx)
            return resume(it)

        return traced

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tr: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from cyclekit import cli, cycles, registry, sweep

    def both(name, fn, owners, attr):
        wrapped = tr.wrap(name, fn)
        for owner in owners:
            tr.patch(owner, attr, wrapped)

    # invariants, as registry consumes them
    tr.patch(registry, "cut_scan", tr.wrap("invariants.cut_scan", registry.cut_scan))
    tr.patch(registry, "binding_number", tr.wrap("invariants.binding_number", registry.binding_number))
    for attr in ("independence_number", "sigma_t", "delta_t"):
        tr.patch(registry, attr, tr.wrap("invariants.other", getattr(registry, attr)))

    # cycles, as registry and cycles' own predicates consume them
    both("cycles.longest_cycle", cycles._longest_cycle, (registry, cycles), "_longest_cycle")
    both("cycles.longest_path", cycles.longest_path, (cycles,), "longest_path")
    for attr in ("every_longest_cycle_satisfies", "exists_cycle_satisfying"):
        tr.patch(registry, attr, tr.wrap("cycles.enumerate", getattr(registry, attr)))
    tr.patch(registry, "_enumerate_longest",
             tr.wrap_generator("cycles.enumerate", registry._enumerate_longest))
    tr.patch(cycles, "circumference", tr.wrap("cycles.circumference", cycles.circumference))

    # structure, as registry consumes it
    tr.patch(registry, "is_planar", tr.wrap("structure.is_planar", registry.is_planar))
    tr.patch(registry, "contains_induced", tr.wrap("structure.contains_induced", registry.contains_induced))
    for attr in ("bipartition", "is_balanced_bipartite", "is_chordal", "is_regular", "is_split"):
        tr.patch(registry, attr, tr.wrap("structure.other", getattr(registry, attr)))

    # registry: every lazily computed Profile invariant, checks, audits
    profile = registry.Profile
    for attr, prop in list(vars(profile).items()):
        if isinstance(prop, cached_property):
            traced = cached_property(tr.wrap("registry.profile", prop.func))
            traced.__set_name__(profile, attr)
            tr.patch(profile, attr, traced)
    init = profile.__init__

    def counting_init(self, g):
        if not tr.paused:
            tr.count("registry.profiles")
        init(self, g)

    tr.patch(profile, "__init__", counting_init)

    def on_verdict(v):
        if v.kind == "holds":
            tr.count("registry.holds")

    traced_check = tr.wrap("registry.check", registry.check, on_verdict)
    for owner in (registry, sweep, cli):
        tr.patch(owner, "check", traced_check)
    tr.patch(registry, "check_all", tr.wrap("registry.check_all", registry.check_all))
    tr.patch(registry, "audit_sharpness", tr.wrap("registry.audit", registry.audit_sharpness))

    # sweep, formats and the CLI entry point
    tr.patch(sweep, "sweep", tr.wrap("sweep.sweep", sweep.sweep))
    both("formats.graph6", sweep.encode_graph6, (sweep, cli), "encode_graph6")
    both("formats.graph6", cli.parse_graph6, (cli,), "parse_graph6")
    tr.patch(cli, "main", tr.wrap("cli.main", cli.main))


# -- aggregation ------------------------------------------------------------


class Summary:
    """Per-name inclusive and self seconds, call counts and counters."""

    def __init__(self) -> None:
        self.incl: dict[str, float] = {}
        self.self: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.spans = 0

    def add(self, spans: list[list], calls: dict[str, int], counts: dict[str, int]) -> None:
        child = [0.0] * len(spans)
        for name, start, end, parent, nested in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, nested) in enumerate(spans):
            dur = end - start
            if not nested:
                self.incl[name] = self.incl.get(name, 0.0) + dur
            self.self[name] = self.self.get(name, 0.0) + dur - child[i]
        for name, n in calls.items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, n in counts.items():
            self.counts[name] = self.counts.get(name, 0) + n
        self.spans += len(spans)

    def module_self(self, module: str) -> float:
        return sum(v for k, v in self.self.items() if k.split(".")[0] == module)


def dump_for_parent(tr: Tracer) -> str:
    return TRACE_MARK + json.dumps({"spans": tr.spans, "calls": tr.calls, "counts": tr.counts})


def load_from_child(stderr: str) -> dict | None:
    for line in reversed(stderr.splitlines()):
        if line.startswith(TRACE_MARK):
            return json.loads(line[len(TRACE_MARK):])
    return None


def _child_main(argv: list[str]) -> int:
    from cyclekit import cli

    tr = Tracer()
    with tr:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    print(dump_for_parent(tr), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
