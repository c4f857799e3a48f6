"""Dump the command line's output over a fixed set of commands, one file each.

    python3 tests/golden.py OUTDIR

Runs ``python -m cyclekit.cli`` from the checkout that holds this script
(its ``src``, its ``tests/data``) and writes, per command, a file with the
command, its exit code, its stdout and its stderr:

- ``check`` and ``check --json`` for every catalog id on
  ``tests/data/check_corpus.g6`` and ``tests/data/sweep_corpus.g6``;
- ``invariants --json`` on both corpora;
- every ``solve`` problem on both corpora, with and without ``--json``:
  ``every-longest`` and ``exists`` for dominating, PD lambda = 1..3 and
  CD lambda = 1..4;
- ``free --patterns claw,P4,C5,K4,K33,N_1_1_1,petersen`` on both corpora,
  with and without ``--json``;
- ``audit --json`` for every catalog id;
- three ``sweep --json`` runs, over the gnp, bipartite and regular
  models, their wall-clock ``timing`` fields masked.

A change meant to keep every printed byte is checked by dumping the parent
and the change and comparing them with ``diff -r``.  Not collected by
pytest; it needs nothing beyond the standard library.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPORA = ("tests/data/check_corpus.g6", "tests/data/sweep_corpus.g6")
FREE = ("free", "--patterns", "claw,P4,C5,K4,K33,N_1_1_1,petersen")
SWEEPS = (
    ("sweep", "--model", "gnp", "--n", "9", "--p", "0.5", "--count", "30", "--seed", "1", "--json"),
    ("sweep", "--json", "--model", "bipartite", "--a", "4", "--b", "4", "--count", "30", "--seed", "1"),
    ("sweep", "--json", "--model", "regular", "--n", "8", "--d", "3", "--count", "30", "--seed", "1"),
)
WORKERS = 4


def cyclekit(*args: str) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "cyclekit.cli", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def commands(ids: list[str]) -> list[tuple[str, ...]]:
    solves = [(p,) for p in ("hamilton", "circumference", "longest-path")]
    for p in ("every-longest", "exists"):
        solves += [(p, "dominating")] + [
            ("--lambda", lam, p, prop) for prop, lams in (("PD", "123"), ("CD", "1234")) for lam in lams]
    out: list[tuple[str, ...]] = []
    for corpus in CORPORA:
        for tid in ids:
            out += [("check", "--theorem", tid, corpus), ("check", "--theorem", tid, "--json", corpus)]
        out += [("invariants", "--json", corpus), (*FREE, corpus), (*FREE, "--json", corpus)]
        for solve in solves:
            out += [("solve", *solve, corpus), ("solve", *solve, corpus, "--json")]
    out += [("audit", "--theorem", tid, "--json") for tid in ids]
    out += SWEEPS
    return out


def dump(outdir: Path, args: tuple[str, ...]) -> None:
    proc = cyclekit(*args)
    stdout = proc.stdout
    if args[0] == "sweep":
        stdout = re.sub(r'"timing": [0-9.e-]+', '"timing": "-"', stdout)
    name = re.sub(r"[^A-Za-z0-9.=-]+", "_", " ".join(args)).strip("_")
    text = f"$ cyclekit {' '.join(args)}\nexit {proc.returncode}\n--- stdout\n{stdout}--- stderr\n{proc.stderr}"
    (outdir / f"{name}.txt").write_text(text)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: golden.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    listing = cyclekit("catalog", "--json")
    if listing.returncode:
        print(listing.stderr, end="", file=sys.stderr)
        return 1
    ids = [json.loads(line)["id"] for line in listing.stdout.splitlines()]
    todo = commands(ids)
    with ThreadPoolExecutor(WORKERS) as pool:
        list(pool.map(lambda args: dump(outdir, args), todo))
    print(f"{len(todo)} commands, {len(ids)} catalog ids, written to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
