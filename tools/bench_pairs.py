"""Run the benchmark in alternating parent/change pairs and write a BENCH_*.json.

    python3 tools/bench_pairs.py --parent REV --change REV --seed-base S \
        --workdir DIR --out BENCH_N.json --title TEXT [--claim WORKLOAD]

Each of the 10 pairs of each workload of ``BENCHMARK.json`` is two runs
of ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``,
with T its ``run_seconds``, under ``PYTHONDONTWRITEBYTECODE=1``, each in a
fresh ``git archive`` copy of its commit under DIR that is deleted after
the run, so neither side reads the other's files or byte code.
``perfbench/run.py`` is each commit's own, unchanged.  For pair i the
parent runs first when i is even.  Workload k uses seeds S + 10k ...
S + 10k + 9, one per pair.  To measure uncommitted work, pass ``--change
$(git stash create)``: a commit of the working tree that no branch holds.

The file records both commit ids, the method, every seed, each side's
input digests, failed and attempted counts, and per metric the per-pair
values, the medians, the quartiles (``statistics.quantiles``, inclusive)
and how many pairs the change won.  ``bounds`` compares the medians with
the bounds of ``BENCHMARK.json``.  With ``--claim W`` it also states
whether W's ``graphs_per_s`` gain holds: the change wins at least 9 of
the 10 pairs and its median beats the parent's by more than the parent's
interquartile range.  With ``--trace-seed``, one ``--trace 1`` run per
side of each workload is added under ``trace``.

Runs go one at a time, so a run never shares the machine with the other
side.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("soundness_mix", "extremal_corpus", "cli_pipeline")
PAIRS = 10
# the workload-specific figures that each run prints and the file keeps
PRINTED = {
    "soundness_mix": ("small_graphs_per_s", "large_graphs_per_s"),
    "extremal_corpus": ("check_all_s", "solve_s", "audit_s"),
    "cli_pipeline": ("pipeline_p50_ms",),
}


def resolve(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()


def checkout(commit: str, workdir: Path) -> Path:
    """A fresh ``git archive`` copy of the commit in a new directory."""
    dest = Path(tempfile.mkdtemp(prefix=f"{commit[:10]}-", dir=workdir))
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(commit: str, workdir: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark run in a fresh copy: its result line and printed figures."""
    dest = checkout(commit, workdir)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=dest, capture_output=True, text=True,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        )
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    if proc.returncode:
        raise RuntimeError(f"{workload} seed {seed} at {commit[:10]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    out = {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "correct": result["correct"],
    }
    for line in lines:
        if m := re.match(r"input_digest (\S+)", line):
            out["digest"] = m.group(1)
        if m := re.match(r"(\w+) ([-+0-9.e]+) \S+  \[raw", line):
            out.setdefault("printed", {})[m.group(1)] = float(m.group(2))
        if trace and (m := re.fullmatch(r"(\w+\.\w+) ([-+0-9.e]+)", line)):
            out.setdefault("layers", {})[m.group(1)] = float(m.group(2))
        if line.startswith(("traced replay", "verdict tallies")):
            out.setdefault("replay", []).append(line)
    return out


def quartiles(values: list[float]) -> list[float]:
    return [round(q, 4) for q in statistics.quantiles(values, n=4, method="inclusive")]


def compare(parent: list[float], change: list[float], higher_better: bool) -> dict:
    wins = sum((c > p) if higher_better else (c < p) for p, c in zip(parent, change))
    return {
        "parent": [round(v, 4) for v in parent],
        "change": [round(v, 4) for v in change],
        "parent_median": round(statistics.median(parent), 4),
        "change_median": round(statistics.median(change), 4),
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "change_better_pairs": wins,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="parent commit")
    p.add_argument("--change", required=True, help="change commit")
    p.add_argument("--seed-base", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True, help="where the copies are made")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--title", required=True)
    p.add_argument("--claim", choices=WORKLOADS, default=None,
                   help="the workload whose graphs_per_s gain is claimed")
    p.add_argument("--trace-seed", type=int, default=None,
                   help="add one --trace 1 run per side of each workload with this seed")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    commits = {"parent": resolve(args.parent), "change": resolve(args.change)}
    args.workdir.mkdir(parents=True, exist_ok=True)
    doc: dict = {
        "title": args.title,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "method": (
            f"{PAIRS} pairs per workload, one seed per pair; the parent runs first in pairs "
            f"0, 2, 4, ...; each run is `PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py "
            f"--workload W --seed S --seconds {seconds:g} --trace 0` in a fresh `git archive` "
            f"copy of its commit, deleted after the run, one run at a time; written by "
            f"tools/bench_pairs.py on Python {sys.version.split()[0]}. Values are the "
            f"speed-scaled figures each run prints. Quartiles are "
            f"statistics.quantiles(method='inclusive') of each side's runs."
        ),
        "workloads": {},
    }
    for k, workload in enumerate(WORKLOADS):
        seeds = [args.seed_base + k * PAIRS + i for i in range(PAIRS)]
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                res = run_once(commits[side], args.workdir, workload, seed, seconds, 0)
                runs[side].append(res)
                print(f"{workload} pair {i} seed {seed} {side}: "
                      f"graphs_per_s {res['metrics']['graphs_per_s']:.2f}", file=sys.stderr)
        entry: dict = {
            "seeds": seeds,
            "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
            "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
            "digests": {s: [r.get("digest") for r in runs[s]] for s in runs},
        }
        entry["digests_equal"] = entry["digests"]["parent"] == entry["digests"]["change"]
        for name, spec in e2e.items():
            entry[name] = compare([r["metrics"][name] for r in runs["parent"]],
                                  [r["metrics"][name] for r in runs["change"]],
                                  spec["better"] == "higher")
        for name in PRINTED[workload]:
            entry[name] = compare([r["printed"][name] for r in runs["parent"]],
                                  [r["printed"][name] for r in runs["change"]],
                                  name.endswith("per_s"))
        doc["workloads"][workload] = entry

    rows = []
    for workload, entry in doc["workloads"].items():
        for name, spec in e2e.items():
            parent, change = entry[name]["parent_median"], entry[name]["change_median"]
            ratio = change / parent if parent else float("nan")
            worse = (1 - ratio) if spec["better"] == "higher" else (ratio - 1)
            rows.append({"workload": workload, "metric": name, "ratio_of_medians": round(ratio, 4),
                         "change_better_pairs": entry[name]["change_better_pairs"],
                         "within_bound": worse <= spec["bound"]})
    doc["bounds"] = {
        "note": "BENCHMARK.json bounds as the largest allowed relative worsening of the change's "
                "median: " + ", ".join(f"{n} {m['bound']}" for n, m in e2e.items()),
        "rows": rows,
    }
    if args.claim:
        gps = doc["workloads"][args.claim]["graphs_per_s"]
        iqr = gps["parent_quartiles"][2] - gps["parent_quartiles"][0]
        diff = gps["change_median"] - gps["parent_median"]
        need = -(-9 * PAIRS // 10)
        doc["claim"] = {
            "workload": args.claim,
            "metric": "graphs_per_s",
            "rule": f"the change is better in at least {need} of {PAIRS} pairs, and its median "
                    "exceeds the parent's by more than the parent's IQR",
            "change_better_pairs": gps["change_better_pairs"],
            "pairs": PAIRS,
            "ratio_of_medians": round(gps["change_median"] / gps["parent_median"], 4),
            "median_difference": round(diff, 4),
            "parent_iqr": round(iqr, 4),
            "met": gps["change_better_pairs"] >= need and diff > iqr,
        }
    if args.trace_seed is not None:
        trace: dict = {"method": f"one `perfbench/run.py --workload W --seed {args.trace_seed} "
                                 f"--seconds {seconds:g} --trace 1` run per side, each in a "
                                 "fresh `git archive` copy"}
        for workload in WORKLOADS:
            trace[workload] = {}
            for side in ("parent", "change"):
                res = run_once(commits[side], args.workdir, workload, args.trace_seed,
                               seconds, 1)
                trace[workload][side] = {**res["layers"], "correct": res["correct"],
                                         "replay": res.get("replay", [])}
        doc["trace"] = trace
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
