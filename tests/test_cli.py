"""CLI grammar, exit codes and output determinism."""

import contextlib
import dataclasses
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclekit import cli
from cyclekit.formats import encode_graph6
from cyclekit.graph import from_edge_list, path_graph

DATA = Path(__file__).parent / "data"


def run(args, stdin="", timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "cyclekit.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_construct_and_pipe():
    code, g6, _ = run(["construct", "petersen"])
    assert code == 0 and g6.strip() == "IheA@GUAo"
    code, out, _ = run(["check", "--theorem", "Thm16"], stdin=g6)
    assert code == 0 and "vacuous" in out


def test_construct_params_and_edges():
    code, out, _ = run(["construct", "join2Kd-K1", "--delta", "4"])
    assert code == 0
    code2, ham, _ = run(["solve", "hamilton"], stdin=out)
    assert code2 == 0 and "non-hamiltonian" in ham
    code3, edges, _ = run(["construct", "--edges", "complete", "--n", "3"])
    assert code3 == 0 and edges.splitlines()[0] == "3 3"


def test_construct_list():
    code, out, _ = run(["construct", "list"])
    assert code == 0 and "petersen" in out


def test_invariants_json():
    _, g6, _ = run(["construct", "petersen"])
    code, out, _ = run(["invariants", "--json"], stdin=g6)
    rec = json.loads(out)
    assert code == 0
    assert rec["tau"] == "4/3" and rec["kappa"] == 3


def test_solve_every_longest():
    _, g6, _ = run(["construct", "petersen"])
    code, out, _ = run(["solve", "every-longest", "dominating"], stdin=g6)
    assert code == 0 and "every longest cycle is dominating" in out


def test_solve_longest_path_past_the_budget():
    # The search of G*_17's cone outruns its budget; the DP gives the witness.
    _, g6, _ = run(["construct", "Gstar", "--n", "17"])
    code, out, _ = run(["solve", "longest-path", "--json"], stdin=g6)
    rec = json.loads(out)
    assert code == 0
    assert rec["longestPath"] == 16
    assert rec["path"] == "0 8 1 15 14 16 2 9 3 10 4 11 5 12 6 13 7"


def test_solve_longest_path_at_the_graph_cap():
    # A 64-vertex tree plus seven chords: the longest path is the longest
    # cycle through the apex of its 65-vertex cone, one vertex above the
    # cap on graphs, which graph6 and the CLI keep at 64.
    rng = random.Random(6404)
    edges = [(v, rng.randrange(v)) for v in range(1, 64)]
    edges += [tuple(rng.sample(range(64), 2)) for _ in range(8)]
    g6 = encode_graph6(from_edge_list(64, edges))
    path = "47 28 4 5 6 31 45 10 32 17 20 24 49 12 2 27 55 11 3 1 0 9 37 58"
    assert run(["solve", "longest-path"], stdin=g6 + "\n") == (
        0, f"{g6}: longest path has 23 edges: {path}\n", "")
    assert run(["solve", "longest-path", "--json"], stdin=g6 + "\n") == (
        0, json.dumps({"graph6": g6, "longestPath": 23, "path": path}) + "\n", "")
    code, _, err = run(["solve", "longest-path"], stdin=encode_graph6(path_graph(64)) + "\n")
    assert code == 0 and err == ""


def test_solve_reads_a_file_for_every_problem(tmp_path):
    # The optional property positional must not take the path from the
    # problems that have no property.
    path = tmp_path / "petersen.g6"
    path.write_text("IheA@GUAo\n")
    for problem in ("hamilton", "circumference", "longest-path"):
        from_stdin = run(["solve", problem], stdin="IheA@GUAo\n")
        assert from_stdin[0] == 0 and from_stdin[1]
        assert run(["solve", problem, str(path)]) == from_stdin, problem
    code, out, _ = run(["solve", "exists", "dominating", str(path)])
    assert code == 0 and out == "IheA@GUAo: dominating cycle of length 9: 0 1 2 3 4 9 6 8 5\n"
    code, out, err = run(["solve", "exists", str(path)])
    assert code == 2 and out == ""
    assert err.endswith(f"error: argument prop: invalid choice: '{path}' "
                        "(choose from 'dominating', 'PD', 'CD')\n")


def test_solve_rejects_a_property_where_the_problem_takes_none(tmp_path):
    path = tmp_path / "petersen.g6"
    path.write_text("IheA@GUAo\n")
    for problem in ("hamilton", "circumference", "longest-path"):
        for prop in ("dominating", "PD", "CD"):
            code, out, err = run(["solve", problem, prop, str(path)])
            assert code == 2 and out == "", (problem, prop)
            assert err.endswith(f"error: solve {problem} takes no property argument\n")
    code, out, _ = run(["solve", "hamilton", str(path)])
    assert code == 0 and out == "IheA@GUAo: non-hamiltonian\n"
    code, out, _ = run(["solve", "exists", "dominating", str(path)])
    assert code == 0 and out == "IheA@GUAo: dominating cycle of length 9: 0 1 2 3 4 9 6 8 5\n"


def test_solve_reads_its_operands_in_any_order_among_the_options(tmp_path, capsys):
    path = str(tmp_path / "petersen.g6")
    Path(path).write_text("IheA@GUAo\n")

    def main(args):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    orders = [
        (["solve", "hamilton", path, "--json"], ["solve", "hamilton", "--json", path]),
        (["solve", "circumference", path, "--json"], ["solve", "circumference", "--json", path]),
        (["solve", "exists", "PD", path, "--lambda", "2"],
         ["solve", "exists", "PD", "--lambda", "2", path],
         ["solve", "exists", "--lambda", "2", "PD", path]),
        (["solve", "every-longest", "dominating", path, "--json"],
         ["solve", "every-longest", "--json", "dominating", path]),
    ]
    for same in orders:
        first = main(same[0])
        assert first[0] == 0 and first[1] and first[2] == "", same[0]
        for args in same[1:]:
            assert main(args) == first, args
    assert main(["solve", "hamilton", "--json", path])[1] == (
        '{"graph6": "IheA@GUAo", "hamiltonian": false}\n')
    # a usage error reads the same whatever the order
    wrong = main(["solve", "hamilton", "PD", path, "--json"])
    assert wrong[0] == 2 and wrong[2].endswith("error: solve hamilton takes no property argument\n")
    assert main(["solve", "hamilton", "--json", "PD", path]) == wrong
    extra = main(["solve", "hamilton", path, path, path])
    assert extra[0] == 2 and extra[2].endswith(f"error: unrecognized arguments: {path}\n")
    assert main(["solve", "hamilton", "--json", path, path, path]) == extra


def test_solve_without_a_property_shows_the_solve_usage():
    code, out, err = run(["solve", "every-longest"], stdin="IheA@GUAo\n")
    assert code == 2 and out == ""
    assert err.startswith("usage: cyclekit solve ")
    assert err.endswith("cyclekit solve: error: solve every-longest needs a property argument\n")


def test_solve_pd_or_cd_without_lambda_shows_the_solve_usage():
    for prop in ("PD", "CD"):
        code, out, err = run(["solve", "exists", prop], stdin="IheA@GUAo\n")
        assert code == 2 and out == "", prop
        assert err.startswith("usage: cyclekit solve ")
        assert err.endswith(f"cyclekit solve: error: solve exists {prop} needs --lambda\n")


def test_free_patterns():
    _, g6, _ = run(["construct", "petersen"])
    code, out, _ = run(["free", "--patterns", "K3,claw"], stdin=g6)
    assert code == 0 and "claw" in out


def test_audit_command():
    code, out, _ = run(["audit", "--theorem", "Thm32", "--range", "3..6"])
    assert code == 0
    assert out.count("PASS") == 6 and "FAIL" not in out


def test_audit_above_the_cap_fails_the_case_and_exits_1():
    # K_1+2K_10 has 21 vertices, past the 20-vertex cap of Thm31's
    # every-longest-cycle conclusion: a failed case, not an internal error.
    code, out, err = run(["audit", "--theorem", "Thm31", "--range", "10..10"])
    assert code == 1 and err == ""
    assert "K_1+2K_10 delta=10: FAIL" in out
    assert "conclusion: ceiling: longest-cycle check capped at 20 vertices (n=21)" in out


def test_audits_of_graphs_past_the_dp_cap_finish():
    # aK_2 + (a-1)K_1 at a = 10 and 3K_9 + K_2 have 29 vertices, past the
    # DP cap, so the longest-cycle search has no node budget; the cut
    # certificates, asked for once it has spent the floor budget, end it.
    # Both audits used to run past 60 s; each takes well under a second.
    for theorem, case in (("Thm17", "aK_2+Kbar_{a-1} a=10: PASS"),
                          ("Thm49", "3K_{d-1}+K_2 delta=10: PASS")):
        code, out, err = run(["audit", "--theorem", theorem, "--range", "10..10"], timeout=60)
        assert code == 0 and err == "" and case in out, (theorem, out, err)


def test_check_json_fields():
    _, g6, _ = run(["construct", "complete", "--n", "5"])
    code, out, _ = run(["check", "--theorem", "T1", "--json"], stdin=g6)
    rec = json.loads(out)
    assert rec["verdict"] == "holds" and rec["theorem"] == "T1"


def test_check_assume():
    _, g6, _ = run(["construct", "cycle", "--n", "6"])
    code, out, _ = run(["check", "--theorem", "Thm26"], stdin=g6)
    assert "inapplicable" in out
    code2, out2, _ = run(["check", "--theorem", "Thm26", "--assume", "interval"], stdin=g6)
    assert "holds" in out2 and "interval" in out2


def test_sweep_command_and_determinism():
    args = ["sweep", "--model", "gnp", "--n", "7", "--p", "0.5",
            "--count", "10", "--seed", "1"]
    code1, out1, _ = run(args)
    code2, out2, _ = run(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_catalog_ids_accepted_by_check():
    code, out, _ = run(["catalog", "--json"])
    ids = [json.loads(line)["id"] for line in out.splitlines()]
    assert len(ids) >= 60
    _, g6, _ = run(["construct", "complete", "--n", "4"])
    for tid in ids[:3] + ids[-3:]:
        c, _, _ = run(["check", "--theorem", tid], stdin=g6)
        assert c == 0


def test_usage_errors_exit_2():
    code, _, _ = run(["bogus"])
    assert code == 2
    code2, _, _ = run(["construct", "no-such-family"])
    assert code2 == 2
    code3, _, _ = run(["solve", "every-longest"])  # missing property
    assert code3 == 2
    code4, _, _ = run(["check", "--theorem", "Thm99"], stdin="Bw")
    assert code4 == 2
    code5, _, _ = run(["solve", "every-longest", "CD", "--lambda", "0"], stdin="Bw")
    assert code5 == 2
    code6, out6, err6 = run(["check", "--lambda", "0"], stdin="IheA@GUAo")
    assert code6 == 2 and out6 == "" and "lambda must be >= 1" in err6


def test_unreadable_input_exits_2():
    code, out, err = run(["invariants", "/nonexistent/graphs.g6"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_first_token_picks_the_input_format():
    """A ``p`` or ``c`` token starts DIMACS and a digit string an edge list,
    whatever separates it from the rest of the document."""
    p2, p3 = path_graph(2), path_graph(3)
    for text, g in (("p\tedge 3 2\ne 1 2\ne 2 3\n", p3),
                    ("c\tcomment\np edge 3 2\ne 1 2\ne 2 3\n", p3),
                    ("3 2 0 1 1 2\n", p3), ("2\n1 0 1\n", p2)):
        code, out, err = run(["solve", "circumference"], stdin=text)
        assert code == 0 and out.startswith(f"{encode_graph6(g)}: c = "), (text, err)
    code, out, err = run(["solve", "circumference"], stdin="3 2\n0 1\n1 x\n")
    assert code == 2 and out == "" and err.startswith("error: bad integer in edge list")


def test_input_file_is_closed(tmp_path):
    path = tmp_path / "petersen.g6"
    path.write_text("IheA@GUAo\n")
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "cyclekit.cli", "invariants", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""


# lines shaped like graph6, edge-list and DIMACS input, so that each parser's
# error paths are reached, besides plain arbitrary text and bytes
WORD = st.sampled_from(["0", "1", "2", "3", "12", "-1", "²", "Bw", "C~", "~"]) | st.text(max_size=2)
LINE = st.tuples(st.sampled_from(["", "p edge", "p", "e", "c"]), st.lists(WORD, max_size=3))
SHAPED = st.lists(LINE.map(lambda t: " ".join([t[0], *t[1]]).strip()), max_size=4).map("\n".join)


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(st.text(max_size=16), SHAPED).map(str.encode) | st.binary(max_size=16))
def test_check_never_exits_3_on_arbitrary_input(data):
    # orders stay at most 12: check runs exact 2^n scans, and the property
    # under test is the exit code, not the time a large input takes
    assume(all(int(t) <= 12 for t in re.findall(r"\d+", data.decode("utf-8", "replace"))))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as f:
            f.write(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.run(["check", "--json", path])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 1, 2), data


def test_malformed_range_exits_2():
    for bad in ("5", "3..x", "1..2..3"):
        code, _, err = run(["audit", "--theorem", "Thm6", "--range", bad])
        assert code == 2 and "Traceback" not in err


def test_empty_range_exits_2_and_no_cases_line_needs_no_cases():
    # Thm6 declares a case, so an empty range is a usage error, not "no cases"
    code, out, err = run(["audit", "--theorem", "Thm6", "--range", "5..3"])
    assert code == 2 and out == "" and "--range" in err
    code, out, _ = run(["audit", "--theorem", "Thm6", "--range", "3..3"])
    assert code == 0 and out.count("PASS") == 1 and "no sharpness cases" not in out
    code, out, _ = run(["audit", "--theorem", "T3"])
    assert code == 0 and out == "T3: no sharpness cases declared\n"


def test_sweep_rejects_probability_outside_unit_interval():
    for bad in ("1.5", "-0.1", "nan"):
        code, out, err = run(["sweep", "--n", "5", "--p", bad, "--count", "2", "--seed", "1"])
        assert code == 2 and out == "" and "--p" in err


def test_sweep_rejects_negative_count():
    code, out, err = run(["sweep", "--n", "5", "--count", "-3", "--seed", "1"])
    assert code == 2 and out == "" and "--count" in err


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "_cmd_catalog", broken)
    with pytest.raises(KeyError):
        cli.main(["catalog"])


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_catalog", broken)
    assert cli.run(["catalog"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: RuntimeError: boom\n"


# -- help text ---------------------------------------------------------------

SUBCOMMANDS = ("invariants", "solve", "free", "construct", "check", "audit", "sweep", "catalog")


def help_text() -> str:
    """What ``--help`` prints for the top level and for every subcommand,
    then one usage error, each under its command line and exit code, at 80
    columns."""
    runs = [["--help"], *([cmd, "--help"] for cmd in SUBCOMMANDS), ["sweep", "--model", "lattice"]]
    parts = []
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            parts.append(f"$ cyclekit {' '.join(argv)}\nexit {code}\n"
                         f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    return "\n".join(parts)


def test_help_and_usage_error_match_frozen_output():
    assert help_text() == (DATA / "cli_help.txt").read_text()


def test_every_model_choice_sweeps():
    args = {"bipartite": ["--a", "3", "--b", "3"], "gnp": ["--n", "5"],
            "regular": ["--n", "6", "--d", "2"]}
    assert sorted(args) == list(cli.MODEL_NAMES)
    for model in cli.MODEL_NAMES:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["sweep", "--model", model, *args[model], "--count", "2", "--seed", "1"]) == 0
        assert out.getvalue().startswith("theorem"), model


def test_sweep_command_exits_1_on_a_violated_verdict(monkeypatch, capsys):
    from cyclekit import sweep
    from cyclekit.catalog import catalog

    real_decide, real_check = sweep.decide, sweep.check
    forged = []
    statements = [spec.statement for spec in catalog()]

    # The first (graph, theorem) pair whose statement no alias shares (an
    # alias is recorded with its base's decision) reads VIOLATED: in the
    # decision the sweep tallies, and in the Verdict it then builds for its
    # report.
    def decide(pf, spec):
        kind, lam, witness, why = real_decide(pf, spec)
        if not forged and statements.count(spec.statement) == 1:
            forged.append((pf, spec))
            kind = "VIOLATED"
        return kind, lam, witness, why

    def check(pf, spec):
        v = real_check(pf, spec)
        return dataclasses.replace(v, kind="VIOLATED") if (pf, spec) == forged[0] else v

    monkeypatch.setattr(sweep, "decide", decide)
    monkeypatch.setattr(sweep, "check", check)
    assert cli.main(["sweep", "--n", "5", "--count", "2", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("VIOLATED on ") and err.count("\n") == 1
    assert f"'theorem': '{forged[0][1].id}', 'verdict': 'VIOLATED'" in err
