"""End-to-end command-line runs, checked as exact bytes and exit codes.

Queries go through run(argv) in-process; stdout is captured and compared
as whole strings where the table is small enough to freeze.  The
cold-start and tracer tests start a fresh interpreter instead, because
what they check is what a new process imports.
"""

import csv
import importlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import resfin
import resfin.cli
import resfin.words
from resfin.cli import _cell, _render, _row_json, build_parser, run
from resfin.lcmlib import cert_to_json, lcm_ball_witness
from resfin.words import format_word

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = (
    "cli", "covers", "errors", "lcmlib", "lowindex", "nilpotent", "permrep",
    "separability", "words",
)


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out


def _readme_commands():
    """The argv of each line of the README's command block, in order."""
    text = (ROOT / "README.md").read_text()
    return [shlex.split(x)[1:] for x in text.splitlines() if x.startswith("resfin ")]


def test_growth_csv_table(capsys):
    assert run(["growth", "--rank", "2", "--max", "3", "--format", "csv"]) == 0
    assert out_of(capsys) == "n,ball_size\n0,1\n1,5\n2,17\n3,53\n"


def test_pnt_csv_has_frozen_row(capsys):
    assert run(["pnt", "--max", "10", "--format", "csv"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0] == "n,lcm,log_lcm,ratio,in_window"
    assert lines[-1] == "10,2520,7.832,0.783,true"


def test_girth_known_and_unknown(capsys):
    assert run(["girth", "--rank", "2", "--radius", "1", "--cap", "6",
                "--format", "csv"]) == 0
    assert out_of(capsys).splitlines()[1] == "2,1,6,5"
    assert run(["girth", "--rank", "2", "--radius", "1", "--cap", "3",
                "--format", "csv"]) == 2
    assert out_of(capsys).splitlines()[1] == "2,1,3,unknown"
    # the 17-word ball fits the cap, so orders 17..23 are all searched;
    # the answer is 24
    assert run(["girth", "--rank", "2", "--radius", "2", "--cap", "23",
                "--format", "csv"]) == 2
    assert out_of(capsys).splitlines()[1] == "2,2,23,unknown"
    # 26 * 53 = 1378 table edges; the regular search deduces most of them
    # instead of branching on each
    assert run(["girth", "--rank", "26", "--radius", "1", "--cap", "60",
                "--format", "csv"]) == 0
    assert out_of(capsys).splitlines()[1] == "26,1,60,53"


def test_girth_json_carries_witness(capsys):
    assert run(["girth", "--rank", "2", "--radius", "1", "--cap", "6"]) == 0
    data = json.loads(out_of(capsys))
    assert data["rows"][0]["value"] == 5
    assert data["result"]["witness"]["degree"] == 5


def test_certificate_roundtrip(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert run(["lcm-witness", "--set", "a,b", "--out", str(path)]) == 0
    assert out_of(capsys) == ""  # --out means nothing on stdout
    assert run(["verify", "--certificate", str(path), "--format", "csv"]) == 0
    header, row = out_of(capsys).splitlines()
    assert header == "targets,declared_bound,ok,failures"
    assert row.startswith("2,4,true")

    data = json.loads(path.read_text())
    data["certificate"]["declared_bound"] -= 1
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    assert run(["verify", "--certificate", str(bad), "--format", "csv"]) == 1
    assert "false" in out_of(capsys)

    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json at all")
    assert run(["verify", "--certificate", str(garbage)]) == 1
    assert run(["verify", "--certificate", str(tmp_path / "missing.json")]) == 1


def test_verify_refuses_json_nested_past_the_parser(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert run(["verify", "--certificate", str(deep)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: certificate file is not valid JSON: ")
    assert captured.err.count("\n") == 1


def test_out_to_a_path_that_cannot_be_opened_exits_one(tmp_path, capsys):
    argv = ["growth", "--rank", "2", "--max", "2"]
    for out in (tmp_path / "missing" / "x.json", tmp_path):  # no folder; a folder
        assert run(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output file: ")
        assert captured.err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
def test_a_failed_write_to_stdout_exits_one():
    # buffered, the write fails at the flush and again at interpreter exit
    # unless what stdout still holds is dropped; unbuffered, at once; and
    # a stdout closed before the start is None
    argv = [sys.executable, "-m", "resfin", "growth", "--rank", "2", "--max", "3", "--format", "csv"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    runs = []
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        with open("/dev/full", "w") as full:
            runs.append(subprocess.run(
                argv, stdout=full, stderr=subprocess.PIPE, env=env | unbuffered, text=True,
                timeout=120,
            ))
    runs.append(subprocess.run(
        ["sh", "-c", '"$@" >&-', "sh", *argv], stderr=subprocess.PIPE, env=env, text=True,
        timeout=120,
    ))
    for done, reason in zip(runs, ["[Errno 28] No space left on device"] * 2 + ["it is closed"]):
        assert done.returncode == 1
        assert done.stderr == f"error: cannot write to stdout: {reason}\n"


def test_malformed_certificates_exit_one(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert run(["lcm-witness", "--set", "a,b", "--out", str(path)]) == 0
    text = path.read_text()
    cert = json.loads(text)["certificate"]
    assert cert["flat"] is not None
    step_is_string = json.loads(text)
    step_is_string["certificate"]["derivations"][0][0] = "ground"
    bound = cert["declared_bound"]
    shapes = {
        "digits": (text.replace(f'"declared_bound": {bound}', '"declared_bound": ' + "9" * 5000), None),
        "step": (json.dumps(step_is_string), None),
    }
    assert "9" * 5000 in shapes["digits"][0]
    # a refused field is named under one prefix; a JSON "false" is truthy
    # and would read as a claim of nontriviality
    for key, value, message in (
        ("declared_bound", "8", "declared_bound '8' is not an integer"),
        ("declared_bound", 4.7, "declared_bound 4.7 is not an integer"),
        ("declared_bound", True, "declared_bound True is not an integer"),
        ("flat", 7, "word 7 is not a string"),
        ("targets", [1, *cert["targets"][1:]], "word 1 is not a string"),
        ("targets", "ab", "targets is not a JSON list"),
        ("nontrivial_verified", "false", "nontrivial_verified 'false' is not a boolean"),
        ("nontrivial_verified", 1, "nontrivial_verified 1 is not a boolean"),
        ("nontrivial_verified", None, "nontrivial_verified None is not a boolean"),
    ):
        body = json.dumps({"certificate": {**cert, key: value}})
        shapes[f"{key} {value!r}"] = (body, f"error: malformed certificate: {message}\n")
    for name, (body, expect) in shapes.items():
        bad = tmp_path / "bad.json"
        bad.write_text(body)
        assert run(["verify", "--certificate", str(bad)]) == 1, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        if expect is None:
            assert "Traceback" not in captured.err and captured.err.startswith("error:"), name
        else:
            assert captured.err == expect, name


def test_verify_refuses_an_unreduced_stored_word(tmp_path, capsys):
    # the flat form and the targets are stored reduced; one that only
    # reduces to the right word is refused by name and verify exits 1
    path = tmp_path / "cert.json"
    assert run(["lcm-witness", "--set", "a,b", "--out", str(path)]) == 0
    cert = json.loads(path.read_text())["certificate"]
    for key, value, what in (
        ("flat", "aA" + cert["flat"], "flat"),
        ("targets", ["abBa", "b"], "target 0"),
    ):
        path.write_text(json.dumps({"certificate": {**cert, key: value}}))
        assert run(["verify", "--certificate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed certificate: {what} is not stored as a freely reduced word\n"


def test_verify_refuses_a_bool_rank(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert run(["lcm-witness", "--set", "aa,aaa", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    data["certificate"]["rank"] = True  # an int subclass, which would check as rank 1
    path.write_text(json.dumps(data))
    assert run(["verify", "--certificate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: malformed certificate: rank must be a positive integer, got True\n"


def test_verify_refuses_a_bool_in_an_integer_field(tmp_path, capsys):
    # bool is an int subclass, so a JSON true in place of 1 would read as 1
    path = tmp_path / "cert.json"
    assert run(["lcm-witness", "--set", "a,b", "--out", str(path)]) == 0
    pair = json.loads(path.read_text())["certificate"]
    power = {  # x^1 with a power step, whose exponents and root read 1
        "rank": 1, "targets": ["a"], "nodes": [["gen", 1], ["pow", 0, 1]], "root": 1,
        "declared_bound": 1, "flat": "a", "nontrivial_verified": True,
        "derivations": [[
            {"rule": "ground", "node": 0, "premises": []},
            {"rule": "power", "node": 1, "premises": [0], "exponent": 1},
        ]],
    }
    for base in (pair, power):
        path.write_text(json.dumps(base))
        assert run(["verify", "--certificate", str(path)]) == 0
        capsys.readouterr()
    for base, keys in (
        (pair, ("nodes", 0, 1)),  # ["gen", true]
        (pair, ("nodes", 2, 2)),  # ["comm", 0, true]
        (pair, ("derivations", 1, 0, "node")),
        (pair, ("derivations", 1, 1, "premises", 0)),
        (power, ("nodes", 1, 2)),  # ["pow", 0, true]
        (power, ("root",)),
        (power, ("derivations", 0, 1, "exponent")),
    ):
        data = json.loads(json.dumps(base))
        field = data
        for key in keys[:-1]:
            field = field[key]
        assert field[keys[-1]] == 1, keys
        field[keys[-1]] = True
        path.write_text(json.dumps(data))
        assert run(["verify", "--certificate", str(path)]) == 1, keys
        assert "Traceback" not in capsys.readouterr().err, keys


def test_verify_reports_premises_that_are_not_a_list(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert run(["lcm-witness", "--set", "a,b", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    data["certificate"]["derivations"][0][1]["premises"] = 5
    path.write_text(json.dumps(data))
    assert run(["verify", "--certificate", str(path), "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "premises 5 are not a list" in captured.out


def test_word_set_parses_each_piece_once(monkeypatch):
    parse, calls = resfin.words.parse_word, []

    def counting(text, rank=None):
        calls.append((text, rank))
        return parse(text, rank)

    monkeypatch.setattr(resfin.words, "parse_word", counting)
    words = resfin.cli._parse_word_set(" ab, c ,A")
    assert calls == [("ab", None), ("c", None), ("A", None)]
    assert [(w.rank, w.letters) for w in words] == [(3, (1, 2)), (3, (3,)), (3, (-1,))]


def test_rank_one_witness_with_lcm_one(capsys):
    for targets in ("A", "a,A"):
        assert run(["lcm-witness", "--set", targets, "--format", "csv"]) == 0
        assert out_of(capsys).splitlines()[1].endswith(",1,true,true")


def test_threads_do_not_change_bytes(capsys):
    argv = ["dmax", "--rank", "2", "--radius", "2", "--cap", "8", "--normal",
            "--format", "csv"]
    assert run(argv) == 0
    base = out_of(capsys)
    assert run(argv + ["--threads", "8"]) == 0
    assert out_of(capsys) == base
    assert run(["--threads", "3"] + argv) == 0
    assert out_of(capsys) == base
    assert "aa" in base and base.splitlines()[1].endswith("3,aa")


def test_every_subcommand_refuses_a_nonpositive_thread_count(tmp_path, monkeypatch, capsys):
    # refused before the subcommand runs, so verify needs no certificate
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len({argv[0] for argv in commands}) == 11  # one line per subcommand
    for argv in commands:
        for threads in ("0", "-1"):
            for bad in (["--threads", threads] + argv, argv + ["--threads", threads]):
                assert run(bad) == 1, bad
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: threads must be positive, got {threads}\n"
    assert list(tmp_path.iterdir()) == []


def test_dmax_unresolved_exits_two(capsys):
    assert run(["dmax", "--rank", "2", "--radius", "2", "--cap", "2",
                "--normal", "--format", "csv"]) == 2
    assert "unknown" in out_of(capsys)


def test_dmax_past_an_indexable_ball_exits_two(capsys):
    # the radius-40 ball of rank 2 has more words than sys.maxsize, so no
    # array of its words can be allocated; refused before anything is
    for flavour in (["--normal"], []):
        assert run(["dmax", "--rank", "2", "--radius", "40", "--cap", "2", *flavour]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource limit: the radius-40 ball has ")


def test_ball_walk_refuses_an_index_past_its_limit(capsys):
    # the radius-20 ball of rank 2 has 8.7e8 orbit representatives, past
    # the walk's fixed index limit; ineq 1 at n = 10 walks that ball
    start = time.perf_counter()
    for argv in (["dmax", "--rank", "2", "--radius", "20", "--cap", "2"],
                 ["ineq", "--which", "1", "--rank", "2", "--n", "10"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource limit: the radius-20 ball has ")
    assert time.perf_counter() - start < 5


def test_power_sets_past_the_flat_cap_exit_two(capsys):
    # theorem4 --n 11 asks for x..x^27720, about 3.8e8 letters of targets,
    # and ended in a MemoryError under a 1 GB address limit
    start = time.perf_counter()
    for argv, total in ((["theorem4", "--n", "11", "--cap", "8"], 384213060),
                        (["power-witness", "--n", "2000"], 2001000)):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"total {total} letters" in captured.err
    assert time.perf_counter() - start < 5


def test_theorem4_refuses_past_the_digit_limit_at_once(capsys):
    # lcm(1..N) comes from one running pass (building each from scratch
    # took 4.5 s at N = 3000), and past 4,300 digits the message gives
    # digit counts, checked against str() with the interpreter's limit lifted
    start = time.perf_counter()
    assert run(["theorem4", "--n", "3000", "--cap", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource limit: the targets x..x^2284789446181393")
    assert time.perf_counter() - start < 1
    assert run(["theorem4", "--n", "10000", "--cap", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource limit: the targets x..x^<4349 digits> total <8698 digits> letters,"
        " past the flat cap 1000000\n"
    )


def test_integers_past_the_digit_limit_exit_two(tmp_path, capsys):
    # the interpreter refuses to convert an int of more than 4,300 digits
    # to a string, and rendering ended in a traceback with exit 1
    refusal = (
        "resource limit: the output holds an integer past the interpreter's limit of"
        f" {sys.get_int_max_str_digits()} digits for printing one\n"
    )
    for fmt in ("json", "csv"):
        for argv in (["growth", "--rank", "1000000", "--max", "800"],
                     ["pnt", "--max", "10000"],
                     ["covers-scan", "--m", "20000", "--max-degree", "1"]):
            code = run([*argv, "--format", fmt])
            captured = capsys.readouterr()
            if argv[0] == "covers-scan" and fmt == "csv":
                # the lcm sits in the summary, which CSV leaves out
                assert (code, captured.err) == (0, "")
                assert captured.out == "degree,covers,points,non_closing_points\n1,1,1,0\n"
            else:
                assert (code, captured.out, captured.err) == (2, "", refusal), argv
    # the refusal comes before the output file is opened, so none is made
    path = tmp_path / "pnt.json"
    assert run(["pnt", "--max", "10000", "--out", str(path)]) == 2
    assert capsys.readouterr().err == refusal
    assert not path.exists()


def test_growth_reaches_the_digit_limit_in_one_pass(capsys):
    # each row used to recount its ball from radius 0, about 28 s here
    start = time.perf_counter()
    assert run(["growth", "--rank", "2", "--max", "9100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource limit: the output holds an integer past the interpreter's limit of"
        f" {sys.get_int_max_str_digits()} digits for printing one\n"
    )
    assert time.perf_counter() - start < 5


def test_rank_one_girth_inequality_past_the_digit_limit_exits_at_once(capsys):
    # lcm(1..10000) has 4,349 digits, past the default limit of 4,300; the
    # witness's ball took about 26 s to build before the report failed to
    # print it
    start = time.perf_counter()
    assert run(["ineq", "--which", "2", "--rank", "1", "--n", "10000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource limit: at rank 1 the witness has length lcm(1..10000), and"
        " lcm(1..9859) alone has <4301 digits>, past the interpreter's limit of"
        " 4300 digits for printing one\n"
    )
    assert time.perf_counter() - start < 5


def test_nilpotent_girth_at_radius_sixty(capsys):
    assert run(["nilpotent-girth", "--n", "60", "--format", "csv"]) == 0
    assert out_of(capsys).splitlines()[1] == "60,1801,5841725401,true"


def test_nilpotent_girth_past_the_window_limit_exits_two(capsys):
    # the closed form answers any N at once; only an output past the
    # digit limit exits 2
    start = time.perf_counter()
    for n, row in (
        ("91", "91,4141,71009375221,true"),
        ("1000000", "1000000,500000000001,125000000000750000000001500000000001,true"),
    ):
        assert run(["nilpotent-girth", "--n", n, "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert (captured.out.splitlines()[1], captured.err) == (row, "")
    assert run(["nilpotent-girth", "--n", "9" * 1500]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource limit: the output holds an integer past the interpreter's limit of"
        f" {sys.get_int_max_str_digits()} digits for printing one\n"
    )
    assert time.perf_counter() - start < 5


def test_dmax_normal_deep_rank_one_ball(capsys):
    # a radius far past the interpreter's recursion limit
    assert run(["dmax", "--rank", "1", "--radius", "1500", "--cap", "16",
                "--normal", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    # 840 = lcm(1..8) is the least exponent whose smallest nondivisor is 9
    assert captured.out.splitlines()[1] == "1,1500,true,16,true,0,9,9," + "a" * 840


def test_environment_sets_no_cap(monkeypatch, capsys):
    # caps come from the arguments alone: a RESFIN_<OPTION> variable for
    # any cap option, set small or malformed, changes no byte or exit code
    names = [
        "RESFIN_" + dest.upper() for dest in ("cap", "max_degree", "order_cap", "girth_cap")
    ]
    queries = [
        ["girth", "--rank", "2", "--radius", "1", "--cap", "6"],
        ["power-witness", "--n", "5"],
        ["covers-scan", "--m", "3", "--max-degree", "5"],
        ["theorem4", "--n", "3", "--cap", "6"],
        ["ineq", "--which", "2", "--rank", "2", "--n", "2"],
    ]
    for name in names:
        monkeypatch.delenv(name, raising=False)
    expected = []
    for argv in queries:
        code = run(argv + ["--format", "csv"])
        expected.append((code, capsys.readouterr()))
    assert [code for code, _ in expected] == [0] * len(queries)
    for value in ("4", "oops"):
        for name in names:
            monkeypatch.setenv(name, value)
        for argv, want in zip(queries, expected):
            assert (run(argv + ["--format", "csv"]), capsys.readouterr()) == want, argv


def test_input_error_exits(capsys):
    assert run(["growth", "--rank", "0", "--max", "2"]) == 1
    assert run(["nosuch-command"]) == 1
    assert run(["growth", "--rank", "2"]) == 1  # missing --max
    assert run(["covers-scan", "--m", "0", "--max-degree", "3"]) == 1
    assert run(["--seed", "5", "growth", "--rank", "2", "--max", "2"]) == 1  # no such flag
    assert run(["growth", "--rank", "2", "--max", "2", "--seed", "5"]) == 1
    assert run(["--help"]) == 0  # argparse's own exit path, remapped


def test_girth_rejects_a_nonpositive_cap(capsys):
    for cap in ("-3", "0"):
        assert run(["girth", "--rank", "2", "--radius", "1", "--cap", cap]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


def test_growth_rejects_a_negative_max(capsys):
    assert run(["growth", "--rank", "2", "--max", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_nonpositive_counts_name_what_they_refuse(capsys):
    # each count is refused by the one integer check, under its own name
    for argv, name in (
        (["nilpotent-girth", "--n"], "radius"),
        (["power-witness", "--n"], "n"),
        (["ineq", "--which", "2", "--rank", "2", "--n"], "n"),
    ):
        for value in ("0", "-2"):
            assert run(argv + [value]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {name} must be a positive integer, got {value}\n"


def test_theorem4_frozen_table(capsys):
    assert run(["theorem4", "--n", "3", "--cap", "8", "--format", "csv"]) == 0
    assert out_of(capsys) == (
        "n,lcm,witness_bound,dnormal_lower,resolved\n"
        "1,1,1,2,true\n"
        "2,2,10,9,true\n"
        "3,6,248,9,true\n"
    )


def test_nilpotent_girth_row(capsys):
    assert run(["nilpotent-girth", "--n", "2", "--format", "csv"]) == 0
    assert out_of(capsys).splitlines()[1] == "2,5,125,true"


def test_power_witness_row(capsys):
    assert run(["power-witness", "--n", "3", "--format", "csv"]) == 0
    header, row = out_of(capsys).splitlines()
    assert "normal_divisibility_lower" in header
    assert ",4,true,2;3,true" in row
    assert run(["power-witness", "--n", "3"]) == 0
    data = json.loads(out_of(capsys))
    assert data["certificate"]["rank"] == 2


def test_ineq_statuses(capsys):
    assert run(["ineq", "--which", "1", "--rank", "2", "--n", "2",
                "--format", "csv"]) == 0
    assert "pass,true,inconclusive" in out_of(capsys)
    assert run(["ineq", "--which", "2", "--rank", "2", "--n", "2",
                "--format", "csv"]) == 0
    assert "resolved,true,5,9" in out_of(capsys)
    assert run(["ineq", "--which", "2", "--rank", "2", "--n", "2",
                "--girth-cap", "3"]) == 2
    data = json.loads(out_of(capsys))
    assert data["report"]["status"] == "inconclusive"


def test_ineq_runs_past_255_points(capsys):
    # Z/q is injective on the ball {x^k : |k| <= 128} exactly when q divides
    # no k in 1..256, and D_N is the least q not dividing lcm(1..256)
    girth = next(q for q in range(2, 300) if all(k % q for k in range(1, 257)))
    dnormal = next(q for q in range(2, 300) if math.lcm(*range(1, 257)) % q)
    assert girth == dnormal == 257
    assert run(["ineq", "--which", "2", "--rank", "1", "--n", "256", "--order-cap", "260",
                "--girth-cap", "257", "--format", "csv"]) == 0
    assert out_of(capsys).splitlines()[-1] == f"2,1,256,resolved,true,{girth},{dnormal}"


def test_ineq_caps_name_their_flag(monkeypatch, capsys):
    # each cap is refused under its own name, before a witness is built
    def no_witness(rank, n):
        raise AssertionError("built a witness before checking the caps")

    monkeypatch.setattr("resfin.lcmlib.lcm_ball_witness", no_witness)
    for flag, name in (("--order-cap", "order cap"), ("--girth-cap", "girth cap")):
        for value in ("0", "-2"):
            assert run(["ineq", "--which", "2", "--rank", "2", "--n", "2", flag, value]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {name} must be a positive integer, got {value}\n"


def test_covers_scan_summary_in_json(capsys):
    assert run(["covers-scan", "--m", "3", "--max-degree", "4"]) == 0
    data = json.loads(out_of(capsys))
    assert data["summary"]["violations"] == []
    assert [r["degree"] for r in data["rows"]] == [1, 2, 3, 4]


def test_covers_scan_rejects_a_degree_out_of_range(monkeypatch, capsys):
    for degree in ("0", "-1"):
        assert run(["covers-scan", "--m", "3", "--max-degree", degree]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
    # index 9 alone has 2,829,325 subgroups, so the cap must be met before
    # the first degree is enumerated, not on reaching degree 9; a scan
    # that starts enumerating fails here rather than running on
    def no_enumeration(rank, index):
        raise AssertionError(f"enumerated index {index} before the cap check")

    monkeypatch.setattr("resfin.lowindex.enumerate_subgroups", no_enumeration)
    # far past the cap too, covers-scan names its own cap
    for degree in ("9", "17", "300"):
        start = time.perf_counter()
        assert run(["covers-scan", "--m", "3", "--max-degree", degree]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"resource limit: index {degree} exceeds the declared cap 8\n"


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["growth", "--rank", "2", "--max", "2", "--format", "csv"]
    assert run(argv) == 0
    direct = out_of(capsys)
    path = tmp_path / "table.csv"
    assert run(argv + ["--out", str(path)]) == 0
    assert path.read_text() == direct


def _ball_witness_payload():
    cert = cert_to_json(lcm_ball_witness(2, 4))
    return {"rows": [{"targets": len(cert["targets"])}], "certificate": cert}


def _whole_text(payload, fmt):
    """The text as one json.dumps call or one CSV buffer renders it."""
    if fmt == "json":
        payload = dict(payload, rows=[_row_json(r) for r in payload["rows"]])
        return json.dumps(payload, indent=2) + "\n"
    rows = payload["rows"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rows:
        writer.writerow(rows[0].keys())
        writer.writerows([_cell(v) for v in row.values()] for row in rows)
    return buf.getvalue()


def test_rendered_batches_join_to_the_whole_text(tmp_path, monkeypatch):
    # the payload of every README command, and a certificate of about
    # 28,000 encoder chunks, which renders as many batches
    monkeypatch.chdir(tmp_path)
    parser = build_parser()
    payloads = []
    for argv in _readme_commands():
        args = parser.parse_args(argv)
        payload, code = args.fn(args)
        assert code == 0, argv
        payloads.append(payload)
        if args.out is not None:  # verify reads the certificate lcm-witness writes
            Path(args.out).write_text(_whole_text(payload, args.format))
    payloads.append(_ball_witness_payload())
    for payload in payloads:
        for fmt in ("json", "csv"):
            text = _render(payload, fmt)
            assert "".join(text) == _whole_text(payload, fmt)
            assert fmt == "json" or len(text) == 1
    assert len(_render(payloads[-1], "json")) > 10


def test_render_holds_under_twice_its_text():
    # json.dumps held every chunk of the text in one list before joining
    # them, about five times the text at the peak
    payload = _ball_witness_payload()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = _render(payload, "json")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    size = sum(map(len, text))
    assert size > 300_000
    assert peak < 2 * size


def test_readme_commands_run(tmp_path, monkeypatch):
    # line by line and in order: verify reads the certificate that
    # lcm-witness writes
    commands = _readme_commands()
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv) == 0, argv


def _fresh_python(args, cwd):
    """Run python3 -S with only src/ on the path; -S keeps site hooks out."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-S", *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120,
    )


# runs the query in argv; the report below then lists the modules loaded
_RUN = "import sys, resfin.cli\nif resfin.cli.run(sys.argv[1:]): sys.exit('query failed')\n"
_IMPORT_ALL = "import resfin\nfrom resfin import *\nfor name in %r: getattr(resfin, name)\n" % (
    SUBMODULES,
)
_REPORT = (
    "import json, sys\n"
    "loaded = sorted(m[7:] for m in sys.modules if m.startswith('resfin.'))\n"
    "print(json.dumps([loaded, 'dataclasses' in sys.modules]), file=sys.stderr)\n"
)


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    cert = str(tmp_path / "cert.json")
    core = ["cli", "errors"]
    base = core + ["words"]
    search = ["lowindex", "permrep", "separability"]
    expected = [
        (_RUN, ["growth", "--rank", "2", "--max", "2"], base),
        (_RUN, ["dmax", "--rank", "2", "--radius", "2", "--cap", "6"], base + search),
        (_RUN, ["lcm-witness", "--set", "ab,aa", "--out", cert], base + ["lcmlib"]),
        (_RUN, ["verify", "--certificate", cert], base + ["lcmlib"]),
        (_RUN, ["nilpotent-girth", "--n", "4"], core + ["nilpotent"]),
        (_RUN, ["pnt", "--max", "3"], core + ["covers"]),
        (_RUN, ["theorem4", "--n", "3", "--cap", "12"], base + ["covers", "lcmlib", "lowindex", "permrep"]),
        (_RUN, ["power-witness", "--n", "4"], base + ["lcmlib", "lowindex", "permrep"]),
        (_IMPORT_ALL, [], list(SUBMODULES)),
    ]
    for source, argv, modules in expected:
        done = _fresh_python(["-c", source + _REPORT, *argv], tmp_path)
        assert done.returncode == 0, (argv, done.stderr)
        loaded, dataclasses = json.loads(done.stderr.splitlines()[-1])
        assert loaded == sorted(modules), argv
        assert not dataclasses, argv


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # a word hashes by its text, and a str hash is salted per process, so
    # no output may follow the iteration order of a set of words
    words = [format_word(w) for w in resfin.words.Ball(2, 4) if len(w) == 4][:64]
    queries = [
        ["lcm-witness", "--set", ",".join(words)],
        ["dmax", "--rank", "2", "--radius", "8", "--cap", "16", "--normal"],
        ["girth", "--rank", "2", "--radius", "2", "--cap", "24"],
        ["ineq", "--which", "1", "--rank", "2", "--n", "2", "--cap", "24"],
        ["theorem4", "--n", "4", "--cap", "16"],
    ]
    for argv in queries:
        runs = [
            subprocess.run(
                [sys.executable, "-S", "-m", "resfin", *argv], cwd=tmp_path, capture_output=True,
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed), timeout=120,
            )
            for seed in ("0", "1")
        ]
        assert runs[0].stdout and runs[0].stdout == runs[1].stdout, argv[0]
        assert runs[0].returncode == runs[1].returncode, argv[0]


def test_every_export_and_submodule_resolves():
    for name in resfin.__all__:
        obj = getattr(resfin, name)
        assert getattr(sys.modules[obj.__module__], name) is obj
    namespace = {}
    exec("from resfin import *", namespace)
    assert set(resfin.__all__) <= namespace.keys()
    for name in SUBMODULES:
        assert getattr(resfin, name) is importlib.import_module(f"resfin.{name}")
    with pytest.raises(AttributeError):
        resfin.no_such_name


def test_traced_cli_writes_its_stats(tmp_path):
    # bench/traced_cli.py rebinds functions inside src/ and reads its cache
    stats = tmp_path / "stats.json"
    done = _fresh_python(
        [str(ROOT / "bench" / "traced_cli.py"), str(stats), "growth", "--rank", "1", "--max", "0"],
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert {"import_s", "cache_hits", "cache_misses"} <= json.loads(stats.read_text()).keys()
