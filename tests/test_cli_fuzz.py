"""Seeded contract fuzzing of the command-line boundary.

Mutated `--set` values, mutated certificates and small integer options
go through run(argv) in process. Whatever the input, run() must return a documented exit code
(0 done, 1 bad input or a failed check, 2 inconclusive) and no exception
may escape it; an exit 3 would be a broken invariant on outside input.
"""

import json
import random

from resfin.cli import run

CONTRACT = {0, 1, 2}

# digits, spaces, non-ASCII text, stray commas and the code points just
# past either end of the alphabet
NOISE = ["0", "7", " ", "\t", "é", "ß", "→", ",", ",,", "{", "[", "`", "@"]


def _fuzzed_set(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randint(1, 4)):
        # mostly low generators, sometimes the last ones (rank 25 and 26)
        alphabet = rng.choice(["abAB", "abcABC", "yzYZ", "aA"])
        pieces.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4))))
    text = ",".join(pieces)
    for _ in range(rng.randint(0, 2)):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(NOISE) + text[at:]
    return text


def test_fuzzed_target_sets_keep_the_exit_contract(capsys):
    rng = random.Random(20261018)
    seen = set()
    for _ in range(200):
        text = _fuzzed_set(rng)
        code = run(["lcm-witness", "--set", text, "--format", "csv"])
        captured = capsys.readouterr()
        assert code in CONTRACT, (text, captured.err)
        if code == 1:
            assert captured.err.startswith("error:"), text
        seen.add(code)
    assert seen == {0, 1}


# a 5,000-digit integer is past Python's int parsing limit; it is written
# into the JSON text in place of this marker
BIG = "__big__"


def _paths(value, path=()):
    """Every (path, value) in a JSON tree, the root excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,), child
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def _mutated(cert: dict, rng: random.Random) -> str:
    cert = json.loads(json.dumps(cert))
    nodes = len(cert["nodes"])
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["drop", "type", "reference", "big"])
        paths = list(_paths(cert))
        if kind == "reference":  # node references are the integers in the tree
            paths = [(p, v) for p, v in paths if type(v) is int] or paths
        path, old = rng.choice(paths)
        parent = cert
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "type":
            pool = [None, True, 4.7, "x", "ab", [], {}, [old], -1, 0]
            parent[path[-1]] = rng.choice([v for v in pool if type(v) is not type(old)])
        elif kind == "reference":
            parent[path[-1]] = rng.choice([nodes, nodes + 7, -1, 2**40])
        else:
            parent[path[-1]] = BIG
    return json.dumps({"certificate": cert}).replace(json.dumps(BIG), "9" * 5000)


def test_fuzzed_certificates_keep_the_exit_contract(tmp_path, capsys):
    rng = random.Random(20261019)
    bases = []
    for targets in ("ab,bA,aB", "aa,aaa", "abAB"):
        path = tmp_path / "base.json"
        assert run(["lcm-witness", "--set", targets, "--out", str(path)]) == 0
        bases.append(json.loads(path.read_text())["certificate"])
    bad = tmp_path / "bad.json"
    seen = set()
    for _ in range(240):
        bad.write_text(_mutated(rng.choice(bases), rng))
        code = run(["verify", "--certificate", str(bad), "--format", "csv"])
        captured = capsys.readouterr()
        assert code in CONTRACT, captured.err
        assert "Traceback" not in captured.err
        seen.add(code)
    assert 1 in seen


# the integer options of each subcommand that takes any
INTEGER_OPTIONS = {
    "growth": ("--rank", "--max"),
    "dmax": ("--rank", "--radius", "--cap"),
    "girth": ("--rank", "--radius", "--cap"),
    "power-witness": ("--n",),
    "covers-scan": ("--m", "--max-degree"),
    "theorem4": ("--n", "--cap"),
    "nilpotent-girth": ("--n",),
    "ineq": ("--rank", "--n", "--cap", "--order-cap", "--girth-cap"),
    "pnt": ("--max",),
}


def test_fuzzed_integer_options_keep_the_exit_contract(capsys):
    rng = random.Random(20261020)
    seen = set()
    for _ in range(300):
        command = rng.choice(sorted(INTEGER_OPTIONS))
        argv = [command]
        if command == "ineq":
            argv += ["--which", rng.choice("12")]
        for option in INTEGER_OPTIONS[command] + ("--threads",):
            argv += [option, str(rng.randint(-3, 3))]
        if command == "dmax" and rng.random() < 0.5:
            argv.append("--normal")
        code = run(argv + ["--format", rng.choice(["json", "csv"])])
        captured = capsys.readouterr()
        assert code in CONTRACT, (argv, captured.err)
        assert "Traceback" not in captured.err, argv
        seen.add(code)
    assert seen == CONTRACT
