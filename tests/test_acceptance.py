"""The thirteen acceptance criteria, one test (or split pair) each.

Each criterion re-derives its expected values inside the test where an
independent route exists, and respects the stated runtime budgets.  The
conftest hook prints an ACCEPTANCE line per criterion after the run.
"""

import json
import math
import random
import time

import pytest

from resfin.cli import run as cli_run
from resfin.covers import (
    analyze_cover,
    lcm_upto,
    lift_closed,
    obstruction_scan,
    pnt_window,
    theorem4_experiment,
)
from resfin.lcmlib import (
    closure_membership,
    exact_lcm_small,
    lcm_witness,
    power_set_witness,
    verify_certificate,
)
from resfin.lowindex import (
    enumerate_normal,
    enumerate_subgroups,
    normal_subgroup_growth,
)
from resfin.nilpotent import entry_bound, girth_upper_bound_nilpotent
from resfin.permrep import eval_word, is_regular, is_transitive, row_cycles
from resfin.separability import (
    check_basic_inequality,
    check_girth_inequality,
    divisibility,
    normal_divisibility,
    residual_girth,
)
from resfin.words import Ball, format_word, parse_word, word_growth


def W(text, rank=2):
    return parse_word(text, rank)


def test_criterion_01():
    start = time.monotonic()
    expected = [1, 5, 17, 53, 161]
    for n, size in enumerate(expected):
        assert word_growth(2, n) == size  # closed form
        assert sum(1 for _ in Ball(2, n)) == size  # BFS enumeration
    assert time.monotonic() - start < 1.0


def test_criterion_02():
    start = time.monotonic()
    counts = {q: sum(1 for _ in enumerate_normal(2, q)) for q in (2, 3)}
    assert counts == {2: 3, 3: 4}
    # oracle: surjections onto the cyclic group mod its automorphisms
    for q in (2, 3):
        surjections = sum(
            1
            for a in range(q)
            for b in range(q)
            if math.gcd(math.gcd(a, b), q) == 1
        )
        automorphisms = sum(1 for a in range(1, q) if math.gcd(a, q) == 1)
        assert counts[q] == surjections // automorphisms
    assert normal_subgroup_growth(2, 3) == 8
    assert time.monotonic() - start < 5.0


def test_criterion_03a():
    start = time.monotonic()
    res = divisibility(W("a"), 8)
    assert res.value == 2 and res.witness.degree == 2
    assert divisibility(W("a"), 1).unknown

    res = divisibility(W("aa"), 8)
    assert res.value == 3 and is_transitive(res.witness)
    assert divisibility(W("aa"), 2).unknown

    res = normal_divisibility(W("abAB"), 8)
    assert res.value == 6 and is_regular(res.witness)
    assert eval_word(res.witness, W("abAB")) != tuple(range(res.witness.degree))
    assert normal_divisibility(W("abAB"), 5).unknown

    # exhaustive search puts the sixth power at 4: it survives the cyclic
    # quotient of order 4, since 4 does not divide 6
    res = normal_divisibility(W("aaaaaa", 1), 8)
    assert res.value == 4
    assert eval_word(res.witness, W("aaaaaa", 1)) != tuple(range(res.witness.degree))
    assert normal_divisibility(W("aaaaaa", 1), 3).unknown
    assert time.monotonic() - start < 30.0


def test_criterion_03b():
    # The stated reference value for the sixth power was 7, and reckoning
    # refutes it: a regular quotient of F_1 of order q is Z/q, in which a^6
    # survives exactly when q does not divide 6, so the least such order
    # is 4. The stated 7 is D_N(a^60), since 60 = lcm(1..6).
    by_arithmetic = next(q for q in range(1, 9) if 6 % q != 0)
    assert by_arithmetic == 4
    assert normal_divisibility(W("aaaaaa", 1), 8).value == by_arithmetic


def test_criterion_04():
    res = residual_girth(2, 1, 5)
    assert res.value == 5 and is_regular(res.witness)
    for n in range(1, 65):
        assert residual_girth(1, n, 130).value == 2 * n + 1
    # independent route for small n: a cyclic quotient of order q is
    # injective on {-n..n} exactly when q exceeds 2n
    for n in range(1, 6):
        by_arithmetic = next(
            q for q in range(1, 20)
            if len({k % q for k in range(-n, n + 1)}) == 2 * n + 1
        )
        assert by_arithmetic == residual_girth(1, n, 20).value


def test_criterion_05():
    rng = random.Random(2024)
    pool = list(Ball(2, 4).nontrivial())
    quotients = [q for order in range(2, 9) for q in enumerate_normal(2, order)]
    for _ in range(200):
        targets = rng.sample(pool, rng.randint(1, 8))
        cert = lcm_witness(targets)
        assert verify_certificate(cert)
        d = max(len(t) for t in targets)
        k = (len(targets) - 1).bit_length()
        assert cert.flat is not None
        assert len(cert.flat) <= 6 * d * 4**k
        for q in quotients:
            if eval_word(q, cert.word) != tuple(range(q.degree)):
                # surviving witness forces every target to survive
                assert all(
                    eval_word(q, t) != tuple(range(q.degree)) for t in targets
                )


def test_criterion_06():
    word = exact_lcm_small([W("a"), W("b")])
    assert len(word) == 4 and format_word(word) == "abAB"
    quotients = [q for order in range(2, 7) for q in enumerate_normal(2, order)]
    for w in Ball(2, 3).nontrivial():
        # no shorter word sits in both normal closures: some quotient
        # kills one generator while w survives
        refuted = any(
            eval_word(q, g) == tuple(range(q.degree))
            and eval_word(q, w) != tuple(range(q.degree))
            for q in quotients
            for g in (W("a"), W("b"))
        )
        assert refuted
        assert not (
            closure_membership(w, W("a")) and closure_membership(w, W("b"))
        )
    cert = lcm_witness([W("a"), W("b")])
    assert cert.flat == word  # the construction is already minimal here


def test_criterion_07():
    start = time.monotonic()
    for n in (2, 3, 4):
        report = power_set_witness(2, n)
        assert report["scan_all_killed"]
        assert report["normal_divisibility_lower"] >= n
        cert = report["certificate"]
        for order in range(2, n):
            for q in enumerate_normal(2, order):
                assert eval_word(q, cert.word) == tuple(range(q.degree))
    assert time.monotonic() - start < 60.0


def test_criterion_08():
    for degree in range(1, 7):
        for q in enumerate_subgroups(2, degree):
            analysis = analyze_cover(q)
            assert sum(analysis.x_cycle_lengths) == degree
            for point in range(1, degree + 1):
                cycle = next(
                    len(c) for c in row_cycles(q.fwd[0]) if point - 1 in c
                )
                for exponent in range(1, 25):
                    assert lift_closed(q, point, exponent) == (
                        exponent % cycle == 0
                    )
    for m in (1, 2, 3):
        report = obstruction_scan(m, 6)
        assert report["violations"] == []


def test_criterion_09():
    start = time.monotonic()
    rows = theorem4_experiment(3)
    last = rows[-1]
    assert last["n"] == 3 and last["lcm"] == 6
    assert last["dnormal_lower"] >= 7
    assert last["resolved"]
    assert time.monotonic() - start < 60.0


def test_criterion_10():
    report = pnt_window(512)
    for row in report["rows"]:
        if row["n"] >= 7:
            assert row["in_window"]
    assert report["verified_from"] == 3  # direct computation from this run
    assert lcm_upto(10) == 2520


def test_criterion_11():
    for n in range(1, 7):
        modulus, _, injective = girth_upper_bound_nilpotent(n)
        assert injective
        assert modulus == 2 * entry_bound(n) + 1
    for n in range(2, 17):
        _, bound, _ = girth_upper_bound_nilpotent(n)
        assert bound <= (n * n + 3) ** 3


def test_criterion_12():
    for n in range(1, 5):
        assert check_basic_inequality(1, n)["pass"]
    for n in (1, 2):
        assert check_basic_inequality(2, n)["pass"]
    report = check_girth_inequality(2, 2, order_cap=8, girth_cap=12)
    assert report["status"] == "resolved"
    assert report["chain_holds"]


def test_criterion_13(capsys):
    commands = [
        ["growth", "--rank", "2", "--max", "4"],
        ["dmax", "--rank", "2", "--radius", "2", "--cap", "8", "--normal"],
        ["girth", "--rank", "2", "--radius", "1", "--cap", "6"],
        ["lcm-witness", "--set", "a,b,aa"],
        ["power-witness", "--n", "2"],
        ["covers-scan", "--m", "2", "--max-degree", "4"],
        ["theorem4", "--n", "2", "--cap", "6"],
        ["nilpotent-girth", "--n", "2"],
        ["ineq", "--which", "2", "--rank", "2", "--n", "2"],
        ["pnt", "--max", "20"],
    ]
    for argv in commands:
        outputs = set()
        for threads in ("1", "2", "8"):
            code = cli_run(argv + ["--threads", threads, "--format", "csv"])
            assert code == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1, f"thread-dependent output for {argv[0]}"


def test_criterion_13_verify_subcommand(tmp_path, capsys):
    # verify is file-driven; exercise it once per thread count as well
    path = tmp_path / "cert.json"
    assert cli_run(["lcm-witness", "--set", "ab,ba", "--out", str(path)]) == 0
    outputs = set()
    for threads in ("1", "2", "8"):
        assert cli_run(["verify", "--certificate", str(path),
                        "--threads", threads, "--format", "csv"]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1
    data = json.loads(path.read_text())
    assert data["certificate"]["declared_bound"] >= 2
