"""Self-test of the benchmark's answer checks.

Each checker gets one correct answer, which it must accept, and one or
more corrupted copies, each of which it must reject.  One more test
holds BENCHMARK.json to the metrics bench/run.py prints.  Runs standalone
(`python3 bench/test_checks.py`) or under pytest
(`python3 -m pytest bench/test_checks.py`).
"""

import copy
import json

import checks
import run

Z5_A = [2, 3, 4, 5, 1]
Z5_B = [3, 4, 5, 1, 2]


def _girth_payload():
    witness = {"degree": 5, "gens": [Z5_A, Z5_B], "transitive": True, "regular": True, "order": 5}
    return {
        "rows": [{"rank": 2, "n": 1, "cap": 6, "value": 5}],
        "result": {"query": "residual_girth(rank=2, n=1)", "value": 5, "witness": witness, "cap": 6},
    }


def _certificate():
    return {
        "rank": 2,
        "targets": ["a", "b"],
        "nodes": [["gen", 1], ["gen", 2], ["comm", 0, 1]],
        "root": 2,
        "declared_bound": 4,
        "derivations": [],
        "flat": "abAB",
        "nontrivial_verified": True,
    }


def _power_payload():
    nodes = [["gen", 1], ["pow", 0, 2], ["pow", 0, 3], ["pow", 0, 4], ["pow", 0, 12]]
    cert = {
        "rank": 2, "targets": ["a", "aa", "aaa", "aaaa"], "nodes": nodes, "root": 4,
        "declared_bound": 12, "derivations": [], "flat": None, "nontrivial_verified": True,
    }
    row = {
        "rank": 2, "n": 4, "targets": 4, "witness_nodes": 5, "declared_bound": 12,
        "normal_divisibility_lower": 5, "nontrivial_verified": True,
        "scanned_orders": [2, 3, 4], "scan_all_killed": True,
    }
    return {"rows": [row], "certificate": cert}


def _covers_payload():
    rows = [
        {"degree": d, "covers": c, "points": d * c, "non_closing_points": nc}
        for d, c, nc in ((1, 1, 0), (2, 3, 0), (3, 13, 0), (4, 71, 96))
    ]
    summary = {
        "m": 3, "lcm": 6, "max_degree": 4, "covers": 88, "points_checked": 330,
        "non_closing_points": 96, "violations": [],
    }
    return {"rows": rows, "summary": summary}


def _ineq1_payload():
    report = {
        "rank": 2, "n": 2, "ball_size": 17,
        "max_normal_divisibility": {
            "rank": 2, "n": 4, "normal": True, "cap": 24, "resolved": True, "unresolved": 0,
            "lower_bound": 6, "value": 6, "argmax": "abAB",
        },
        "growth_count": 36,
        "growth_link": {"lhs": 2.833213344056216, "rhs": 64.50334089220998, "holds": True},
        "girth_link": {
            "status": "holds", "value": 24,
            "link": {"lhs": 3.1780538303479458, "rhs": 64.50334089220998, "holds": True},
        },
        "status": "pass", "pass": True,
    }
    row = {"which": 1, "rank": 2, "n": 2, "status": "pass", "passed": True, "girth_link": "holds"}
    return {"rows": [row], "report": report}


def _dmax_payload(rank, n, cap, normal, value, argmax):
    return {"rows": [{
        "rank": rank, "n": n, "normal": normal, "cap": cap, "resolved": True, "unresolved": 0,
        "lower_bound": value, "value": value, "argmax": argmax,
    }]}


def _rejects(check, payload, corrupt) -> None:
    check(payload)  # the untouched answer passes
    bad = copy.deepcopy(payload)
    corrupt(bad)
    try:
        check(bad)
    except checks.CheckError:
        return
    raise AssertionError(f"{check} accepted a corrupted answer")


def test_girth_rejects_equal_generators():
    def corrupt(p):
        p["result"]["witness"]["gens"][1] = list(Z5_A)  # a and b now collide on the ball
    _rejects(lambda p: checks.check_girth(p, 2, 1, 5), _girth_payload(), corrupt)


def test_girth_rejects_irregular_witness():
    def corrupt(p):
        p["result"]["witness"]["gens"][0] = [2, 1, 3, 4, 5]
    _rejects(lambda p: checks.check_girth(p, 2, 1, 5), _girth_payload(), corrupt)


def test_covers_rejects_count_off_by_one():
    def corrupt(p):
        p["rows"][2].update(covers=14, points=42)
        p["summary"].update(covers=89, points_checked=333)
    _rejects(lambda p: checks.check_covers(p, 3, 4), _covers_payload(), corrupt)


def test_heisenberg_rejects_modulus_off_by_two():
    walk = checks.heisenberg_max_entry(4)
    payload = {"rows": [{"n": 4, "modulus": 9, "bound": 729, "injective": True}]}

    def corrupt(p):
        p["rows"][0].update(modulus=11, bound=1331)
    _rejects(lambda p: checks.check_nilpotent(p, 4, walk), payload, corrupt)


def test_theorem4_rejects_wrong_lcm():
    payload = {"rows": [
        {"n": 1, "lcm": 1, "witness_bound": 1, "dnormal_lower": 2, "resolved": True},
        {"n": 2, "lcm": 2, "witness_bound": 10, "dnormal_lower": 12, "resolved": True},
    ]}

    def corrupt(p):
        p["rows"][1]["lcm"] = 3
    _rejects(lambda p: checks.check_theorem4(p, 2, 16), payload, corrupt)


def test_rank_one_dmax_rejects_wrong_value():
    payload = _dmax_payload(1, 12, 16, False, 5, "a" * 12)

    def corrupt(p):
        p["rows"][0].update(value=4, lower_bound=4)
    _rejects(lambda p: checks.check_dmax(p, 1, 12, 16, False), payload, corrupt)


def test_plain_dmax_rejects_wrong_argmax():
    payload = _dmax_payload(2, 8, 12, False, 4, "aaaaaa")

    def corrupt(p):
        p["rows"][0]["argmax"] = "aaaa"
    _rejects(lambda p: checks.check_dmax(p, 2, 8, 12, False, argmax="aaaaaa"), payload, corrupt)


def test_ineq1_rejects_wrong_girth():
    def corrupt(p):
        p["report"]["girth_link"]["value"] = 23
    _rejects(lambda p: checks.check_ineq1(p, 2, 2), _ineq1_payload(), corrupt)


def test_witness_rejects_survivor_where_target_dies():
    payload = {"rows": [{"targets": 2, "declared_bound": 4, "nontrivial_verified": True,
                         "verified": True}],
               "certificate": _certificate()}

    def corrupt(p):
        # root "ab": with a sent to the identity the target a dies, ab does not
        p["certificate"].update(nodes=[["gen", 1], ["gen", 2], ["mul", 0, 1]], declared_bound=2,
                                flat="ab")
        p["rows"][0]["declared_bound"] = 2
    _rejects(lambda p: checks.check_lcm_witness(p, 2, ["a", "b"]), payload, corrupt)


def test_witness_rejects_wrong_bound_and_unreduced_flat():
    def bound(c):
        c["declared_bound"] = 5

    def unreduced(c):
        c["flat"] = "aAabAB"
    for corrupt in (bound, unreduced):
        _rejects(lambda c: checks.check_certificate(c, 2, ["a", "b"]), _certificate(), corrupt)


def test_power_witness_rejects_root_that_survives():
    def corrupt(p):
        # a^2 survives a 3-cycle, which kills the target a^3
        p["certificate"].update(root=1, declared_bound=2)
        p["rows"][0]["declared_bound"] = 2
    _rejects(lambda p: checks.check_power_witness(p, 4), _power_payload(), corrupt)


def test_verify_rejects_failed_replay():
    payload = {"rows": [{"targets": 2, "declared_bound": 4, "ok": True, "failures": ""}]}

    def corrupt(p):
        p["rows"][0].update(ok=False, failures="derivation 0 step 1: bad")
    _rejects(lambda p: checks.check_verify(p, _certificate()), payload, corrupt)


def test_growth_probe_rejects_wrong_size():
    def corrupt(p):
        p["rows"][0]["ball_size"] = 2
    _rejects(checks.check_growth_probe, {"rows": [{"n": 0, "ball_size": 1}]}, corrupt)


def test_closed_forms():
    assert checks.hall_counts(7) == [1, 3, 13, 71, 461, 3447, 29093]
    assert [checks.ball_size(2, n) for n in range(4)] == [1, 5, 17, 53]
    assert all(checks.ball_size(r, n) == sum(1 for _ in checks.ball(r, n))
               for r in (1, 2, 3) for n in range(5))
    assert [checks.heisenberg_max_entry(n) for n in (1, 2, 4, 8)] == [1, 2, 4, 16]


def test_benchmark_json_names_the_printed_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == printed
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} checker self-tests passed")
