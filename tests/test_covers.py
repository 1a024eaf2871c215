"""Checks for the cover-analysis module.

The lift-closure law is verified against an independent oracle that walks
the first generator step by step instead of using cycle arithmetic.
"""

import functools
import math
import time
import tracemalloc
from collections import Counter
from itertools import islice

import pytest

import resfin.covers
import resfin.lcmlib
import resfin.lowindex
import resfin.permrep

from resfin.cli import run
from resfin.covers import (
    analyze_cover,
    chebyshev,
    lcm_upto,
    lift_closed,
    obstruction_scan,
    pnt_window,
    theorem4_experiment,
)
from resfin.errors import InputError, InternalError, ResourceError
from resfin.lcmlib import lcm_witness
from resfin.lowindex import enumerate_subgroups
from resfin.permrep import PermQuotient
from resfin.separability import normal_divisibility
from resfin.words import generator, power

from oracles import per_table_obstruction_scan


# x = (1 2 3)(4 5) and y = (3 4), as 1-based images
X_CYCLES = [2, 3, 1, 5, 4]
Y_SWAP = [1, 2, 4, 3, 5]


def test_analyze_cover_examples():
    a = analyze_cover(PermQuotient([X_CYCLES, Y_SWAP]))
    assert a.x_cycle_lengths == (3, 2)
    assert a.basepoint_cycle_length == 3
    assert a.cycles == ((1, 2, 3), (4, 5))

    b = analyze_cover(PermQuotient([[1, 2, 3], [2, 3, 1]]))
    assert b.x_cycle_lengths == (1, 1, 1)
    assert b.basepoint_cycle_length == 1


def test_analyze_cover_ordering_is_length_then_min_point():
    # x = (1 5)(2 3 4), y = (1 2)
    a = analyze_cover(PermQuotient([[5, 3, 4, 2, 1], [2, 1, 3, 4, 5]]))
    assert a.cycles == ((2, 3, 4), (1, 5))


def test_analyze_cover_rejects_bad_input():
    with pytest.raises(InputError):
        analyze_cover(PermQuotient([[1, 2, 3]]))
    with pytest.raises(InputError):
        analyze_cover(PermQuotient([[1, 2], [1, 2]]))


def test_cycle_sum_law():
    for degree in range(1, 8):
        for q in enumerate_subgroups(2, degree):
            assert sum(analyze_cover(q).x_cycle_lengths) == degree
    for q in islice(enumerate_subgroups(2, 8), 3000):
        assert sum(analyze_cover(q).x_cycle_lengths) == 8


def test_lift_closure_law_against_walk_oracle():
    # independent route: apply the first generator one step at a time
    for degree in range(1, 7):
        for q in enumerate_subgroups(2, degree):
            x = q.fwd[0]
            current = list(range(degree))
            for ell in range(1, 25):
                current = [x[p] for p in current]
                for p in range(degree):
                    assert lift_closed(q, p + 1, ell) == (current[p] == p)
            for p in range(1, degree + 1):
                assert lift_closed(q, p, 0)


def test_lift_closed_edge_cases():
    q = PermQuotient([X_CYCLES, Y_SWAP])
    assert lift_closed(q, 1, -6)
    assert not lift_closed(q, 1, -4)
    assert lift_closed(q, 4, 10**30)
    assert not lift_closed(q, 1, 10**30 + 1)
    with pytest.raises(InputError):
        lift_closed(q, 0, 3)
    with pytest.raises(InputError):
        lift_closed(q, 6, 3)


def test_obstruction_scan_zero_violations():
    for m in (1, 2, 3):
        report = obstruction_scan(m, 6)
        assert report["violations"] == []
        assert report["lcm"] == lcm_upto(m)
        assert report["covers"] == sum(r["covers"] for r in report["rows"])
        assert report["points_checked"] == sum(r["points"] for r in report["rows"])
        assert report["non_closing_points"] > 0


def test_obstruction_scan_small_cases():
    assert obstruction_scan(2, 4)["violations"] == []
    assert obstruction_scan(1, 2)["violations"] == []
    with pytest.raises(InputError):
        obstruction_scan(0, 4)


@pytest.mark.parametrize("m, max_degree", [(1, 6), (2, 6), (3, 6), (4, 6), (3, 7)])
def test_obstruction_scan_matches_the_per_table_scan(m, max_degree):
    assert obstruction_scan(m, max_degree) == per_table_obstruction_scan(m, max_degree)


def test_obstruction_scan_reads_each_distinct_row_once(monkeypatch):
    cycles, calls = resfin.permrep.row_cycles, []

    def spy(row):
        calls.append(row)
        return cycles(row)

    monkeypatch.setattr(resfin.permrep, "row_cycles", spy)
    report = obstruction_scan(3, 7)
    # the distinct rows of x at index 1..7: 1+2+4+10+28+94+354, not one
    # per cover
    assert len(calls) == len(set(calls)) == 493
    assert report["covers"] == 33_089


def test_obstruction_scan_still_checks_each_row(monkeypatch):
    cycles = resfin.permrep.row_cycles
    # a decomposition that loses its last cycle
    monkeypatch.setattr(resfin.permrep, "row_cycles", lambda row: cycles(row)[:-1])
    with pytest.raises(InternalError, match="cycle lengths must add up to the degree"):
        obstruction_scan(3, 4)
    monkeypatch.undo()
    # an lcm that some short cycle fails to divide
    monkeypatch.setattr(resfin.covers, "lcm_upto", lambda m: 1)
    with pytest.raises(InternalError, match="non-closing lift on a cycle of length 2 <= 3"):
        obstruction_scan(3, 4)


def test_theorem4_rows_at_default_cap():
    rows = theorem4_experiment(4, order_cap=8)
    assert [r["lcm"] for r in rows] == [1, 2, 6, 12]
    assert [r["dnormal_lower"] for r in rows] == [2, 9, 9, 9]
    assert [r["resolved"] for r in rows] == [True, True, True, False]
    assert [r["witness_bound"] for r in rows] == [1, 10, 248, 1584]
    # the certified bound behind rows that resolve
    for r in rows:
        if r["resolved"]:
            assert r["dnormal_lower"] >= r["lcm"] + 1
    assert rows[2]["dnormal_lower"] >= 7


def test_theorem4_unresolved_row_resolves_with_a_larger_cap():
    row = theorem4_experiment(4, order_cap=12)[3]
    assert row["dnormal_lower"] == 13
    assert row["resolved"]


def test_theorem4_scans_up_to_the_callers_cap():
    # row 3 survives no quotient up to 17, so the scan reaches order 17,
    # past the search's default degree cap of 16
    rows = theorem4_experiment(3, order_cap=17)
    assert [r["dnormal_lower"] for r in rows] == [2, 12, 18]


def test_theorem4_is_deterministic():
    assert theorem4_experiment(3) == theorem4_experiment(3)


def test_theorem4_refuses_before_keeping_the_rows():
    # the rows keep lcm(1..j) for every j <= n, quadratically many digits
    # in all, so the refusal must come before them
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError) as refused:
            theorem4_experiment(30000, order_cap=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert str(refused.value) == (
        "the targets x..x^<13013 digits> total <26024 digits> letters, past the flat cap 1000000"
    )


def _per_row_theorem4(n, cap):
    # a second route: each row, repeated lcms included, builds its witness
    # and searches the orders for it with normal_divisibility, which skips
    # by derived length from order 2 on
    rows = []
    for j in range(1, n + 1):
        ell = lcm_upto(j)
        cert = lcm_witness([power(generator(2, 1), i) for i in range(1, ell + 1)])
        lower = normal_divisibility(cert.word, cap).value or cap + 1
        rows.append(
            {
                "n": j,
                "lcm": ell,
                "witness_bound": cert.declared_bound,
                "dnormal_lower": lower,
                "resolved": cert.nontrivial_verified and lower >= ell + 1,
            }
        )
    return rows


@pytest.mark.parametrize("cap", [8, 12, 16, 17])
def test_theorem4_one_pass_matches_the_per_row_route(cap):
    for n in range(1, 5):
        assert theorem4_experiment(n, order_cap=cap) == _per_row_theorem4(n, cap), n


def _count_searches(monkeypatch) -> Counter:
    """Count the calls of `_search` by degree, from an empty cache."""
    searched = Counter()
    search = resfin.lowindex._search

    def spy(rank, degree, regular, kernel_radius=0):
        searched[degree] += 1
        return search(rank, degree, regular, kernel_radius)

    resfin.lowindex._materialized.cache_clear()
    monkeypatch.setattr(resfin.lowindex, "_search", spy)
    return searched


def test_theorem4_searches_each_order_once(monkeypatch):
    # rows 3 and 4 scan every order up to their own exponents, 6 and 12,
    # and each order is searched at most once for both. Past 12, every
    # group of order below 24 is metabelian and kills both witnesses, of
    # depths 3 and 4, so orders 13 to 16 are not searched
    searched = _count_searches(monkeypatch)
    theorem4_experiment(4, order_cap=16)
    assert [searched[order] for order in range(13, 17)] == [0, 0, 0, 0]
    assert all(searched[order] <= 1 for order in range(2, 13))


def test_theorem4_replays_the_orders_a_witness_has_read(monkeypatch):
    # the witnesses for lcm 60 and 420 both read every order to 16, each on
    # its own; the second reads orders 13 to 16 from the cache the first
    # filled, so every order from 2 to 16 is searched exactly once
    searched = _count_searches(monkeypatch)
    theorem4_experiment(7, order_cap=16)
    assert searched == {order: 1 for order in range(2, 17)}
    resfin.lowindex._materialized.cache_clear()


def test_chebyshev_values():
    value, log = chebyshev(10)
    assert value == 2520
    assert round(log, 3) == 7.832
    assert chebyshev(1) == (1, 0.0)
    value100, log100 = chebyshev(100)
    assert 0.5 <= log100 / 100 <= 1.5
    assert value100 % lcm_upto(10) == 0


def test_pnt_window_threshold():
    report = pnt_window(512)
    assert report["verified_from"] == 3
    assert [r["n"] for r in report["rows"] if not r["in_window"]] == [1, 2]
    assert all(r["in_window"] for r in report["rows"] if r["n"] >= 7)
    assert report["rows"][9]["lcm"] == 2520


def test_lcm_upto_input_check():
    with pytest.raises(InputError):
        lcm_upto(0)


def test_lcm_upto_matches_the_running_lcm():
    # second route: lcm folded over 1..n, against the prime powers
    acc = 1
    for n in range(1, 2001):
        acc = math.lcm(acc, n)
        assert lcm_upto(n) == acc, n
    assert lcm_upto(2000) == functools.reduce(math.lcm, range(1, 2001), 1)


def test_theorem4_refuses_a_million_at_once():
    # lcm(1..10^6) has 434,115 digits; folding math.lcm over 1..n took
    # past 60 s to reach it
    start = time.perf_counter()
    with pytest.raises(ResourceError) as refused:
        theorem4_experiment(10**6, order_cap=2)
    assert time.perf_counter() - start < 20
    assert str(refused.value) == (
        "the targets x..x^<434115 digits> total <868230 digits> letters,"
        " past the flat cap 1000000"
    )


def test_power_set_scan_checks_its_claim_range(monkeypatch, capsys):
    # with every order past a witness's own exponent skipped by depth, and
    # every witness the bare x, which survives at order 2: the witness for
    # x..x^2 must still be evaluated at order 2 and refused there
    x = generator(2, 1)
    bare = lcm_witness([x])
    monkeypatch.setattr(resfin.lowindex, "_derived_depth", lambda w: math.inf)
    monkeypatch.setattr(resfin.lcmlib, "lcm_witness", lambda targets: bare)
    message = "a quotient of order 2 kept the witness for x..x^2 alive"
    with pytest.raises(InternalError) as refused:
        theorem4_experiment(2, order_cap=4)
    assert str(refused.value) == message
    assert run(["theorem4", "--n", "2", "--cap", "4"]) == 3
    assert capsys.readouterr().err == f"internal invariant violated: {message}\n"


def test_theorem4_builds_each_distinct_lcm_once(monkeypatch):
    # lcm(1..5) = lcm(1..6) = 60, so rows 5 and 6 share one witness
    built = Counter()
    build = resfin.lcmlib.lcm_witness

    def spy(targets):
        built[len(targets)] += 1
        return build(targets)

    monkeypatch.setattr(resfin.lcmlib, "lcm_witness", spy)
    rows = theorem4_experiment(6, order_cap=12)
    assert sorted(built) == [1, 2, 6, 12, 60] and sum(built.values()) == 5
    assert rows[4]["lcm"] == rows[5]["lcm"] == 60
    assert {k: v for k, v in rows[4].items() if k != "n"} == {
        k: v for k, v in rows[5].items() if k != "n"
    }
