"""Divisibility and girth searches against independent enumeration oracles.

The plain-divisibility oracle rescans every pointed transitive action of
each degree instead of trusting the escape DFS; closed forms over a single
generator (smallest nondivisor, odd ball sizes) pin the rank-1 behavior
exactly.  Inequality reports are frozen for the cases small caps resolve.
"""

import math
import tracemalloc
from itertools import islice

import pytest

from resfin.covers import (
    chebyshev,
    lcm_upto,
    lift_closed,
    obstruction_scan,
    pnt_window,
    theorem4_experiment,
)
from resfin.errors import InputError, InternalError
from resfin.lcmlib import lcm_ball_witness, power_set_witness
from resfin.lowindex import enumerate_subgroups, hall_counts, subgroup_count
from resfin.nilpotent import entry_bound, girth_upper_bound_nilpotent
from resfin.permrep import eval_word, from_record, image_order, is_regular, is_transitive, orbit
from resfin.separability import (
    SepResult,
    _complete_action,
    _escape_tables,
    check_basic_inequality,
    check_girth_inequality,
    divisibility,
    max_divisibility,
    normal_divisibility,
    residual_girth,
    smallest_nondivisor,
)
from resfin.words import (
    Ball,
    FreeWord,
    SLBuilder,
    enumerate_ball,
    format_word,
    parse_word,
    sl_flatten,
    word_growth,
)


def W(text, rank=2):
    return parse_word(text, rank)


def oracle_divisibility(w, cap):
    # ground truth by brute force: one pointed action per subgroup
    for degree in range(2, cap + 1):
        for q in enumerate_subgroups(w.rank, degree):
            if eval_word(q, w)[0] != 0:
                return degree
    return None


def test_divisibility_small_words():
    assert divisibility(W("a")).value == 2
    assert divisibility(W("aa")).value == 3
    assert divisibility(W("abAB"), 2).unknown
    assert divisibility(W("abAB")).value == 3


def test_divisibility_matches_brute_force_on_ball():
    for w in Ball(2, 3).nontrivial():
        assert divisibility(w, 6).value == oracle_divisibility(w, 6)


def test_divisibility_of_powers_is_smallest_nondivisor():
    # the generator's orbit length must miss the exponent, in either rank
    for k in (1, 2, 3, 4, 6, 12, 30, 60):
        expect = smallest_nondivisor(k)
        assert divisibility(W("a" * k, 1), 8).value == expect
        assert divisibility(W("a" * k, 2), 8).value == expect


def test_divisibility_of_a_long_power_does_not_recurse_per_letter():
    # a^1200: the escape walk follows 1200 letters but defines few entries;
    # the least non-divisor of 1200 = 2^4 * 3 * 5^2 is 7
    expect = next(q for q in range(2, 17) if 1200 % q)
    assert expect == 7
    assert divisibility(W("a" * 1200, 1), 16).value == expect


def test_divisibility_names_a_word_past_rank_26_by_its_letters():
    # textual syntax ends at z, so the query names the word by its letters
    res = divisibility(FreeWord(27, (27, 27)), 4)
    assert res.value == smallest_nondivisor(2) == 3
    assert res.query == "divisibility((27, 27))"


def test_divisibility_witness_properties():
    for text in ("a", "aa", "abAB", "aabb", "aBab"):
        res = divisibility(W(text))
        assert res.witness.degree == res.value
        assert is_transitive(res.witness)
        assert eval_word(res.witness, W(text))[0] != 0
        # minimality: one degree less must come back unknown
        if res.value > 2:
            assert divisibility(W(text), res.value - 1).unknown


def test_normal_divisibility_frozen_values():
    assert normal_divisibility(W("a")).value == 2
    assert normal_divisibility(W("aa")).value == 3
    assert normal_divisibility(W("abAB")).value == 6
    assert normal_divisibility(W("abAB"), 5).unknown
    assert normal_divisibility(W("aaaaaa", 1), 3).unknown
    assert normal_divisibility(W("aaaaaa", 1)).value == 4
    assert normal_divisibility(W("a" * 60, 1)).value == 7


def test_normal_divisibility_witness_properties():
    for text in ("a", "aa", "abAB"):
        res = normal_divisibility(W(text))
        assert is_regular(res.witness)
        assert res.witness.degree == res.value
        assert eval_word(res.witness, W(text)) != tuple(range(res.witness.degree))


def test_normal_dominates_plain():
    # a regular action is in particular pointed transitive, so the plain
    # minimum can only be smaller
    for w in Ball(2, 2).nontrivial():
        plain = divisibility(w).value
        normal = normal_divisibility(w).value
        assert plain is not None and normal is not None
        assert plain <= normal


def test_normal_divisibility_accepts_straight_line_words():
    cert = lcm_ball_witness(2, 2)
    res = normal_divisibility(cert.word, 8)
    assert res.unknown  # survives nothing of order <= 8
    assert "straight-line" in res.query

    b = SLBuilder(2)
    trivial = b.mul(b.gen(1), b.inv(b.gen(1)))
    with pytest.raises(InputError):
        normal_divisibility(b.build(trivial), 4)


def test_divisibility_rejects_bad_input():
    with pytest.raises(InputError):
        divisibility(W(""))
    with pytest.raises(InputError):
        divisibility(W("a"), 0)
    assert divisibility(W("a"), 1).unknown  # order 1 separates nothing
    with pytest.raises(InputError):
        divisibility("abAB")
    with pytest.raises(InputError, match="need a FreeWord or SLWord, got str"):
        normal_divisibility("abAB")
    with pytest.raises(InputError):
        normal_divisibility(W("", 2))


def test_smallest_nondivisor():
    assert smallest_nondivisor(1) == 2
    assert smallest_nondivisor(6) == 4
    assert smallest_nondivisor(12) == 5
    assert smallest_nondivisor(60) == 7
    assert smallest_nondivisor(2520) == 11
    with pytest.raises(InputError):
        smallest_nondivisor(0)
    with pytest.raises(InputError):
        smallest_nondivisor(-3)


def test_every_count_and_cap_refuses_a_bool(monkeypatch):
    # a bool is an int to Python, but True is no radius, cap or count, and
    # 1.5 is none either; each is refused where it enters, before any scan
    def no_scan(*args):
        raise AssertionError("scanned quotients before checking the input")

    monkeypatch.setattr("resfin.lcmlib._power_set_scan", no_scan)
    q = from_record({"gens": [[2, 1], [1, 2]]})
    builder = SLBuilder(2)
    w = builder.build(builder.gen(1))
    for bad in (True, 1.5):
        for call in (
            lambda x: smallest_nondivisor(x),
            lambda x: divisibility(W("a"), x),
            lambda x: normal_divisibility(W("a"), x),
            lambda x: max_divisibility(2, x),
            lambda x: max_divisibility(2, 1, x),
            lambda x: residual_girth(x, 1),
            lambda x: residual_girth(2, x),
            lambda x: residual_girth(2, 1, x),
            lambda x: check_basic_inequality(2, x),
            lambda x: check_basic_inequality(2, 1, x),
            lambda x: check_girth_inequality(2, x),
            lambda x: check_girth_inequality(2, 2, order_cap=x),
            lambda x: check_girth_inequality(2, 2, girth_cap=x),
            lambda x: lcm_upto(x),
            lambda x: chebyshev(x),
            lambda x: pnt_window(x),
            lambda x: theorem4_experiment(x),
            lambda x: theorem4_experiment(2, order_cap=x),
            lambda x: obstruction_scan(x, 4),
            lambda x: obstruction_scan(3, x),
            lambda x: lift_closed(q, x, 2),
            lambda x: lift_closed(q, 1, x),
            lambda x: word_growth(2, x),
            lambda x: next(enumerate_ball(2, x)),
            lambda x: Ball(2, x),
            lambda x: sl_flatten(w, x),
            lambda x: lcm_ball_witness(2, x),
            lambda x: power_set_witness(x, 2),
            lambda x: power_set_witness(2, x),
            lambda x: entry_bound(x),
            lambda x: girth_upper_bound_nilpotent(x),
            lambda x: image_order(q, cap=x),
            lambda x: orbit(q, x),
        ):
            with pytest.raises(InputError, match=f"got {bad!r}"):
                call(bad)


def test_max_divisibility_rows():
    row = max_divisibility(1, 6, normal=True)
    assert (row["value"], row["argmax"], row["resolved"]) == (4, "aaaaaa", True)
    expect = {1: ("a", 2), 2: ("aa", 3), 3: ("aa", 3), 4: ("abAB", 6)}
    for n, (argmax, value) in expect.items():
        row = max_divisibility(2, n, normal=True)
        assert (row["value"], row["argmax"]) == (value, argmax)
    row = max_divisibility(2, 4)  # plain flavor peaks lower
    assert (row["value"], row["argmax"]) == (3, "aa")


def reference_row(rank, n, cap, normal):
    # one search per ball word, the first maximum kept
    search = normal_divisibility if normal else divisibility
    lower = first = None
    unresolved = 0
    for w in Ball(rank, n).nontrivial():
        value = search(w, cap).value
        if value is None:
            unresolved += 1
        elif lower is None or value > lower:
            lower, first = value, w
    resolved = unresolved == 0
    return {
        "rank": rank,
        "n": n,
        "normal": normal,
        "cap": cap,
        "resolved": resolved,
        "unresolved": unresolved,
        "lower_bound": lower,
        "value": lower if resolved else None,
        "argmax": format_word(first) if resolved else None,
    }


def test_ball_max_matches_per_word_search():
    cases = [(1, 12, 16), (1, 6, 3), (2, 4, 4), (2, 3, 2), (2, 2, 1), (3, 3, 12), (3, 2, 5)]
    cases += [(2, n, 12) for n in range(1, 6)]
    # the walk counts an unresolved word using g generators as its whole
    # orbit: at cap 1 words using 1, 2 and 3 generators all stay
    # unresolved; (3, 4, 3) and (2, 6, 4) leave words using 2 generators
    # in the normal flavor, and (3, 6, 4) words using 2 and 3
    cases += [(3, 3, 1), (4, 3, 1), (3, 4, 3), (2, 6, 4)]
    rows = [(rank, n, cap, normal) for rank, n, cap in cases for normal in (False, True)]
    rows.append((3, 6, 4, True))
    for rank, n, cap, normal in rows:
        expect = reference_row(rank, n, cap, normal)
        got = max_divisibility(rank, n, cap, normal=normal)
        assert got == expect, (rank, n, cap, normal)
        if cap == 1:
            assert got["unresolved"] == word_growth(rank, n) - 1


def test_ball_max_does_not_depend_on_the_batch_size(monkeypatch):
    # index 4 of F2 has more actions than one batch of 7, so the walk splits
    assert subgroup_count(2, 4) > 7
    cases = [(2, 6, 12, False), (2, 6, 12, True), (3, 3, 12, False), (1, 12, 16, True)]
    whole = [max_divisibility(rank, n, cap, normal=normal) for rank, n, cap, normal in cases]
    for batch in (1, 7):
        monkeypatch.setattr("resfin.separability._WALK_BATCH", batch)
        split = [max_divisibility(rank, n, cap, normal=normal) for rank, n, cap, normal in cases]
        assert split == whole, batch


def test_plain_max_searches_few_words_one_at_a_time(monkeypatch):
    # after degree 2, the radius-2 ball of F7 keeps its 14 squares, far
    # fewer than the index-3 subgroups; the walk must not build those
    assert list(islice(hall_counts(7), 3)) == [1, 127, 139777]
    expect = reference_row(7, 2, 12, False)
    asked = []

    def spy(rank, degree, **kwargs):
        asked.append(degree)
        return enumerate_subgroups(rank, degree, **kwargs)

    searched = []

    def escape(w, degree):
        searched.append((format_word(w), degree))
        return _escape_tables(w, degree)

    monkeypatch.setattr("resfin.separability.enumerate_subgroups", spy)
    monkeypatch.setattr("resfin.separability._escape_tables", escape)
    assert max_divisibility(7, 2, 12) == expect
    assert asked == [2]
    # the squares form one orbit, so only aa is searched, from degree 3;
    # the argmax re-check then searches it again from degree 2
    assert searched == [("aa", 3), ("aa", 2), ("aa", 3)]


def test_plain_max_completes_only_its_argmax(monkeypatch):
    # the per-word stage needs each word's degree only, so the one action
    # completed is the argmax re-check's
    expect = reference_row(7, 2, 12, False)
    calls = []

    def spy(*args):
        calls.append(args)
        return _complete_action(*args)

    monkeypatch.setattr("resfin.separability._complete_action", spy)
    assert max_divisibility(7, 2, 12) == expect
    assert len(calls) == 1


def test_normal_max_frozen_at_radius_ten():
    assert max_divisibility(2, 10, 12, normal=True) == {
        "rank": 2,
        "n": 10,
        "normal": True,
        "cap": 12,
        "resolved": True,
        "unresolved": 0,
        "lower_bound": 12,
        "value": 12,
        "argmax": "aabbAABB",
    }


def test_plain_max_frozen_at_radius_eleven():
    # reference_row(2, 11, 12, False) gives the same row, too slowly for the suite
    assert max_divisibility(2, 11, 12) == {
        "rank": 2,
        "n": 11,
        "normal": False,
        "cap": 12,
        "resolved": True,
        "unresolved": 0,
        "lower_bound": 4,
        "value": 4,
        "argmax": "aaaaaa",
    }


def test_normal_max_frozen_at_radius_twelve():
    # the README row, from the walk over every ball word and over orbit
    # representatives alike
    assert max_divisibility(2, 12, 16, normal=True) == {
        "rank": 2,
        "n": 12,
        "normal": True,
        "cap": 16,
        "resolved": True,
        "unresolved": 0,
        "lower_bound": 12,
        "value": 12,
        "argmax": "aabbAABB",
    }


def test_plain_max_frozen_at_radius_twelve():
    assert max_divisibility(2, 12, 12) == {
        "rank": 2,
        "n": 12,
        "normal": False,
        "cap": 12,
        "resolved": True,
        "unresolved": 0,
        "lower_bound": 5,
        "value": 5,
        "argmax": "a" * 12,
    }


def test_normal_max_rechecks_its_argmax(monkeypatch):
    def wrong(w, cap):
        return SepResult("normal_divisibility", 99, None, cap)

    monkeypatch.setattr("resfin.separability.normal_divisibility", wrong)
    with pytest.raises(InternalError):
        max_divisibility(2, 2, normal=True)


def test_plain_max_rechecks_its_argmax(monkeypatch):
    def wrong(w, cap):
        return SepResult("divisibility", 99, None, cap)

    monkeypatch.setattr("resfin.separability.divisibility", wrong)
    with pytest.raises(InternalError):
        # the walk resolves the whole radius-4 ball, so only the re-check
        # runs the per-word search
        max_divisibility(2, 4)


def test_max_divisibility_monotone_in_radius():
    values = [max_divisibility(2, n, normal=True)["value"] for n in range(1, 5)]
    assert values == sorted(values)


def test_max_divisibility_unresolved_row():
    row = max_divisibility(2, 2, cap=2, normal=True)
    assert row["resolved"] is False
    assert row["value"] is None and row["argmax"] is None
    assert row["unresolved"] == 4  # the four squares outlive order 2
    assert row["lower_bound"] == 2
    with pytest.raises(InputError):
        max_divisibility(2, 0)
    with pytest.raises(InputError):
        max_divisibility(2, 2, cap=0, normal=True)
    with pytest.raises(InputError):
        max_divisibility(0, 2, normal=True)


def test_residual_girth_small():
    res = residual_girth(2, 0)
    assert res.value == 1 and res.witness.degree == 1
    res = residual_girth(2, 1)
    assert res.value == 5
    assert is_regular(res.witness) and image_order(res.witness) == 5
    ball = list(Ball(2, 1))
    assert len({eval_word(res.witness, w) for w in ball}) == len(ball)
    assert residual_girth(2, 1, 4).unknown
    with pytest.raises(InputError):
        residual_girth(2, -1)


def test_residual_girth_unknown_without_listing_a_ball(monkeypatch):
    # the 1,457 words of the radius-6 ball outnumber every order up to 12
    def refuse(*args):
        raise AssertionError("the ball was listed")

    monkeypatch.setattr("resfin.separability.Ball", refuse)
    assert residual_girth(2, 6, 12).unknown


def test_residual_girth_meets_pigeonhole_floor():
    res = residual_girth(2, 1)
    assert res.value >= word_growth(2, 1)


def test_rank_one_closed_forms():
    # over a single generator the ball has 2n+1 elements and the cyclic
    # group of that exact order is already injective on it
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 64):
        assert residual_girth(1, n, 130).value == 2 * n + 1
    for n in (1, 2, 3, 4):
        assert residual_girth(1, n, 130).value == word_growth(1, n)


def test_sepresult_json_shape():
    res = divisibility(W("aa"))
    data = res.to_json()
    assert set(data) == {"query", "value", "witness", "cap"}
    assert data["value"] == 3
    assert from_record(data["witness"]).degree == 3
    unknown = divisibility(W("abAB"), 2)
    assert unknown.to_json()["value"] == "unknown"
    assert unknown.to_json()["witness"] is None
    assert isinstance(res, SepResult) and not res.unknown


def test_basic_inequality_resolved_cases():
    report = check_basic_inequality(1, 3)
    assert report["status"] == "pass" and report["pass"]
    assert report["growth_link"]["lhs"] == pytest.approx(math.log(7))
    assert report["growth_link"]["rhs"] == pytest.approx(4 * math.log(4))
    assert report["girth_link"]["status"] == "holds"
    assert report["girth_link"]["value"] == 7

    report = check_basic_inequality(2, 1)
    assert report["status"] == "pass"
    assert report["max_normal_divisibility"]["value"] == 3  # over the doubled ball
    assert report["growth_count"] == 8
    assert report["growth_link"]["rhs"] == pytest.approx(8 * math.log(3))
    assert report["girth_link"]["value"] == 5


def test_basic_inequality_girth_out_of_reach_still_passes():
    # ball injectivity at radius 2 needs order >= 17, beyond the cap, so
    # that link stays open while the growth link resolves
    report = check_basic_inequality(2, 2)
    assert report["max_normal_divisibility"]["value"] == 6
    assert report["growth_count"] == 36
    assert report["growth_link"]["holds"]
    assert report["girth_link"]["status"] == "inconclusive"
    assert report["status"] == "pass" and report["pass"]


def test_basic_inequality_inconclusive_when_max_unresolved():
    report = check_basic_inequality(2, 1, cap=2)
    assert report["status"] == "inconclusive"
    assert report["pass"] is False
    assert report["growth_link"] is None
    with pytest.raises(InputError):
        check_basic_inequality(2, 0)


def test_basic_inequality_counts_past_the_default_degree_cap(monkeypatch):
    # a max normal divisibility above 16 needs normal subgroups of index
    # past the enumerators' default cap; F1 has one for each index
    def row(rank, n, cap, normal):
        return {"resolved": True, "value": 17}

    monkeypatch.setattr("resfin.separability.max_divisibility", row)
    report = check_basic_inequality(1, 2, cap=24)
    assert report["growth_count"] == 17
    assert report["girth_link"]["value"] == 5
    assert report["status"] == "pass"


def test_girth_inequality_rank_two():
    report = check_girth_inequality(2, 2)
    assert report["status"] == "resolved" and report["chain_holds"]
    assert report["girth"]["value"] == 5
    assert report["dnormal"]["value"] is None  # witness outlives order 8
    assert report["dnormal"]["lower_bound"] == 9
    w = report["witness"]
    assert w["targets"] == 16
    assert w["declared_bound"] <= w["proof_bound"] <= w["statement_bound"]
    assert w["statement_covers_proof"] is True
    assert w["nontrivial_verified"] is True


def test_girth_inequality_rank_one_exact():
    # the nondivisor of lcm(1..n) resolves the chain arithmetically; at
    # n = 10 it is tight against the ball size 11, at n = 14 it is not
    report = check_girth_inequality(1, 2)
    assert report["chain_holds"] and report["dnormal"]["lower_bound"] == 3
    report = check_girth_inequality(1, 10)
    assert report["girth"]["value"] == 11
    assert report["dnormal"]["lower_bound"] == 11
    assert report["chain_holds"]
    report = check_girth_inequality(1, 14, girth_cap=16)
    assert report["girth"]["value"] == 15
    assert report["dnormal"]["lower_bound"] == 16
    assert report["chain_holds"]
    assert report["witness"]["proof_bound"] is None  # pairing bound needs rank 2


def test_girth_inequality_rank_one_builds_no_targets():
    # the 2n flat targets of the rank-1 ball total n(n + 1) letters, and
    # the check reads only their count, the bound and the witness
    tracemalloc.start()
    try:
        report = check_girth_inequality(1, 3000, order_cap=2, girth_cap=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert report["witness"]["targets"] == 6000
    assert report["witness"]["declared_bound"] == lcm_upto(3000)
    # second route: the ball witness itself gives the same size and bound
    for n in range(2, 41, 2):
        cert = lcm_ball_witness(1, n)
        w = check_girth_inequality(1, n, order_cap=2, girth_cap=2)["witness"]
        assert (w["targets"], w["declared_bound"]) == (len(cert.targets), cert.declared_bound)
        assert w["nontrivial_verified"] is cert.nontrivial_verified


def test_girth_inequality_statement_gap_is_flagged():
    # at radius 4 the padded pairing bound 6n4^k outgrows the quadratic
    # form, so the coverage flag flips without failing the chain
    report = check_girth_inequality(2, 4, order_cap=4, girth_cap=3)
    w = report["witness"]
    assert w["proof_bound"] == 6 * 4 * 4**8
    assert w["statement_bound"] == 6 * 4 * 161**2
    assert w["statement_covers_proof"] is False


def test_girth_inequality_tiny_caps_inconclusive():
    report = check_girth_inequality(2, 2, girth_cap=3)
    assert report["status"] == "inconclusive"
    assert report["chain_holds"] is None
    with pytest.raises(InputError):
        check_girth_inequality(2, 3)
    with pytest.raises(InputError):
        check_girth_inequality(2, 0)
