"""Permutation representation tests.

The closure oracle for image_order is itertools-based and independent of
the library's BFS.
"""

import itertools
import random
import re

import pytest

from resfin import InputError, SLBuilder, enumerate_ball, parse_word
from resfin.lcmlib import lcm_witness
from resfin.lowindex import enumerate_normal, enumerate_subgroups
from resfin.permrep import (
    PermQuotient,
    basepoint_image,
    eval_word,
    from_record,
    image_order,
    is_regular,
    is_transitive,
    orbit,
    row_cycles,
    to_record,
)
from resfin.words import generator, power

from oracles import canonical_key, compose, invert, permutation_eval, relabel


def q2(x_images, y_images):
    return PermQuotient([x_images, y_images])


def oracle_group_order(rows):
    """Closure under composition, tuples all the way down."""
    d = len(rows[0])
    ident = tuple(range(d))
    seen = {ident}
    frontier = [ident]
    while frontier:
        a = frontier.pop()
        for b in rows:
            c = tuple(b[a[i]] for i in range(d))
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return len(seen)


def random_quotient(rng, rank, degree):
    gens = []
    for _ in range(rank):
        images = list(range(1, degree + 1))
        rng.shuffle(images)
        gens.append(images)
    return PermQuotient(gens)


def random_word(rng, rank, max_len):
    letters = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    raw = [rng.choice(letters) for _ in range(rng.randrange(max_len + 1))]
    from resfin import reduce

    return reduce(rank, raw)


def test_constructor_checks_its_images():
    for gens, named in (
        ([], "need at least one generator image"),
        ([[]], "a permutation needs at least one point"),
        ([[1, 1, 2]], "images (1, 1, 2) are not a bijection of 1..3"),
        ([[1, 2, 4]], "images (1, 2, 4) are not a bijection of 1..3"),
        ([[0, 1]], "images (0, 1) are not a bijection of 1..2"),
        # a float or a bool equal to a point is still no point
        ([[2.0, 1]], "images (2.0, 1) are not a bijection of 1..2"),
        ([[True, 2]], "images (True, 2) are not a bijection of 1..2"),
        ([[2, 1], [1]], "generator images must share a degree"),
    ):
        with pytest.raises(InputError, match=re.escape(named)):
            PermQuotient(gens)
    q = PermQuotient([(2, 1, 3, 4), [1, 2, 3, 4]])
    assert q.fwd == ((1, 0, 2, 3), (0, 1, 2, 3))
    assert q.bwd == q.fwd
    assert repr(q) == "PermQuotient(degree=4, gens=[2 1 3 4, 1 2 3 4])"


def test_rows_act_on_the_right():
    q = PermQuotient([[2, 3, 1]])
    assert eval_word(q, parse_word("", rank=1)) == (0, 1, 2)
    assert eval_word(q, parse_word("a", rank=1)) == (1, 2, 0)
    assert eval_word(q, parse_word("A", rank=1))[1] == 0
    assert eval_word(q, parse_word("aaa", rank=1)) == (0, 1, 2)
    assert row_cycles(q.fwd[0]) == [(0, 1, 2)]
    # apply (1 2) then (2 3): point 1 goes to 2, then 2 goes to 3
    q = q2([2, 1, 3], [1, 3, 2])
    assert eval_word(q, parse_word("ab", rank=2))[0] == 2


def test_eval_word_examples():
    q = q2([2, 1], [1, 2])
    assert eval_word(q, parse_word("aa", rank=2)) == (0, 1)

    q = q2([2, 3, 1], [1, 2, 3])
    assert eval_word(q, parse_word("a", rank=2))[0] == 1

    q = q2([2, 3, 1, 5, 4], [1, 2, 4, 3, 5])
    assert eval_word(q, parse_word("abAB")) != tuple(range(5))


def test_eval_word_is_homomorphism():
    rng = random.Random(2026)
    for _ in range(10):
        q = random_quotient(rng, 2, rng.randrange(2, 7))
        for _ in range(100):
            u = random_word(rng, 2, 8)
            v = random_word(rng, 2, 8)
            assert eval_word(q, u * v) == compose(eval_word(q, u), eval_word(q, v))
            assert eval_word(q, ~u) == invert(eval_word(q, u))


def test_eval_slword_uses_fast_powers():
    b = SLBuilder(2)
    root = b.pow(b.gen(1), 10**18 + 1)
    slw = b.build(root)
    q = q2([2, 3, 4, 5, 1], [1, 2, 3, 4, 5])
    # 10^18 + 1 mod 5 = 1, so the huge power acts like one shift
    assert eval_word(q, slw) == eval_word(q, parse_word("a", rank=2))


def test_orbit():
    q = q2([2, 1, 3], [1, 2, 3])
    assert orbit(q, 1) == {1, 2}
    assert orbit(q, 3) == {3}
    with pytest.raises(InputError, match="point 4 out of range 1..3"):
        orbit(q, 4)
    assert not is_transitive(q)
    trivial = q2([1, 2, 3], [1, 2, 3])
    assert orbit(trivial, 1) == {1}
    five = q2([2, 3, 4, 5, 1], [1, 2, 3, 4, 5])
    assert orbit(five, 1) == {1, 2, 3, 4, 5}
    assert is_transitive(five)


def test_image_order():
    assert image_order(q2([2, 1], [1, 2])) == 2
    assert image_order(q2([2, 3, 1], [2, 1, 3])) == 6
    assert image_order(q2([1, 2], [1, 2])) == 1
    assert image_order(q2([2, 3, 1], [2, 1, 3]), cap=5) is None


def test_image_order_matches_oracle():
    rng = random.Random(99)
    for _ in range(40):
        q = random_quotient(rng, 2, rng.randrange(2, 6))
        assert image_order(q, cap=10**4) == oracle_group_order(q.fwd)


def test_is_regular():
    assert is_regular(q2([2, 1], [1, 2]))
    assert not is_regular(q2([2, 3, 1], [2, 1, 3]))
    assert is_regular(PermQuotient([[1], [1]]))
    # transitive but with a nontrivial stabilizer
    assert not is_regular(q2([2, 3, 1], [1, 3, 2]))


def test_regular_kernel_is_stabilizer():
    # in a regular action, fixing the basepoint forces the identity
    q = q2([2, 3, 4, 1], [1, 2, 3, 4])
    assert is_regular(q)
    rng = random.Random(5)
    for _ in range(200):
        w = random_word(rng, 2, 10)
        row = eval_word(q, w)
        assert (row[0] == 0) == (row == tuple(range(4)))


def test_canonical_key_relabeling_invariance():
    rng = random.Random(41)
    for _ in range(50):
        d = rng.randrange(2, 8)
        q = random_quotient(rng, 2, d)
        if not is_transitive(q):
            continue
        # a relabelling that fixes the basepoint
        s = (0, *(p + 1 for p in rng.sample(range(d - 1), d - 1)))
        assert canonical_key(relabel(q, s)) == canonical_key(q)


def test_canonical_key_distinguishes():
    a = q2([2, 1], [1, 2])
    b = q2([1, 2], [2, 1])
    assert canonical_key(a) != canonical_key(b)
    assert canonical_key(a) == canonical_key(a)
    with pytest.raises(InputError):
        canonical_key(q2([2, 1, 3], [1, 2, 3]))


def test_stabilizer_index_equals_degree():
    # endpoints of ball words from the basepoint hit every point, and the
    # point count is the coset count of the stabilizer
    q = q2([2, 3, 1, 5, 4], [1, 2, 4, 3, 5])
    assert is_transitive(q)
    endpoints = {eval_word(q, w)[0] for w in enumerate_ball(2, 5)}
    assert endpoints == set(range(5))


def test_records_roundtrip():
    q = q2([2, 3, 1], [2, 1, 3])
    rec = to_record(q)
    assert rec == {
        "degree": 3,
        "gens": [[2, 3, 1], [2, 1, 3]],
        "transitive": True,
        "regular": False,
        "order": 6,
    }
    assert from_record(rec) == q
    with pytest.raises(InputError):
        from_record({"gens": "nope"})
    for record in ({}, {"gens": 5}, {"gens": [[2, 1], 5]}):
        with pytest.raises(InputError, match="malformed quotient record"):
            from_record(record)
    for images in ([2.0, 1], [True, 2]):
        with pytest.raises(InputError, match="not a bijection"):
            from_record({"gens": [images]})
    with pytest.raises(InputError, match="share a degree"):
        from_record({"gens": [[2, 1], [1]]})
    with pytest.raises(InputError, match="disagrees"):
        from_record({"degree": 4, "gens": [[2, 3, 1]]})


def random_sl_word(rng, rank):
    """A seeded DAG over every instruction, negative powers included."""
    b = SLBuilder(rank)
    nodes = [b.gen(g) for g in range(1, rank + 1)]
    for _ in range(rng.randrange(4, 12)):
        op = rng.choice(("inv", "mul", "pow", "conj", "comm", "word"))
        u, v = rng.choice(nodes), rng.choice(nodes)
        if op == "inv":
            nodes.append(b.inv(u))
        elif op == "mul":
            nodes.append(b.mul(u, v))
        elif op == "pow":
            nodes.append(b.pow(u, rng.choice((-1, 1)) * rng.randrange(0, 10**6)))
        elif op == "conj":
            nodes.append(b.conj(u, v))
        elif op == "comm":
            nodes.append(b.comm(u, v))
        else:
            nodes.append(b.word(random_word(rng, rank, 6)))
    return b.build(nodes[-1])


def test_row_evaluation_matches_permutation_products():
    rng = random.Random(3681)
    x = generator(2, 1)
    words = [lcm_witness([power(x, i) for i in range(1, n + 1)]).word for n in range(1, 6)]
    words += [random_sl_word(rng, 2) for _ in range(24)]
    words += [random_word(rng, 2, 12) for _ in range(24)]
    # every regular quotient of F2 up to order 8, every table up to index 5
    quotients = [q for order in range(1, 9) for q in enumerate_normal(2, order)]
    quotients += [q for index in range(1, 6) for q in enumerate_subgroups(2, index)]
    assert len(quotients) > 600
    for q in quotients:
        for w in words:
            row = eval_word(q, w)
            assert row == permutation_eval(q, w)
            assert basepoint_image(q, w) == row[0]


def test_basepoint_image_decides_death_in_regular_actions():
    ball = list(enumerate_ball(2, 4))
    for order in range(1, 9):
        for q in enumerate_normal(2, order):
            for w in ball:
                assert (basepoint_image(q, w) == 0) == (eval_word(q, w) == tuple(range(order)))
    for evaluate in (basepoint_image, eval_word):
        with pytest.raises(InputError, match="word rank 3 exceeds quotient rank 2"):
            evaluate(q2([2, 1], [1, 2]), parse_word("c", rank=3))


def test_row_cycles_match_a_walk_oracle():
    rng = random.Random(7)
    for degree in range(1, 9):
        for _ in range(20):
            row = list(range(degree))
            rng.shuffle(row)
            cycles = row_cycles(row)
            # each point's cycle by walking the row, started at its least point
            expect = []
            for p in range(degree):
                cycle = [p]
                while row[cycle[-1]] != p:
                    cycle.append(row[cycle[-1]])
                if min(cycle) == p:
                    expect.append(tuple(cycle))
            assert cycles == expect
