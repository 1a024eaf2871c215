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
    Permutation,
    basepoint_image,
    eval_word,
    format_permutation,
    from_record,
    identity_perm,
    image_order,
    is_regular,
    is_transitive,
    orbit,
    parse_permutation,
    row_cycles,
    to_record,
)
from resfin.words import generator, power

from oracles import canonical_key, permutation_eval


def q2(x_images, y_images):
    return PermQuotient([Permutation(x_images), Permutation(y_images)])


def oracle_group_order(perms):
    """Closure under composition, tuples all the way down."""
    base = [tuple(p.images) for p in perms]
    d = len(base[0])
    ident = tuple(range(1, d + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        a = frontier.pop()
        for b in base:
            c = tuple(b[a[i] - 1] for i in range(d))
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return len(seen)


def random_quotient(rng, rank, degree):
    gens = []
    for _ in range(rank):
        images = list(range(1, degree + 1))
        rng.shuffle(images)
        gens.append(Permutation(images))
    return PermQuotient(gens)


def random_word(rng, rank, max_len):
    letters = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    raw = [rng.choice(letters) for _ in range(rng.randrange(max_len + 1))]
    from resfin import reduce

    return reduce(rank, raw)


def test_permutation_basics():
    p = Permutation([2, 3, 1])
    assert p.apply(1) == 2
    assert p.inverse().apply(2) == 1
    assert (p * p.inverse()).is_identity
    assert p.cycles() == [(1, 2, 3)]
    with pytest.raises(InputError):
        Permutation([1, 1, 2])


def test_composition_is_left_to_right():
    # apply (1 2) then (2 3): point 1 goes to 2, then 2 goes to 3
    a = parse_permutation("(1 2)", degree=3)
    b = parse_permutation("(2 3)", degree=3)
    assert (a * b).apply(1) == 3


def test_parse_and_format():
    assert parse_permutation("2 3 1 5 4").images == (2, 3, 1, 5, 4)
    assert parse_permutation("(1 2 3)(4 5)").images == (2, 3, 1, 5, 4)
    assert parse_permutation("(1 2)", degree=4).images == (2, 1, 3, 4)
    assert format_permutation(Permutation([2, 3, 1])) == "2 3 1"
    with pytest.raises(InputError):
        parse_permutation("(1 1)")
    with pytest.raises(InputError):
        parse_permutation("1 2 4")


def test_malformed_permutation_text_is_an_input_error():
    for text, named in (
        ("(1 2", "missing ')'"),
        ("(1 2)(3", "missing ')'"),
        ("(1 x)", "bad point 'x'"),
        ("1 2 x", "bad point 'x'"),
        ("2 1.5", "bad point '1.5'"),
        ("(0 1)", "cycle point 0 out of range 1..1"),
        # int() reads each of these as a point: 10, 2, 2 and 10
        ("1_0 2 3 4 5 6 7 8 9 1", "bad point '1_0'"),
        ("+2 1", "bad point '+2'"),
        ("\uff12 1", "bad point '\uff12'"),
        ("(1_0 2)", "bad point '1_0'"),
    ):
        with pytest.raises(InputError, match=re.escape(named)):
            parse_permutation(text)


def test_eval_word_examples():
    q = q2([2, 1], [1, 2])
    assert eval_word(q, parse_word("aa", rank=2)).is_identity

    q = q2([2, 3, 1], [1, 2, 3])
    assert eval_word(q, parse_word("a", rank=2)).apply(1) == 2

    q = q2([2, 3, 1, 5, 4], [1, 2, 4, 3, 5])
    assert not eval_word(q, parse_word("abAB")).is_identity


def test_eval_word_is_homomorphism():
    rng = random.Random(2026)
    for _ in range(10):
        q = random_quotient(rng, 2, rng.randrange(2, 7))
        for _ in range(100):
            u = random_word(rng, 2, 8)
            v = random_word(rng, 2, 8)
            assert eval_word(q, u * v) == eval_word(q, u) * eval_word(q, v)
            assert eval_word(q, ~u) == eval_word(q, u).inverse()


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
        assert image_order(q, cap=10**4) == oracle_group_order(q.gens)


def test_is_regular():
    assert is_regular(q2([2, 1], [1, 2]))
    assert not is_regular(q2([2, 3, 1], [2, 1, 3]))
    assert is_regular(PermQuotient([Permutation([1]), Permutation([1])]))
    # transitive but with a nontrivial stabilizer
    assert not is_regular(q2([2, 3, 1], [1, 3, 2]))


def test_regular_kernel_is_stabilizer():
    # in a regular action, fixing the basepoint forces the identity
    q = q2([2, 3, 4, 1], [1, 2, 3, 4])
    assert is_regular(q)
    rng = random.Random(5)
    for _ in range(200):
        w = random_word(rng, 2, 10)
        perm = eval_word(q, w)
        assert (perm.apply(1) == 1) == perm.is_identity


def test_canonical_key_relabeling_invariance():
    rng = random.Random(41)
    for _ in range(50):
        d = rng.randrange(2, 8)
        q = random_quotient(rng, 2, d)
        if not is_transitive(q):
            continue
        relabel = [1] + [p + 2 for p in rng.sample(range(d - 1), d - 1)]

        def moved(perm):
            images = [0] * d
            for p in range(1, d + 1):
                images[relabel[p - 1] - 1] = relabel[perm.apply(p) - 1]
            return Permutation(images)

        other = PermQuotient([moved(g) for g in q.gens])
        assert canonical_key(other) == canonical_key(q)


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
    endpoints = {eval_word(q, w).apply(1) for w in enumerate_ball(2, 5)}
    assert endpoints == set(range(1, 6))


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


def test_identity_perm():
    assert identity_perm(4).is_identity
    assert eval_word(q2([2, 1], [1, 2]), parse_word("", rank=2)) == identity_perm(2)


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
            perm = eval_word(q, w)
            assert perm == permutation_eval(q, w)
            assert basepoint_image(q, w) == perm.apply(1) - 1


def test_basepoint_image_decides_death_in_regular_actions():
    ball = list(enumerate_ball(2, 4))
    for order in range(1, 9):
        for q in enumerate_normal(2, order):
            for w in ball:
                assert (basepoint_image(q, w) == 0) == eval_word(q, w).is_identity
    with pytest.raises(InputError):
        basepoint_image(q2([2, 1], [1, 2]), parse_word("c", rank=3))


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
            shifted = [tuple(p + 1 for p in c) for c in cycles]
            assert Permutation([p + 1 for p in row]).cycles() == shifted
