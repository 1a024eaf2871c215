"""Checks for the finite-quotient enumerator.

The counting oracles here do not touch the package's own machinery: a raw
sweep over generator images in the symmetric group with its own breadth-first
relabelling dedup, and the standard recursion for the number of finite-index
subgroups of a free group.
"""

import collections
import hashlib
import inspect
import itertools
import math
import random
import time

import pytest

from resfin.errors import InputError, InternalError
from resfin.lcmlib import lcm_ball_witness, lcm_witness
from resfin.lowindex import (
    _check_rows,
    _derived_depth,
    _derived_length_bound,
    _exponent_sums,
    _first_survivals,
    _materialized,
    _search,
    all_abelian,
    enumerate_normal,
    enumerate_subgroups,
    hall_counts,
    normal_count,
    normal_subgroup_growth,
    subgroup_count,
)
from resfin.permrep import (
    PermQuotient,
    eval_word,
    image_order,
    is_regular,
    is_transitive,
    orbit,
    row_cycles,
    to_record,
)
from resfin.separability import normal_divisibility
from resfin.words import (
    Ball,
    SLBuilder,
    _cyclic_split,
    _free_reduce,
    commutator,
    generator,
    inverse,
    multiply,
    parse_word,
    power,
)

from oracles import (
    canonical_key, derived_length, kernel_fingerprint, per_table_first_survivals, relabel,
    sl_build, word_battery,
)

# OEIS A051532, the orders n at which every group of order n is abelian, up
# to 100 (Pakianathan and Shankar, "Nilpotent numbers", Amer. Math. Monthly
# 107, 2000)
A051532 = (
    1, 2, 3, 4, 5, 7, 9, 11, 13, 15, 17, 19, 23, 25, 29, 31, 33, 35, 37, 41, 43, 45,
    47, 49, 51, 53, 59, 61, 65, 67, 69, 71, 73, 77, 79, 83, 85, 87, 89, 91, 95, 97, 99,
)


# --- independent oracles ---------------------------------------------------


def _inv(t):
    out = [0] * len(t)
    for i, v in enumerate(t):
        out[v] = i
    return tuple(out)


def _relabel_from_zero(gens, degree):
    # Breadth-first relabelling from point 0; None when not transitive.
    label = {0: 0}
    order = [0]
    invs = [_inv(g) for g in gens]
    i = 0
    while i < len(order):
        p = order[i]
        i += 1
        for g, gi in zip(gens, invs):
            for q in (g[p], gi[p]):
                if q not in label:
                    label[q] = len(order)
                    order.append(q)
    if len(order) != degree:
        return None
    return tuple(tuple(label[g[order[j]]] for j in range(degree)) for g in gens)


def _closure_size(gens, degree):
    seen = {tuple(range(degree))}
    frontier = list(seen)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = tuple(g[a[i]] for i in range(degree))
                if b not in seen:
                    seen.add(b)
                    fresh.append(b)
        frontier = fresh
    return len(seen)


def _sweep_count(rank, degree, regular):
    perms = list(itertools.permutations(range(degree)))
    keys = set()
    for gens in itertools.product(perms, repeat=rank):
        key = _relabel_from_zero(gens, degree)
        if key is None:
            continue
        if regular and _closure_size(gens, degree) != degree:
            continue
        keys.add(key)
    return len(keys)


def _recursion_counts(rank, upto):
    # N_1 = 1; N_n = n (n!)^(rank-1) - sum_{i<n} ((n-i)!)^(rank-1) N_i.
    counts = [0, 1]
    for n in range(2, upto + 1):
        total = n * math.factorial(n) ** (rank - 1)
        total -= sum(
            math.factorial(n - i) ** (rank - 1) * counts[i] for i in range(1, n)
        )
        counts.append(total)
    return counts[1:]


# --- counts ----------------------------------------------------------------


def test_subgroup_counts_match_raw_sweep():
    for degree in range(1, 5):
        assert subgroup_count(2, degree) == _sweep_count(2, degree, False)


def test_subgroup_counts_match_recursion():
    assert [subgroup_count(2, d) for d in range(1, 7)] == _recursion_counts(2, 6)
    assert _recursion_counts(2, 6) == [1, 3, 13, 71, 461, 3447]


def test_rank_three_subgroup_counts_match_recursion():
    assert [subgroup_count(3, d) for d in (1, 2, 3)] == _recursion_counts(3, 3)


def test_hall_counts_match_enumeration():
    # rank 2 to index 7 is the 33,089-table covers-scan of the census benchmark
    for rank, upto in ((1, 5), (2, 7), (3, 3), (4, 2)):
        expect = [subgroup_count(rank, d) for d in range(1, upto + 1)]
        assert list(itertools.islice(hall_counts(rank), upto)) == expect
    assert list(itertools.islice(hall_counts(3), 4)) == _recursion_counts(3, 4)
    with pytest.raises(InputError):
        next(hall_counts(0))


def test_normal_counts_match_raw_sweep():
    for order in range(1, 6):
        assert normal_count(2, order) == _sweep_count(2, order, True)


def test_regular_search_matches_the_unpruned_search():
    # the plain search has none of the regular devices (relator scans,
    # Lagrange's rule, the fresh-point one-letter scans); filtered to its
    # regular tables it gives the same tables in the same order
    for rank, top in ((1, 12), (2, 7), (3, 4), (4, 3)):
        for order in range(1, top + 1):
            plain = [q for q in enumerate_subgroups(rank, order) if is_regular(q)]
            assert list(enumerate_normal(rank, order)) == plain, (rank, order)


def test_normal_counts_frozen_midrange():
    # Cross-checked by hand against surjection/automorphism counts per
    # isomorphism type; order 8 splits as 12 cyclic + 3 C4xC2 + 3 dihedral
    # + 1 quaternion.
    assert normal_count(2, 6) == 15
    assert normal_count(2, 7) == 8
    assert normal_count(2, 8) == 19


def test_prime_order_count_law():
    # A surjection onto a group of prime order q lands in Z/q, so the kernels
    # match the q+1 lines of a two-dimensional vector space over F_q.
    for q in (2, 3, 5, 7, 11, 13, 17):
        assert normal_count(2, q) == q + 1


def test_rank_one_counts_are_all_one():
    for d in range(1, 9):
        assert subgroup_count(1, d) == 1
        assert normal_count(1, d) == 1


def test_growth_accumulates_counts():
    assert normal_subgroup_growth(2, 3) == 8
    assert normal_subgroup_growth(2, 6) == 36
    total = sum(normal_count(2, q) for q in range(1, 9))
    assert normal_subgroup_growth(2, 8) == total
    with pytest.raises(InputError):
        normal_subgroup_growth(2, 0)
    with pytest.raises(InputError):
        normal_subgroup_growth(2, True)


def test_normal_counts_frozen_high():
    counts = [normal_count(2, d) for d in range(13, 25)]
    assert counts == [14, 27, 24, 55, 18, 54, 20, 63, 40, 39, 24, 146]


def _sequence_digest(rank, orders):
    digest = hashlib.sha256()
    for d in orders:
        for q in _search(rank, d, True):
            digest.update(canonical_key(q))
    return digest.hexdigest()


def test_regular_search_sequence_is_frozen():
    # Frozen from the search that rescanned every relator from every point
    # after each new entry; deduction order must not change what is emitted,
    # nor in what order.
    assert _sequence_digest(2, range(1, 21)) == (
        "96d6606d2e6cc0d139cb6f4bc40b3c2e5c02e942d2a631878c6490229639e034"
    )
    assert _sequence_digest(3, range(1, 9)) == (
        "37da6e7e71773ff0fa382a9c38a36cd5ae2f5b2c7e2603e16c39a2692808bba7"
    )


def test_plain_search_sequence_is_frozen():
    # raw rows rather than canonical_key, so that a change to the key cannot
    # mask a change in which tables the search emits, or in what order
    for rank, top, count, expect in (
        (2, 6, 3996, "f4349a96608dee1f3844442122d9f144b28a6bab792ac362b820167ed378c5cd"),
        (3, 4, 2248, "e32aade1812a509200734b2bc9c3580f303b22732810ad51a638602876d2497e"),
    ):
        digest = hashlib.sha256()
        seen = 0
        for d in range(1, top + 1):
            for q in enumerate_subgroups(rank, d):
                digest.update(b"".join(bytes(row) for row in q.fwd))
                seen += 1
        assert (seen, digest.hexdigest()) == (count, expect), rank


def _search_counts(rank, degrees, regular=True, kernel_radius=0):
    """The counts `_search` returns, summed over the given degrees."""
    total = collections.Counter()
    for degree in degrees:
        search = _search(rank, degree, regular, kernel_radius)
        try:
            while True:
                next(search)
        except StopIteration as done:
            total.update(done.value)
    return total


# (rank, top order, kernel radius) and the frames pushed, candidates
# tried, candidates cut and tables emitted over the regular orders 2..top
_FROZEN_DEDUCTIONS = (
    (2, 16, 0, (2200, 7605, 4996, 269)),
    (3, 8, 0, (1468, 4189, 2165, 473)),
    (2, 24, 4, (786, 5365, 4596, 6)),
)


def test_regular_deductions_are_frozen():
    # every deduction is forced and the fixpoint is unique, so the frames
    # pushed, candidates tried, candidates cut and tables emitted do not
    # depend on the queue order; weaker deductions branch and cut more
    # while the emitted (canonical) sequence stays the same
    for rank, top, radius, expect in _FROZEN_DEDUCTIONS:
        counts = _search_counts(rank, range(2, top + 1), kernel_radius=radius)
        got = (counts["nodes"], counts["tries"], counts["cuts"], counts["tables"])
        assert got == expect, (rank, top, radius)


# (rank, top index) and the frames pushed, candidates placed, candidates
# cut and tables emitted over the plain search at indices 1..top
_FROZEN_PLAIN_COUNTS = (
    (2, 6, (11601, 16250, 0, 3996)),
    (3, 4, (8273, 10631, 0, 2248)),
)


def test_plain_search_counts_are_frozen():
    # the plain search has no deductions, so it cuts nothing; each frame
    # walks its candidates in place, every point in use free in the
    # opposite row and then the fresh point, and places each one once
    for rank, top, expect in _FROZEN_PLAIN_COUNTS:
        counts = _search_counts(rank, range(1, top + 1), regular=False)
        got = (counts["nodes"], counts["tries"], counts["cuts"], counts["tables"])
        assert got == expect, (rank, top)


def test_each_relator_is_read_off_its_closed_walk():
    # an entry off the spanning tree of point words closes the walk u v^-1
    # (u: the word of its source and its letter, v: the word of its
    # target); past their common prefix that walk is already its cyclic
    # core, which the search stores without reducing it
    walks = 0
    for rank, top, radius, _ in _FROZEN_DEDUCTIONS:
        for order in range(2, top + 1):
            for q in _search(rank, order, True, radius):
                # the tree the search grew: a canonical table meets its
                # points in label order, each first from the earliest slot
                word, tree = {0: ()}, set()
                for p in range(order):
                    for g in range(rank):
                        for row, letter in ((q.fwd[g], g + 1), (q.bwd[g], -g - 1)):
                            if row[p] not in word:
                                word[row[p]] = word[p] + (letter,)
                                tree.add((p, letter))
                for g, row in enumerate(q.fwd):
                    for a, b in enumerate(row):
                        if (a, g + 1) in tree or (b, -g - 1) in tree:
                            continue
                        u, v = word[a] + (g + 1,), word[b]
                        k = 0
                        while k < len(v) and u[k] == v[k]:
                            k += 1
                        core = u[k:] + tuple(-x for x in reversed(v[k:]))
                        whole = u + tuple(-x for x in reversed(v))
                        assert core and core == _cyclic_split(_free_reduce(whole))[1], (q, a, g, b)
                        walks += 1
    assert walks > 0


def test_regular_search_scans_each_rotation_class_once():
    # storing every relator form apart, rather than one core per rotation
    # class, drains 135,911 scans here
    assert _search_counts(2, range(2, 17))["scans"] <= 70_000


def _searched_quotients():
    for rank, top in ((2, 6), (3, 4)):
        for d in range(1, top + 1):
            yield from _search(rank, d, False)
    for order in range(1, 17):
        yield from _search(2, order, True)
    yield from enumerate_normal(2, 20, kernel_radius=2)


def test_row_check_agrees_with_the_permutation_check():
    # the search checks each table on its own rows and hands the quotient
    # its backward rows as inverses; the check it replaced inverted each
    # forward row on its own and compared canonical_key with the raw rows,
    # which also decided transitivity
    seen = 0
    for q in _searched_quotients():
        assert q.bwd == tuple(_inv(row) for row in q.fwd)
        fresh = PermQuotient([[p + 1 for p in row] for row in q.fwd])
        assert fresh == q  # the checking constructor builds the search's rows
        assert canonical_key(fresh) == b"".join(bytes(row) for row in q.fwd)
        assert is_transitive(fresh) and is_transitive(q)
        seen += 1
    assert seen == 3996 + 2248 + sum(normal_count(2, o) for o in range(1, 17)) + 48


def test_quotients_are_plain_values():
    # a quotient holds the rows of its generators and their inverses, set
    # when it is built; transitivity, order and regularity are computed on
    # each call
    assert PermQuotient.__slots__ == ("rank", "degree", "fwd", "bwd")
    searched = [q for order in range(1, 13) for q in _search(2, order, True)]
    searched += [q for index in range(1, 6) for q in _search(2, index, False)]
    rng = random.Random(17)
    built = []
    for degree in (1, 2, 3, 4, 5, 6):
        for _ in range(40):
            images = [rng.sample(range(1, degree + 1), degree) for _ in range(2)]
            built.append(PermQuotient(images))
    kinds = set()
    for is_built, q in [(False, q) for q in searched] + [(True, q) for q in built]:
        assert q.bwd == tuple(_inv(row) for row in q.fwd)
        order = image_order(q)
        transitive = orbit(q, 1) == frozenset(range(1, q.degree + 1))
        regular = transitive and order == q.degree
        assert to_record(q) == {
            "degree": q.degree,
            "gens": [[p + 1 for p in row] for row in q.fwd],
            "transitive": transitive,
            "regular": regular,
            "order": order,
        }
        kinds.add((is_built, transitive, regular))
    # every searched quotient is transitive; the built ones take all three kinds
    both = {(True, True), (True, False)}
    assert kinds == {(False, *k) for k in both} | {(True, *k) for k in both | {(False, False)}}


def _check_table(fwd, bwd):
    """_check_rows on the interleaved rows, as the search hands them in."""
    _check_rows([row for f, b in zip(fwd, bwd) for row in (f, b)], list(range(len(fwd[0]))))


def test_row_check_refuses_each_broken_table():
    # a = (0 1 2), b = (1 2): a breadth-first walk meets 1 through a and
    # 2 through a^-1, so the table is canonical
    fwd = [[1, 2, 0], [0, 2, 1]]
    bwd = [[2, 0, 1], [0, 2, 1]]
    _check_table(fwd, bwd)
    for broken_fwd, broken_bwd, message in (
        # the same action with points 1 and 2 swapped
        ([[2, 0, 1], [0, 2, 1]], [[1, 2, 0], [0, 2, 1]], "non-canonical"),
        # point 2 is fixed by both generators
        ([[1, 0, 2], [0, 1, 2]], [[1, 0, 2], [0, 1, 2]], "intransitive"),
        ([[1, 2, 0], [0, 2, 1]], [[1, 2, 0], [0, 2, 1]], "misses its inverse"),
        # an empty entry that the backward row undoes by wrapping around
        ([[-1, 0]], [[1, 0]], "misses its inverse"),
    ):
        with pytest.raises(InternalError, match=message):
            _check_table(broken_fwd, broken_bwd)


# --- the kernel-length cut -------------------------------------------------


def _kernel_free(q, doubled):
    return all(eval_word(q, w) != tuple(range(q.degree)) for w in doubled)


@pytest.mark.parametrize("rank,radius,max_order", [(2, 1, 16), (2, 2, 20), (3, 1, 9), (1, 3, 12)])
def test_kernel_cut_keeps_every_injective_quotient(rank, radius, max_order):
    doubled = list(Ball(rank, 2 * radius).nontrivial())
    cut_any = False
    for order in range(1, max_order + 1):
        full = list(enumerate_normal(rank, order))
        pruned = list(enumerate_normal(rank, order, kernel_radius=2 * radius))
        full_keys = [canonical_key(q) for q in full]
        pruned_keys = [canonical_key(q) for q in pruned]
        rest = iter(full_keys)
        assert all(key in rest for key in pruned_keys), order  # a subsequence
        assert [canonical_key(q) for q in full if _kernel_free(q, doubled)] == [
            canonical_key(q) for q in pruned if _kernel_free(q, doubled)
        ], order
        cut_any = cut_any or len(pruned) < len(full)
    assert cut_any


def test_kernel_cut_sequence_is_frozen():
    # the subsequence the cut keeps, frozen from the recursive search; a
    # weaker cut keeps more tables and still passes the test above
    for rank, orders, radius, count, expect in (
        (2, range(17, 25), 4, 6,
         "8d5fb6b28e332289dd480e0ee02282979e62496b339726262ff22638e6c4deaa"),
        (3, range(1, 13), 2, 338,
         "add3048910232cd9ffbfc928f7dd27c5fb5d6c68cc29bc2eba0e93aaaf1fa395"),
    ):
        digest = hashlib.sha256()
        seen = 0
        for order in orders:
            for q in enumerate_normal(rank, order, kernel_radius=radius):
                digest.update(canonical_key(q))
                seen += 1
        assert (seen, digest.hexdigest()) == (count, expect), rank


def test_whole_order_cut_skips_only_empty_orders():
    # enumerate_normal skips an order, with no search, exactly when its
    # largest proper divisor (the order over its least prime) is at most
    # the kernel radius or every group of that order is abelian, such as
    # 15, 33 and 35 at radius 4; there the kernel-radius search yields
    # nothing
    skipped = 0
    for rank, radii, top in ((2, (4, 5, 6), 40), (3, (4,), 23)):
        for radius in radii:
            for order in range(1, top + 1):
                least = next((p for p in range(2, order + 1) if order % p == 0), 1)
                skip = order // least <= radius or order in A051532
                searched = enumerate_normal(rank, order, kernel_radius=radius)
                assert inspect.isgenerator(searched) is not skip, (rank, radius, order)
                if skip:
                    assert list(searched) == []
                    assert next(_search(rank, order, True, radius), None) is None
                    skipped += 1
    # 72 by the least-prime rule, and 9 more abelian orders: 15, 25, 33
    # and 35 at radius 4, 33 and 35 at radii 5 and 6, 15 at rank 3
    assert skipped == 81
    # rank 1 has no commutator, and below radius 4 the commutator is too
    # long to cut: both search every order
    assert inspect.isgenerator(enumerate_normal(1, 7, kernel_radius=6))
    assert inspect.isgenerator(enumerate_normal(2, 7, kernel_radius=3))


def test_all_abelian_is_oeis_a051532():
    assert tuple(n for n in range(1, 101) if all_abelian(n)) == A051532
    with pytest.raises(InputError):
        all_abelian(0)


def test_all_abelian_orders_have_commuting_generators():
    # a second route to the predicate: at each order it marks, the two
    # generators commute in every regular action the search yields
    for order in range(1, 41):
        if all_abelian(order):
            for q in enumerate_normal(2, order):
                a, b = q.fwd
                assert all(a[b[p]] == b[a[p]] for p in range(order)), (order, q)


def test_kernel_radius_is_checked():
    with pytest.raises(InputError):
        enumerate_normal(2, 4, kernel_radius=-1)
    with pytest.raises(InputError):
        enumerate_normal(2, 4, kernel_radius=1.5)
    with pytest.raises(InputError):
        enumerate_normal(2, 4, kernel_radius=True)


# --- first survivals -------------------------------------------------------


# the README's dmax argmax at rank 2, radius 14: it dies in every quotient
# of order below 24
FLAT_DEAD_BELOW_24 = "aabABAbaaBAbAB"


def _rows(found):
    return [None if hit is None else (hit[0], hit[1].fwd) for hit in found]


def _power_set(n):
    x = generator(2, 1)
    return lcm_witness([power(x, i) for i in range(1, n + 1)]).word


def _zero_sum(rank, radius):
    return [w for w in Ball(rank, radius).nontrivial() if not any(_exponent_sums(w))]


@pytest.mark.parametrize("batch", [1, 5, 2048])
def test_first_survivals_match_the_per_table_scan(monkeypatch, batch):
    # value and first witness, each word scanned on its own, on witnesses
    # and on straight-line and flat words, some outside the commutator
    # subgroup
    monkeypatch.setattr("resfin.lowindex._WALK_BATCH", batch)
    rng = random.Random(32)
    ball = list(Ball(2, 5).nontrivial())
    mixed = []
    for _ in range(5):
        words = [
            sl_build(w) if rng.random() < 0.5 else w for w in rng.sample(ball, 4)
        ] + [_power_set(rng.choice((2, 3)))]
        rng.shuffle(words)
        mixed.append((2, words, 16))
    cases = [
        (2, [_power_set(n) for n in (1, 2, 3, 4, 6, 12)], 16),
        (2, [lcm_ball_witness(2, 1).word, lcm_ball_witness(2, 2).word], 12),
        (2, _zero_sum(2, 6), 16),
        *mixed,
        (3, [lcm_ball_witness(3, 1).word, *_zero_sum(3, 4)[::7]], 10),
        # flat only, with its answer at order 24
        (2, [parse_word(FLAT_DEAD_BELOW_24, 2)], 24),
    ]
    for rank, words, cap in cases:
        expect = _rows(per_table_first_survivals(rank, words, cap))
        assert _rows([_first_survivals(rank, w, cap) for w in words]) == expect, (rank, cap)


def test_first_survivals_match_the_per_table_scan_to_order_24():
    # value and first witness with the default recheck, where the derived
    # length skips whole orders: the witness for {x, x^2}, 1 deep, survives
    # at order 12, and the other words are at least 2 deep, so they skip
    # every order from 13 to 23, and order 24, where S4 and SL(2,3) have
    # derived length 3, is searched
    a, b = generator(2, 1), generator(2, 2)
    words = [
        *(_power_set(n) for n in (2, 3, 4)),
        lcm_ball_witness(2, 1).word,
        lcm_witness([a, b, multiply(a, b)]).word,
    ]
    expect = _rows(per_table_first_survivals(2, words, 24))
    assert _rows([_first_survivals(2, w, 24) for w in words]) == expect
    assert [None if hit is None else hit[0] for hit in expect] == [12, 24, None, 24, 24]


def test_first_survivals_evaluate_every_order_up_to_recheck(monkeypatch):
    # every order from 13 to 16 lies below 24, so each of its groups is
    # metabelian and kills both witnesses, of depth 2: skipped past the
    # recheck order, searched and evaluated up to it
    words = [_power_set(3), _power_set(4)]
    for recheck, skipped in ((12, [13, 14, 15, 16]), (16, [])):
        orders = []
        monkeypatch.setattr(
            "resfin.lowindex.enumerate_normal",
            lambda rank, order: orders.append(order) or enumerate_normal(rank, order),
        )
        assert [_first_survivals(2, w, 16, recheck) for w in words] == [None, None]
        assert sorted(set(range(2, 17)) - set(orders)) == skipped


def test_a_flat_only_scan_stops_at_its_first_survivor(monkeypatch):
    # every table of each order searched below 24, and at 24 only the
    # tables up to the first where the word survives
    pulled = collections.Counter()

    def counting(rank, order):
        for q in enumerate_normal(rank, order):
            pulled[order] += 1
            yield q

    monkeypatch.setattr("resfin.lowindex.enumerate_normal", counting)
    order, _ = _first_survivals(2, parse_word(FLAT_DEAD_BELOW_24, 2), 24)
    monkeypatch.undo()
    assert order == 24
    assert pulled.pop(24) == 20 < normal_count(2, 24) == 146
    assert pulled == {n: normal_count(2, n) for n in pulled}
    assert sorted(pulled) == [6, 8, 10, 12, 14, 16, 18, 20, 21, 22]


def test_each_order_is_read_lazily_at_rank_26():
    # F26 has 2^26 - 1 regular actions of order 2; the first is read
    # without searching the rest, and z survives in it
    _materialized.cache_clear()
    start = time.perf_counter()
    next(enumerate_normal(26, 2))
    assert time.perf_counter() - start < 1
    _materialized.cache_clear()
    start = time.perf_counter()
    assert normal_divisibility(generator(26, 26), 2).value == 2
    assert time.perf_counter() - start < 5
    _materialized.cache_clear()


def test_a_failed_search_leaves_no_prefix_to_replay(monkeypatch):
    # the third table of order 6 is misreported as irregular, so the
    # search stops with InternalError after two tables; those two must not
    # be replayed as the whole order
    _materialized.cache_clear()
    calls = itertools.count(1)

    def misreport(q, cap):
        order = image_order(q, cap=cap)
        return order + 1 if q.degree == 6 and next(calls) == 3 else order

    monkeypatch.setattr("resfin.lowindex.image_order", misreport)
    with pytest.raises(InternalError, match="irregular table"):
        list(enumerate_normal(2, 6))
    monkeypatch.undo()
    assert normal_count(2, 6) == 15
    assert list(enumerate_normal(2, 6)) == list(_search(2, 6, True))


def test_derived_depth():
    a, b = generator(2, 1), generator(2, 2)
    for n in range(1, 13):
        assert _derived_depth(_power_set(n)) == math.ceil(math.log2(n)), n
    assert _derived_depth(lcm_ball_witness(2, 1).word) == 2
    flat = commutator(power(a, 3), b)
    assert _derived_depth(flat) == _derived_depth(sl_build(flat)) == 1
    assert _derived_depth(power(a, 3)) == _derived_depth(sl_build(power(a, 3))) == 0
    builder = SLBuilder(2)
    assert _derived_depth(builder.build(builder.pow(builder.gen(1), 0))) == math.inf


def test_derived_length_bound_holds_on_every_regular_action():
    # a second route to the order bound: the derived length of each
    # image, read off its elements, never exceeds it; every image below
    # order 24 is metabelian, and order 24 attains derived length 3
    most = {
        (rank, order): max(derived_length(q) for q in enumerate_normal(rank, order))
        for rank, top in ((2, 24), (3, 12))
        for order in range(2, top + 1)
    }
    assert all(d <= _derived_length_bound(order) for (_, order), d in most.items()), most
    assert most.pop((2, 24)) == 3 == _derived_length_bound(24)
    assert max(most.values()) == 2


def test_exponent_sums_of_straight_line_words():
    a, b = generator(2, 1), generator(2, 2)
    for w in (a, power(b, -3), commutator(a, b), multiply(power(a, 5), inverse(b))):
        assert _exponent_sums(sl_build(w)) == _exponent_sums(w)
    assert _exponent_sums(multiply(power(a, 5), inverse(b))) == (5, -1)
    assert not any(_exponent_sums(_power_set(12)))
    assert _exponent_sums(_power_set(1)) == (1, 0)


# --- shape of the yields ---------------------------------------------------


def test_yields_are_transitive_of_exact_degree():
    for d in range(1, 5):
        for q in enumerate_subgroups(2, d):
            assert q.degree == d
            assert q.rank == 2
            assert is_transitive(q)


def test_normal_yields_are_regular():
    for order in range(1, 7):
        for q in enumerate_normal(2, order):
            assert is_regular(q)
            assert image_order(q) == order


def test_rank_one_yield_is_the_full_cycle():
    (q,) = enumerate_subgroups(1, 5)
    cycles = row_cycles(eval_word(q, generator(1, 1)))
    assert len(cycles) == 1 and len(cycles[0]) == 5
    assert image_order(q) == 5


def test_enumeration_is_deterministic_and_duplicate_free():
    first = [canonical_key(q) for q in enumerate_subgroups(2, 5)]
    second = [canonical_key(q) for q in enumerate_subgroups(2, 5)]
    assert first == second
    assert len(set(first)) == len(first)
    normals = [canonical_key(q) for q in enumerate_normal(2, 8)]
    assert len(set(normals)) == len(normals)


def test_canonical_key_matches_the_reference_relabelling():
    # _relabel_from_zero is the dict-based breadth-first definition of the
    # key, kept apart from the one pass that also decides transitivity;
    # a relabelling may move the basepoint, so both sides see new tables
    rng = random.Random(11)
    for rank, degree in ((2, 5), (3, 4)):
        for q in enumerate_subgroups(rank, degree):
            images = list(range(degree))
            rng.shuffle(images)
            moved = relabel(q, tuple(images))
            reference = _relabel_from_zero(moved.fwd, degree)
            assert canonical_key(moved) == b"".join(bytes(row) for row in reference)
            assert is_transitive(moved)
    q = PermQuotient([[2, 1, 3], [1, 2, 3]])
    with pytest.raises(InputError):
        canonical_key(q)
    assert not is_transitive(q)


# --- kernel fingerprints ---------------------------------------------------


def test_fingerprints_separate_kernels():
    for order in range(2, 7):
        battery = word_battery(2, order)
        prints = [kernel_fingerprint(q, battery) for q in enumerate_normal(2, order)]
        assert len(set(prints)) == len(prints)


def test_fingerprint_and_key_ignore_relabelling():
    # A regular action looks the same from every basepoint, so conjugating
    # the generator images by any permutation changes neither the kernel
    # fingerprint nor the canonical key.
    rng = random.Random(7)
    for q in enumerate_normal(2, 6):
        images = list(range(q.degree))
        rng.shuffle(images)
        relabeled = relabel(q, tuple(images))
        assert kernel_fingerprint(relabeled) == kernel_fingerprint(q)
        assert canonical_key(relabeled) == canonical_key(q)


def test_word_battery_contents():
    battery = word_battery(2, 6)
    radius = 2 * (6 - 1).bit_length() + 2
    assert all(len(w) <= radius for w in battery)
    assert generator(2, 1) in battery
    assert generator(2, 2) in battery
    assert battery == word_battery(2, 6)


# --- argument checking -----------------------------------------------------


def test_rejects_bad_arguments():
    with pytest.raises(InputError):
        subgroup_count(0, 3)
    with pytest.raises(InputError):
        normal_count(2, 0)
    # bool is an int subclass; True must not run as degree 1
    with pytest.raises(InputError):
        enumerate_subgroups(2, True)
    with pytest.raises(InputError):
        normal_count(2, True)


def test_enumerators_run_past_255_points():
    # the index or order asked for is the only cap: F1 has one normal
    # subgroup of index 256, with quotient Z/256 acting on itself
    (table,) = enumerate_normal(1, 256)
    assert table.degree == 256 and is_regular(table)
    assert [len(c) for c in row_cycles(table.fwd[0])] == [256]
    # every table is its own canonical form, and 256 labels fit in bytes
    assert canonical_key(table) == bytes(table.fwd[0])
    assert next(enumerate_subgroups(2, 256)).degree == 256


def test_plain_search_builds_a_table_past_the_recursion_limit():
    # rank * index edges, each once a nested generator frame; these raised
    # RecursionError at the first table when the search still recursed.
    # The index asked for is its only cap, so (2, 17) runs as well
    for rank, index in ((26, 40), (4, 250), (26, 35), (2, 17)):
        first = next(enumerate_subgroups(rank, index))
        assert (first.rank, first.degree) == (rank, index)
