"""Heisenberg embedding against hand-rolled matrix arithmetic.

The oracle here is a plain triple-loop matrix product over tuples; the
module's algebra must agree with it on generators and random words.  The
entry maxima follow the closed form max(n, floor(n^2/4)), derived from
the letter recursion a+-1 / b+-1, c+-a; the ball walk in `oracles` is
the second route to them, with its envelope and fold checks.
"""

import random

import pytest

from resfin.errors import InputError, InternalError, ResourceError
from resfin.nilpotent import _mul, entry_bound, girth_upper_bound_nilpotent, heisenberg_eval
from resfin.words import Ball, multiply, parse_word, reduce

from oracles import _ball_cells, _cells_max_entry, _fold_collides, _shift, ball_images


def W(text):
    return parse_word(text, 2)


def matmul(a, b):
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


X = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
Y = ((1, 0, 0), (0, 1, 1), (0, 0, 1))


def oracle_eval(w):
    XI = ((1, -1, 0), (0, 1, 0), (0, 0, 1))
    YI = ((1, 0, 0), (0, 1, -1), (0, 0, 1))
    table = {1: X, -1: XI, 2: Y, -2: YI}
    out = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for letter in w.letters:
        out = matmul(out, table[letter])
    return out


def corners(m):
    """The triple (a, b, c) of a unitriangular matrix: entries (0,1), (1,2), (0,2)."""
    return (m[0][1], m[1][2], m[0][2])


def random_word(rng, max_len=12):
    letters = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(max_len + 1))]
    return reduce(2, tuple(letters))


def test_generator_images_and_examples():
    assert heisenberg_eval(W("")) == (0, 0, 0)
    assert heisenberg_eval(W("a")) == corners(X) == (1, 0, 0)
    assert heisenberg_eval(W("b")) == corners(Y) == (0, 1, 0)
    assert heisenberg_eval(W("aaa")) == corners(((1, 3, 0), (0, 1, 0), (0, 0, 1)))
    # the commutator lands in the center: a lone corner entry
    assert heisenberg_eval(W("abAB")) == corners(((1, 0, 1), (0, 1, 0), (0, 0, 1)))
    assert matmul(matmul(X, Y), matmul(oracle_eval(W("A")), oracle_eval(W("B")))) == (
        (1, 0, 1),
        (0, 1, 0),
        (0, 0, 1),
    )


def test_eval_matches_oracle_on_random_words():
    rng = random.Random(23)
    for _ in range(300):
        w = random_word(rng)
        assert heisenberg_eval(w) == corners(oracle_eval(w))


def test_eval_is_a_homomorphism():
    rng = random.Random(31)
    for _ in range(100):
        u, v = random_word(rng), random_word(rng)
        assert heisenberg_eval(multiply(u, v)) == _mul(heisenberg_eval(u), heisenberg_eval(v))


def test_inverse_and_collisions():
    rng = random.Random(47)
    for _ in range(50):
        w = random_word(rng)
        m, inverse = heisenberg_eval(w), heisenberg_eval(~w)
        assert _mul(m, inverse) == _mul(inverse, m) == (0, 0, 0)
        assert inverse == corners(oracle_eval(~w))
    # distinct free words may share an image; then the quotient of the
    # pair must evaluate to the identity
    by_image = {}
    collision = None
    for w in Ball(2, 4):
        img = heisenberg_eval(w)
        if img in by_image:
            collision = (by_image[img], w)
            break
        by_image[img] = w
    assert collision is not None
    u, v = collision
    assert heisenberg_eval(multiply(u, ~v)) == (0, 0, 0)


def test_entry_bound_exact_values():
    assert [entry_bound(n) for n in range(7)] == [1, 1, 2, 3, 4, 6, 9]
    for n in range(11):
        assert entry_bound(n) == max(max(n, 1), n * n // 4)
        assert entry_bound(n) <= n * (n + 1) // 2 + 1
    with pytest.raises(InputError):
        entry_bound(-1)


def test_girth_bound_rows():
    assert girth_upper_bound_nilpotent(1) == (3, 27, True)
    assert girth_upper_bound_nilpotent(2) == (5, 125, True)
    m, bound, injective = girth_upper_bound_nilpotent(4)
    assert m == 2 * entry_bound(4) + 1 and bound == m**3 and injective
    with pytest.raises(InputError):
        girth_upper_bound_nilpotent(0)


def test_girth_bound_polynomial_envelope():
    for n in range(2, 17):
        _, bound, injective = girth_upper_bound_nilpotent(n)
        assert injective
        assert bound <= (n * n + 3) ** 3


def test_ball_images_match_oracle():
    for n in range(7):
        oracle = {corners(oracle_eval(w)) for w in Ball(2, n)}
        assert ball_images(n) == oracle


def test_ball_image_growth_is_strict():
    counts = [len(ball_images(n)) for n in range(7)]
    assert counts[:4] == [1, 5, 17, 53]  # no collisions below length 4
    assert counts[4] < 161  # and some at length 4
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_matrix_validation():
    with pytest.raises(InputError):
        heisenberg_eval(parse_word("abc", 3))
    with pytest.raises(InputError):
        heisenberg_eval("abAB")


def reference_ball_images(n):
    # the tuple walk the cell walk replaced: one hashed triple per element,
    # (a, b, c) times x^+-1 or y^+-1 by the product rule written out
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    for _ in range(n):
        nxt = []
        for a, b, c in frontier:
            for t in ((a + 1, b, c), (a - 1, b, c), (a, b + 1, c + a), (a, b - 1, c - a)):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def test_cells_expand_to_the_tuple_walk():
    for n in range(13):
        assert ball_images(n) == reference_ball_images(n), n


def test_fold_check_agrees_with_the_set_check():
    for n in range(9):
        cells = _ball_cells(n)
        images = ball_images(n)
        top = _cells_max_entry(cells, n)
        for m in range(2, 2 * top + 3):
            collapsed = len({tuple(v % m for v in t) for t in images}) < len(images)
            assert _fold_collides(cells, m) == collapsed, (n, m)


def test_shift_guard_refuses_to_drop_a_bit():
    assert _shift(0b101, 2) == 0b10100
    assert _shift(0b100, -2) == 0b1
    with pytest.raises(InternalError):
        _shift(0b110, -2)


def test_closed_form_out_to_radius_sixty():
    # the closed form against the ball walk: its maximum, read under the
    # envelope check, and its fold mod the modulus, which must keep every
    # image apart
    for n in range(1, 61):
        cells = _ball_cells(n)
        assert entry_bound(n) == _cells_max_entry(cells, n), n
        row = girth_upper_bound_nilpotent(n)
        m = row[0]
        assert not _fold_collides(cells, m), n
        assert row == (m, m**3, True), n


def test_a_maximum_past_the_envelope_is_refused_on_every_path():
    # the walk's maximum is read in one place, so a walk that strayed past
    # |entry| <= n(n+1)/2 + 1, in a or in c, raises there
    off = 4  # n^2 at n = 2
    for strayed in (
        {(0, 0): 1 << off, (5, 0): 1 << off},
        {(0, 0): 1 << off | 1 << (off + 5)},
    ):
        with pytest.raises(InternalError, match="ball entry maximum 5 exceeds the analytic envelope 4"):
            _cells_max_entry(strayed, 2)


def test_walk_past_the_window_limit_is_refused():
    # radius 90 spans 265,388,581 bits and radius 91 277,347,435, which
    # passes the walk's limit of 2^28 = 268,435,456; the closed form has
    # no window
    with pytest.raises(ResourceError, match="radius-91 ball spans a window of 277347435 bits"):
        _ball_cells(91)
    assert entry_bound(91) == 2070

